"""The autoscale simulator: load ramp + node-kill storm, gated.

Drives the full self-healing elastic loop end to end on the simulated
clock: a Poisson load ramp pushes a 2-node fleet into saturation, the
:class:`~repro.cluster.autoscale.controller.Autoscaler` grows it through
successive plan epochs (each cutover executed live by the
:class:`~repro.cluster.migration.MigrationEngine` under bandwidth
contention), a node is killed mid-run and the fleet heals it —
re-replicating its tables — before the controller is allowed to scale
back down. Plans, reshapes and heals all go through one
:class:`~repro.cluster.autoscale.fleet.ElasticFleet`, the same object each
LLM stage pool is. The gates are the elastic counterpart of
``repro.cluster.sim``'s:

* **convergence** — after the ramp hits peak rate, achieved throughput
  recovers to >= ``CONVERGENCE_FLOOR`` x offered within
  ``CONVERGENCE_BUDGET_TICKS`` decision intervals, and holds there on the
  final plateau;
* **p99 under events** — every scale/heal interval's window p99 stays
  <= ``P99_EVENT_CEILING`` x the most recent steady interval's p99;
* **heal, zero loss** — the node kill at replication 2 sheds nothing
  (failover), the heal migration sheds nothing (double-serve), and the
  fleet ends the storm at full replication health;
* **scaling audit** — the controller's decision trace is byte-identical
  across hot-head / hot-tail / uniform skew profiles in exact mode
  (:meth:`~repro.telemetry.audit.LeakageAuditor.require` on the
  :func:`~repro.cluster.autoscale.controller.scaling_subject`), and the
  workload-chasing
  :class:`~repro.cluster.autoscale.controller.HotLoadChasingController`
  negative control is *caught*;
* **audited reshapes** — every plan passes the placement audit and every
  executed migration (scale and heal alike) passes the migration audit;
* **counter integrity** — the autoscale event counters on the merged
  fleet report equal the events the run actually performed (summed,
  never averaged, across interval reports).

Everything derives from one seed; two runs emit byte-identical JSON
(serialised with ``allow_nan=False`` — the report is NaN/inf-free by
construction) and CI pins that with ``cmp``.

CLI::

    python -m repro.cluster.autoscale --seed 7 --json autoscale.json
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List

from repro.cluster.autoscale.controller import (
    ACTION_DOWN,
    ACTION_UP,
    AutoscaleConfig,
    HotLoadChasingController,
    scaling_subject,
)
from repro.cluster.autoscale.fleet import KIND_HEAL, ElasticFleet, event_key
from repro.cluster.placement import AUDIT_SECRET_LENGTH, RingPlanner
from repro.cluster.scatter import ClusterServingReport
from repro.data import TERABYTE_SPEC, DlrmDatasetSpec
from repro.experiments import ExperimentResult, gated
from repro.experiments.scenario import FOREVER_SECONDS, Fig13Scenario
from repro.resilience.dispatch import ResilientDispatcher
from repro.telemetry.audit import LeakageAuditor, contrasting_secrets

#: the autoscale gates CI enforces (ISSUE 8 acceptance criteria)
CONVERGENCE_FLOOR = 0.9        # achieved / offered after the ramp
CONVERGENCE_BUDGET_TICKS = 6   # intervals allowed to reach the floor
P99_EVENT_CEILING = 2.0        # event-window p99 vs latest steady p99

INTERVAL_SECONDS = 0.25        # one decision interval of simulated time
RAMP_RATES = (2000.0, 4000.0, 6000.0)
PEAK_RATE = 8000.0
PEAK_TICKS = 7
TROUGH_RATE = 2500.0
TROUGH_TICKS = 10
KILL_TICK = 11                 # node kill lands inside the trough
VICTIM = 0

START_NODES = 2
MIN_NODES = 2
MAX_NODES = 5
REPLICATION = 2
HIGH_UTILISATION = 0.85
LOW_UTILISATION = 0.28
BREACH_TICKS = 2
COOLDOWN_TICKS = 1
STEP_SIZE = 4                  # tables per migration step

DEADLINE_SECONDS = 0.050


def rate_schedule() -> List[float]:
    """The offered-load timeline: ramp, peak plateau, trough."""
    return (list(RAMP_RATES) + [PEAK_RATE] * PEAK_TICKS
            + [TROUGH_RATE] * TROUGH_TICKS)


def run_autoscale(seed: int = 0, spec: DlrmDatasetSpec = TERABYTE_SPEC
                  ) -> Dict[str, object]:
    """Run the load ramp + kill storm; return the JSON-stable report."""
    rates = rate_schedule()
    ticks = len(rates)
    fig13 = Fig13Scenario(spec, deadline_seconds=DEADLINE_SECONDS)
    config, policy = fig13.config, fig13.policy
    dim = spec.embedding_dim
    sizes = spec.table_sizes
    uniform, thresholds = fig13.model
    skews = contrasting_secrets(len(sizes), AUDIT_SECRET_LENGTH)

    dispatcher = ResilientDispatcher(num_replicas=START_NODES,
                                     min_replicas=MIN_NODES)
    autoscale_config = AutoscaleConfig(
        min_nodes=MIN_NODES, max_nodes=MAX_NODES,
        high_utilisation=HIGH_UTILISATION,
        low_utilisation=LOW_UTILISATION, breach_ticks=BREACH_TICKS,
        cooldown_ticks=COOLDOWN_TICKS)
    # Plans come from the ring planner (incremental reshards); the fleet
    # audits each node count's plan before it may serve.
    fleet = ElasticFleet(RingPlanner(START_NODES, thresholds, dim, uniform),
                         sizes, config, autoscale_config,
                         start_nodes=START_NODES, replication=REPLICATION,
                         dispatcher=dispatcher,
                         interval_seconds=INTERVAL_SECONDS,
                         step_size=STEP_SIZE)
    control = fleet.control
    engine = fig13.scatter(control.current.router, dispatcher=dispatcher)

    def provisioned_capacity() -> float:
        # Priced on the plan's full owner assignment, blind to replica
        # health: a dead node must surface in the signals' crash counts
        # (where it blocks scale-down), not as a phantom utilisation spike
        # that resets the controller's streaks.
        routed, _ = control.current.router.assignment(len(sizes), 0.0, None)
        return engine.capacity_rps(config,
                                   engine.shard_latencies(config, routed))

    # Event counters accumulate here and are stamped onto the next serve
    # interval's report, so the merged fleet report sums to the run total.
    stamp = {"scale_up_events": 0, "scale_down_events": 0, "heal_events": 0}

    cells: List[Dict[str, object]] = []
    interval_reports: List[ClusterServingReport] = []
    steady_p99 = 0.0
    p99_events_ok = True
    kill_shed = 0
    heal_shed = 0
    heal_unroutable = 0
    replication_restored = False

    for tick in range(ticks):
        now = tick * INTERVAL_SECONDS
        rate = rates[tick]
        num_requests = int(round(rate * INTERVAL_SECONDS))
        # Each tick is the Fig 13 workload at that tick's offered rate.
        queue = dataclasses.replace(
            fig13, num_requests=num_requests,
            rate_rps=rate).arrivals(seed * 1000 + tick)
        if tick == KILL_TICK:
            dispatcher.mark_down(VICTIM, until_seconds=FOREVER_SECONDS,
                                 now_seconds=now)
        cell: Dict[str, object] = {
            "tick": tick,
            "rate_rps": rate,
            "num_requests": num_requests,
            "killed": tick == KILL_TICK,
        }

        if fleet.pending is not None:
            kind = fleet.pending_kind
            migration = fleet.pending.execute(engine, config, queue, policy)
            fleet.complete()
            if kind == KIND_HEAL:
                heal_shed += migration.shed_requests
                heal_unroutable += migration.unroutable_events
                health = dispatcher.health_summary(now)
                replication_restored = (health["healthy"]
                                        == health["num_replicas"])
            capacity = provisioned_capacity()
            answered = max(0, migration.num_requests
                           - migration.shed_requests)
            signals = fleet.plane.snapshot(
                offered_rps=rate,
                achieved_rps=answered / INTERVAL_SECONDS,
                capacity_rps=capacity,
                # Queue and service are not separable inside a migration
                # window; the control law reads utilisation only.
                queue_delay_seconds=0.0,
                shed_requests=migration.shed_requests,
                current_nodes=control.current.num_nodes,
                replication=control.current.replication,
                now_seconds=now)
            p99 = migration.window_p99
            inflation = (p99 / steady_p99 if steady_p99 > 0.0 else 0.0)
            p99_events_ok = (p99_events_ok
                             and inflation <= P99_EVENT_CEILING)
            cell.update({
                "kind": kind,
                "source_epoch": migration.source_epoch,
                "target_epoch": migration.target_epoch,
                "tables_moved": migration.tables_moved,
                "bytes_modelled": migration.bytes_modelled,
                "num_steps": migration.num_steps,
                "shed_requests": migration.shed_requests,
                "unroutable_events": migration.unroutable_events,
                "p99_seconds": p99,
                "steady_p99_seconds": steady_p99,
                "p99_inflation": inflation,
            })
        else:
            result = engine.serve(config, queue, policy,
                                  owner_map=control.current.router)
            result.scale_up_events = stamp["scale_up_events"]
            result.scale_down_events = stamp["scale_down_events"]
            result.heal_events = stamp["heal_events"]
            stamp = {"scale_up_events": 0, "scale_down_events": 0,
                     "heal_events": 0}
            interval_reports.append(result)
            signals = fleet.plane.observe(
                result, offered_rps=rate,
                replication=control.current.replication,
                current_nodes=control.current.num_nodes,
                capacity_rps=provisioned_capacity(),
                now_seconds=now)
            steady_p99 = result.p99
            if tick == KILL_TICK:
                kill_shed = result.shed_requests
            cell.update({
                "kind": "serve",
                "epoch": control.current.epoch,
                "shed_requests": result.shed_requests,
                "p99_seconds": result.p99,
                "mean_queue_delay_seconds": result.report.mean_queue_delay,
            })

        decision = fleet.decide(signals)
        if decision.scales:
            fleet.reshape(decision)
            stamp[event_key(decision.action)] += 1

        dead = fleet.dead_nodes(now)
        if dead and fleet.pending is None:
            fleet.heal(dead, tick)
            stamp["heal_events"] += 1

        cell["signals"] = signals.to_dict()
        cell["decision"] = decision.to_dict()
        cell["health"] = dispatcher.health_summary(now)
        cells.append(cell)

    # ------------------------------------------------------------------
    # Leftover event stamps (a decision on the final tick) still count.
    if any(stamp.values()) and interval_reports:
        last = interval_reports[-1]
        last.scale_up_events += stamp["scale_up_events"]
        last.scale_down_events += stamp["scale_down_events"]
        last.heal_events += stamp["heal_events"]

    # ------------------------------------------------------------------
    # Gate: convergence after the ramp, and a stable final plateau.
    first_peak = rates.index(max(rates))
    converged_tick = next(
        (cell["tick"] for cell in cells
         if cell["tick"] >= first_peak
         and cell["signals"]["achieved_rps"]
         >= CONVERGENCE_FLOOR * cell["signals"]["offered_rps"]), None)
    convergence_ok = (converged_tick is not None
                      and converged_tick - first_peak
                      <= CONVERGENCE_BUDGET_TICKS)
    plateau = [cell for cell in cells
               if cell["tick"] >= ticks - 4 and cell["kind"] == "serve"]
    plateau_ok = bool(plateau) and all(
        cell["signals"]["achieved_rps"]
        >= CONVERGENCE_FLOOR * cell["signals"]["offered_rps"]
        for cell in plateau)

    # ------------------------------------------------------------------
    # Gate: the kill + heal lost nothing and redundancy is restored.
    heal_ok = (kill_shed == 0 and heal_shed == 0 and heal_unroutable == 0
               and replication_restored)

    # ------------------------------------------------------------------
    # Gate: scale decisions are skew-invariant (exact mode) and the
    # workload-chasing controller is caught.
    scaling_finding = fleet.scaling_audit(skews)
    negative = LeakageAuditor().audit(scaling_subject(
        lambda: HotLoadChasingController(autoscale_config), fleet.timeline,
        skews, name="hot-load-chasing", expect_oblivious=False))

    # ------------------------------------------------------------------
    # Gate: the autoscale counters on the merged fleet report sum to the
    # events this run actually performed.
    merged = ClusterServingReport.merge(interval_reports)
    events = {
        "scale_up_events": sum(1 for cell in cells
                               if cell["decision"]["action"] == ACTION_UP),
        "scale_down_events": sum(
            1 for cell in cells
            if cell["decision"]["action"] == ACTION_DOWN),
        "heal_events": sum(1 for cell in cells
                           if cell["kind"] == "heal"),
    }
    counters_ok = (merged.scale_up_events == events["scale_up_events"]
                   and merged.scale_down_events
                   == events["scale_down_events"]
                   and merged.heal_events == events["heal_events"])

    gates = gated.gate_dict(
        convergence=convergence_ok,
        plateau=plateau_ok,
        p99_events=p99_events_ok,
        heal_zero_loss=heal_ok,
        placement_audit=fleet.placement_ok,
        migration_audit=fleet.migration_ok,
        scaling_audit=scaling_finding.passed,
        leak_detector_teeth=negative.leak_detected,
        event_counters_merged=counters_ok,
    )
    return {
        "seed": seed,
        "spec": spec.name,
        "batch_size": config.batch_size,
        "sla_seconds": config.sla_seconds,
        "deadline_seconds": fig13.deadline_seconds,
        "interval_seconds": INTERVAL_SECONDS,
        "ticks": ticks,
        "kill_tick": KILL_TICK,
        "victim": VICTIM,
        "replication": REPLICATION,
        "autoscale_config": autoscale_config.to_dict(),
        "contention": fleet.contention.to_dict(),
        "convergence_floor": CONVERGENCE_FLOOR,
        "convergence_budget_ticks": CONVERGENCE_BUDGET_TICKS,
        "p99_event_ceiling": P99_EVENT_CEILING,
        "first_peak_tick": first_peak,
        "converged_tick": converged_tick,
        "final_nodes": fleet.nodes,
        "final_epoch": control.current.epoch,
        "events": events,
        "plan_audits": fleet.plans.audits,
        "migration_audits": fleet.migration_audits,
        "scaling_audit": scaling_finding.to_dict(),
        "negative_audit": negative.to_dict(),
        "intervals": cells,
        "fleet": merged.to_dict(sla_seconds=config.sla_seconds),
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-interval signals and decisions + the gate verdicts."""
    result = ExperimentResult(
        experiment_id="autoscale",
        title=f"{report['spec']}: self-healing elastic autoscaling "
              f"(seed={report['seed']}, {report['ticks']} ticks x "
              f"{report['interval_seconds']:.2f}s, "
              f"R={report['replication']}, kill@t{report['kill_tick']})",
        headers=("tick", "kind", "offered", "achieved", "util", "nodes",
                 "p99_ms", "shed", "decision"),
    )
    for cell in report["intervals"]:
        signals = cell["signals"]
        decision = cell["decision"]
        verdict = decision["action"]
        if decision["action"] in (ACTION_UP, ACTION_DOWN):
            verdict += (f" {decision['current_nodes']}->"
                        f"{decision['target_nodes']}")
        elif decision["action"] == "blocked":
            verdict += f" ({decision['reason']})"
        result.add_row(cell["tick"],
                       cell["kind"] + (" KILL" if cell["killed"] else ""),
                       f"{signals['offered_rps']:.0f}",
                       f"{signals['achieved_rps']:.0f}",
                       f"{signals['utilisation']:.2f}",
                       signals["current_nodes"],
                       f"{cell['p99_seconds'] * 1e3:.2f}",
                       cell["shed_requests"], verdict)
    events = report["events"]
    result.notes = (
        f"events: up={events['scale_up_events']} "
        f"down={events['scale_down_events']} "
        f"heal={events['heal_events']}; converged@t"
        f"{report['converged_tick']} (peak@t{report['first_peak_tick']}); "
        f"final nodes={report['final_nodes']} "
        f"epoch={report['final_epoch']}; "
        f"gates: {gated.verdicts(report['gates'])}; "
        "scale decisions read secret-free aggregates only — the "
        "decision trace replays byte-identically under contrasting "
        "skews, and the hot-load-chasing anti-pattern is caught")
    return result


BENCH = gated.GatedBench(
    id="autoscale",
    description="Self-healing elastic autoscaling over the plan-epoch "
                "control plane, gated.",
    run=run_autoscale,
    tabulate=tabulate,
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
