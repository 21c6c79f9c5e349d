"""The migration simulator: node add/remove × replication × step size, gated.

Replays the Fig 13 Terabyte serving workload while the fleet reshapes
under it — the plan-epoch control plane issues a successor epoch and the
:class:`~repro.cluster.migration.MigrationEngine` walks the move-set in
bounded steps against live traffic. The gates are the live-migration
counterpart of ``repro.cluster.sim``'s:

* **per-epoch placement audit** — every epoch's planner passes
  :meth:`~repro.telemetry.audit.LeakageAuditor.require` on its
  :func:`~repro.cluster.placement.placement_subject` before its plan may
  serve;
* **migration audit** — every intermediate assignment (pending /
  in-flight / moved per step) replays identically under contrasting
  workloads (``require`` on the
  :func:`~repro.cluster.migration.migration_subject`), and the
  :class:`~repro.cluster.migration.HotFirstMigrationPlanner`
  negative control must be *caught*;
* **zero loss at R >= 2** — no request drops during or after the
  transition (double-serve covers every in-flight table), including with
  one node killed for the whole migration;
* **p99 inflation** — migration-window p99 <= ``P99_INFLATION_CEILING`` x
  the steady-state p99 (double-serve is bounded extra load, not a stall);
* **incrementality** — the move-set stays within
  ``ceil(tables x R / nodes) + MOVE_SLACK`` (the consistent-hash ring's
  promise that a one-node reshard moves ~1/N of the copies).

Everything derives from one seed; two runs emit byte-identical JSON and
CI pins that with ``cmp``.

CLI::

    python -m repro.cluster.migrate --seed 7 --nodes-before 4 \
        --nodes-after 5 --step-size 2 --json migrate.json
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Sequence

from repro.cluster.epoch import EpochControlPlane, PlanEpoch
from repro.cluster.migration import (
    HotFirstMigrationPlanner,
    MigrationEngine,
    migration_subject,
)
from repro.cluster.placement import PlanBook, RingPlanner
from repro.data import TERABYTE_SPEC, DlrmDatasetSpec
from repro.experiments import ExperimentResult, gated
from repro.experiments.scenario import FOREVER_SECONDS, RATE_RPS, Fig13Scenario
from repro.resilience.dispatch import ResilientDispatcher
from repro.telemetry.audit import LeakageAuditor

#: the migration gates CI enforces (ISSUE 5 acceptance criteria)
P99_INFLATION_CEILING = 2.0    # window p99 vs steady state
MOVE_SLACK = 3                 # tables beyond ceil(tables*R/nodes)

NUM_REQUESTS = 384
NODES_BEFORE = 4
NODES_AFTER = 5
REPLICATIONS = (1, 2)
STEP_SIZES = (2, 4)


def move_bound(num_tables: int, replication: int, num_nodes: int) -> int:
    """The incrementality ceiling: ring reshards move ~R/N of the tables."""
    return math.ceil(num_tables * replication / num_nodes) + MOVE_SLACK


def _cell(fig13: Fig13Scenario, arrivals, plans,
          direction: str, src_nodes: int, dst_nodes: int,
          replication: int, step_size: int,
          steady_cache: Dict) -> Dict[str, object]:
    """Run one (direction, R, step size) migration cell end to end."""
    config, policy = fig13.config, fig13.policy
    key = (direction, replication)
    if key not in steady_cache:
        source = PlanEpoch.create(0, plans[src_nodes],
                                  replication=replication)
        control = EpochControlPlane(source)
        target = control.advance(plans[dst_nodes])
        engine = fig13.scatter(source.router)
        steady = engine.serve(config, arrivals, policy)
        steady_cache[key] = (source, target, engine, steady)
    source, target, engine, steady = steady_cache[key]

    migrator = MigrationEngine(source, target, step_size=step_size)
    finding = LeakageAuditor().require(migration_subject(migrator))
    report = migrator.execute(engine, config, arrivals, policy)
    after = engine.serve(config, arrivals, policy,
                         owner_map=migrator.final_owner_map())

    inflation = (report.window_p99 / steady.p99 if steady.p99 > 0 else 0.0)
    bound = move_bound(len(fig13.spec.table_sizes), replication,
                       max(src_nodes, dst_nodes))
    zero_loss = (report.shed_requests == 0 and report.unroutable_events == 0
                 and after.shed_requests == 0)
    cell = report.to_dict()
    cell.pop("moves")   # per-move detail lives in the steps already
    cell.update({
        "direction": direction,
        "nodes_before": src_nodes,
        "nodes_after": dst_nodes,
        "audit_divergence": finding.divergence,
        "audit_passed": finding.passed,
        "steady_p99_seconds": steady.p99,
        "after_p99_seconds": after.p99,
        "after_shed_requests": after.shed_requests,
        "p99_inflation": inflation,
        "p99_inflation_ok": inflation <= P99_INFLATION_CEILING,
        "move_bound": bound,
        "incremental": report.tables_moved <= bound,
        "zero_loss": zero_loss,
    })
    return cell


def run_migration(seed: int = 0, spec: DlrmDatasetSpec = TERABYTE_SPEC,
                  num_requests: int = NUM_REQUESTS,
                  rate_rps: float = RATE_RPS,
                  nodes_before: int = NODES_BEFORE,
                  nodes_after: int = NODES_AFTER,
                  replications: Sequence[int] = REPLICATIONS,
                  step_sizes: Sequence[int] = STEP_SIZES
                  ) -> Dict[str, object]:
    """Run the full migration sweep; return the JSON-stable report.

    A replication above the smaller fleet is skipped; at least one of
    ``replications`` must fit ``min(nodes_before, nodes_after)``.
    """
    if nodes_before == nodes_after:
        raise ValueError("a migration needs nodes_before != nodes_after")
    replications = tuple(sorted(set(replications)))
    step_sizes = tuple(sorted(set(step_sizes)))
    # The replications the sweep runs: every cell places R copies on both
    # fleets, so R cannot exceed the smaller one.
    swept = [r for r in replications if r <= min(nodes_before, nodes_after)]
    if not swept:
        raise ValueError(
            f"no replication in {list(replications)} fits the smaller "
            f"fleet of {min(nodes_before, nodes_after)} node(s)")
    fig13 = Fig13Scenario(spec, num_requests, rate_rps)
    config, policy = fig13.config, fig13.policy
    dim = spec.embedding_dim
    sizes = spec.table_sizes
    uniform, thresholds = fig13.model
    arrivals = fig13.arrivals(seed)

    # ------------------------------------------------------------------
    # Per-epoch placement audit: every plan that any epoch will serve
    # passes the exact-mode leakage gate first.
    node_counts = sorted({nodes_before, nodes_after})
    book = PlanBook(RingPlanner(node_counts[0], thresholds, dim, uniform),
                    sizes, config)
    plans = {nodes: book.plan_for(nodes) for nodes in node_counts}

    # ------------------------------------------------------------------
    # The sweep: add and remove directions x replication x step size.
    directions = [("add", nodes_before, nodes_after),
                  ("remove", nodes_after, nodes_before)]
    cells: List[Dict[str, object]] = []
    steady_cache: Dict = {}
    migration_audit_ok = True
    zero_loss_ok = True
    p99_ok = True
    incremental_ok = True
    for direction, src_nodes, dst_nodes in directions:
        for replication in swept:
            for step_size in step_sizes:
                cell = _cell(fig13, arrivals, plans, direction,
                             src_nodes, dst_nodes, replication, step_size,
                             steady_cache)
                cells.append(cell)
                migration_audit_ok = migration_audit_ok and cell["audit_passed"]
                p99_ok = p99_ok and cell["p99_inflation_ok"]
                incremental_ok = incremental_ok and cell["incremental"]
                if replication >= 2:
                    zero_loss_ok = zero_loss_ok and cell["zero_loss"]

    # ------------------------------------------------------------------
    # Gate: kill one node for the entire migration at R=2 — double-serve
    # plus replica failover must still lose nothing, with breaker state
    # carried across the epoch change by the shared dispatcher.
    failover: Dict[str, object] = {"applicable": False}
    failover_ok = True
    if 2 in swept:
        source = PlanEpoch.create(0, plans[nodes_before], replication=2)
        dispatcher = ResilientDispatcher(
            num_replicas=max(nodes_before, nodes_after))
        control = EpochControlPlane(source, dispatcher=dispatcher)
        target = control.advance(plans[nodes_after])
        victim = 0
        dispatcher.mark_down(victim, until_seconds=FOREVER_SECONDS,
                             now_seconds=0.0)
        engine = fig13.scatter(source.router, dispatcher=dispatcher)
        migrator = MigrationEngine(source, target, step_size=step_sizes[0])
        killed = migrator.execute(engine, config, arrivals, policy)
        failover_ok = (killed.shed_requests == 0
                       and killed.unroutable_events == 0)
        failover = {
            "applicable": True,
            "nodes_before": nodes_before,
            "nodes_after": nodes_after,
            "replication": 2,
            "step_size": step_sizes[0],
            "victim": victim,
            "shed_requests": killed.shed_requests,
            "unroutable_events": killed.unroutable_events,
            "availability": killed.availability,
            "window_p99_seconds": killed.window_p99,
            "zero_loss": failover_ok,
        }

    # ------------------------------------------------------------------
    # Gate with teeth: the hot-first anti-pattern must be *caught*.
    source = PlanEpoch.create(0, plans[nodes_before], replication=swept[-1])
    target = source.successor(plans[nodes_after])
    hot = MigrationEngine(source, target, step_size=1,
                          planner=HotFirstMigrationPlanner())
    negative = LeakageAuditor().audit(migration_subject(
        hot, name="hot-first-migration", expect_oblivious=False))
    negative_ok = negative.leak_detected

    gates = gated.gate_dict(
        per_epoch_placement_audit=book.passed,
        migration_audit=migration_audit_ok,
        zero_loss_r2=zero_loss_ok,
        p99_inflation=p99_ok,
        incrementality=incremental_ok,
        failover_zero_loss=failover_ok,
        leak_detector_teeth=negative_ok,
    )
    return {
        "seed": seed,
        "spec": spec.name,
        "num_requests": num_requests,
        "rate_rps": rate_rps,
        "batch_size": config.batch_size,
        "sla_seconds": config.sla_seconds,
        "deadline_seconds": fig13.deadline_seconds,
        "nodes_before": nodes_before,
        "nodes_after": nodes_after,
        "replications": list(replications),
        "step_sizes": list(step_sizes),
        "p99_inflation_ceiling": P99_INFLATION_CEILING,
        "move_slack": MOVE_SLACK,
        "epoch_audits": book.audits,
        "cells": cells,
        "failover": failover,
        "negative_audit": negative.to_dict(),
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-cell move-set size and window p99 + the gate verdicts."""
    result = ExperimentResult(
        experiment_id="migrate",
        title=f"{report['spec']}: live plan-epoch migration "
              f"(seed={report['seed']}, {report['num_requests']} requests @ "
              f"{report['rate_rps']:.0f} rps, "
              f"{report['nodes_before']}<->{report['nodes_after']} nodes)",
        headers=("direction", "nodes", "R", "step", "moved", "bound",
                 "steps", "shed", "window_p99_ms", "inflation"),
    )
    for cell in report["cells"]:
        result.add_row(cell["direction"],
                       f"{cell['nodes_before']}->{cell['nodes_after']}",
                       cell["replication"], cell["step_size"],
                       cell["tables_moved"], cell["move_bound"],
                       cell["num_steps"], cell["shed_requests"],
                       f"{cell['window_p99_seconds'] * 1e3:.3f}",
                       f"{cell['p99_inflation']:.2f}x")
    failover = report["failover"]
    failover_note = (
        f"killed node {failover['victim']} during the "
        f"{failover['nodes_before']}->{failover['nodes_after']} R=2 "
        f"migration: shed={failover['shed_requests']} "
        f"{'ZERO LOSS' if failover['zero_loss'] else 'LOSSY'}"
        if failover["applicable"] else "not applicable")
    result.notes = (
        f"failover: {failover_note}; "
        f"gates: {gated.verdicts(report['gates'])}; "
        "move order is keyed on static table ids only — every "
        "intermediate assignment replays identically under contrasting "
        "workloads, and the hot-first anti-pattern is caught")
    return result


BENCH = gated.GatedBench(
    id="migrate",
    description="Migrate embedding tables between plan epochs against "
                "live traffic, gated.",
    run=run_migration,
    tabulate=tabulate,
    options=(
        gated.Option("--requests", "num_requests", int, NUM_REQUESTS),
        gated.Option("--rate", "rate_rps", float, RATE_RPS),
        gated.Option("--nodes-before", "nodes_before", int, NODES_BEFORE,
                     "fleet size of the source epoch"),
        gated.Option("--nodes-after", "nodes_after", int, NODES_AFTER,
                     "fleet size of the target epoch"),
        gated.Option("--step-size", "step_sizes",
                     lambda text: (int(text),), STEP_SIZES,
                     "tables moved per step (default: sweep "
                     f"{STEP_SIZES})"),
    ),
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
