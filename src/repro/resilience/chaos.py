"""The chaos harness: the Fig 13 serving sweep replayed under faults.

Runs the paper's Terabyte serving configuration through the resilient
execution path under escalating fault scenarios — a fault-free baseline, a
crash/spike/transient storm, and an ORAM stash-pressure scenario that
drives the obliviousness-preserving degradation ladder — and reports
availability, p99 inflation over the baseline, SLA violations, and every
degradation transition with its leakage-audit verdict.

Everything is derived from one seed: the fault schedule, the Poisson
arrival trace, and therefore the whole report. The emitted JSON contains
only simulated quantities (latencies in simulated seconds, event counts,
deterministic counters — never wall-clock spans), so two runs with the
same seed produce byte-identical artifacts; CI pins that.

CLI::

    python -m repro.resilience.chaos --seed 7 --json chaos.json
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.data import TERABYTE_SPEC, DlrmDatasetSpec
from repro.experiments import ExperimentResult, gated
from repro.experiments.scenario import NUM_REQUESTS, RATE_RPS, Fig13Scenario
from repro.resilience.degradation import DegradationLadder
from repro.resilience.faults import (
    FaultInjector,
    LatencySpikeFault,
    ReplicaCrashFault,
    StashPressureFault,
    TransientErrorFault,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import ResilientServingReport

#: the chaos gates CI enforces
AVAILABILITY_FLOOR = 0.99


def _scenarios(seed: int) -> List[Dict[str, object]]:
    """The escalating fault scenarios, all keyed off one seed."""
    return [
        {
            "name": "baseline",
            "injector": FaultInjector(seed=seed),
            "ladder": None,
        },
        {
            "name": "crash-spike-transient",
            "injector": FaultInjector(
                seed=seed,
                crash=ReplicaCrashFault(probability=0.05,
                                        downtime_seconds=0.040),
                spike=LatencySpikeFault(probability=0.15, multiplier=4.0),
                transient=TransientErrorFault(probability=0.15)),
            "ladder": None,
        },
        {
            "name": "stash-pressure",
            "injector": FaultInjector(
                seed=seed,
                transient=TransientErrorFault(probability=0.02),
                stash=StashPressureFault(probability=0.60)),
            "ladder": DegradationLadder(trigger_after=2, audit_seed=seed),
        },
    ]


def run_chaos(seed: int = 0, spec: DlrmDatasetSpec = TERABYTE_SPEC,
              num_requests: int = NUM_REQUESTS,
              rate_rps: float = RATE_RPS) -> Dict[str, object]:
    """Run every scenario; return the JSON-stable chaos report."""
    fig13 = Fig13Scenario(spec, num_requests, rate_rps)
    config, policy = fig13.config, fig13.policy
    # One arrival trace: the reference and every fault scenario serve it.
    arrivals = fig13.arrivals(seed)

    # Fault-free reference run for p99 inflation.
    baseline_report = fig13.engine().serve(config, arrivals, policy)

    scenario_digests: List[Dict[str, object]] = []
    all_available = True
    all_audits_passed = True
    for scenario in _scenarios(seed):
        injector: FaultInjector = scenario["injector"]
        resilience = ResiliencePolicy(
            injector=injector, retry=fig13.retry,
            num_replicas=3, min_replicas=1,
            ladder=scenario["ladder"])
        report = fig13.engine(resilience=resilience).serve(
            config, arrivals, policy)
        assert isinstance(report, ResilientServingReport)
        digest = report.to_dict(sla_seconds=config.sla_seconds)
        digest["name"] = scenario["name"]
        digest["p99_inflation"] = report.p99_inflation(baseline_report)
        digest["fault_schedule"] = injector.schedule(
            max(1, report.num_batches), resilience.num_replicas,
            attempts=resilience.retry.max_attempts)
        scenario_digests.append(digest)
        if report.availability < AVAILABILITY_FLOOR:
            all_available = False
        if any(not event.audit_passed
               for event in report.degradation_events):
            all_audits_passed = False

    return {
        "seed": seed,
        "spec": spec.name,
        "num_requests": num_requests,
        "rate_rps": rate_rps,
        "batch_size": config.batch_size,
        "sla_seconds": config.sla_seconds,
        "availability_floor": AVAILABILITY_FLOOR,
        "baseline_p99_seconds": baseline_report.p99,
        "scenarios": scenario_digests,
        "gates": gated.gate_dict(availability=all_available,
                                 degradation_audits=all_audits_passed),
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-scenario availability, p99 inflation and audit verdicts."""
    result = ExperimentResult(
        experiment_id="chaos",
        title=f"{report['spec']}: serving under faults "
              f"(seed={report['seed']}, {report['num_requests']} requests @ "
              f"{report['rate_rps']:.0f} rps)",
        headers=("scenario", "availability", "p99_ms", "p99_inflation",
                 "sla_violations", "retries", "shed", "degradations",
                 "audits"),
    )
    for scenario in report["scenarios"]:
        audits = ("ok" if all(event["audit_passed"]
                              for event in scenario["degradations"])
                  else "LEAKY")
        result.add_row(scenario["name"],
                       f"{scenario['availability']:.4f}",
                       f"{scenario['p99_seconds'] * 1e3:.3f}",
                       f"{scenario['p99_inflation']:.2f}x",
                       scenario["sla_violations"],
                       scenario["retries_total"],
                       scenario["shed_requests"],
                       len(scenario["degradations"]),
                       audits)
    result.notes = (f"gates: {gated.verdicts(report['gates'])} "
                    f"(availability floor {report['availability_floor']}); "
                    f"degraded techniques stay inside the oblivious set "
                    f"(never raw lookup)")
    return result


BENCH = gated.GatedBench(
    id="chaos",
    description="Replay the serving sweep under injected faults.",
    run=run_chaos,
    tabulate=tabulate,
    options=(
        gated.Option("--requests", "num_requests", int, NUM_REQUESTS),
        gated.Option("--rate", "rate_rps", float, RATE_RPS),
    ),
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
