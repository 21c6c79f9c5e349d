"""The experiment registry: every paper table/figure, runnable by id."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import repro.cache.bench
import repro.cluster.autoscale.sim
import repro.cluster.migrate
import repro.cluster.sim
import repro.lazy.bench
import repro.llm.bench
import repro.resilience.chaos
import repro.training.bench
from repro.experiments import (
    fig02_taxonomy,
    fig03_attack,
    fig04_dlrm_latency,
    fig05_llm_latency,
    fig06_thresholds,
    fig07_table_allocation,
    fig08_colocation,
    fig09_allocation_sweep,
    fig10_zerotrace,
    fig11_threshold_sweep,
    fig12_batch_scaling,
    fig13_throughput,
    fig14_llm_finetune,
    fig15_llm_e2e,
    llm_footprint,
    table01_complexity,
    table02_security,
    table05_accuracy,
    table06_footprint,
    table07_e2e_latency,
    table08_meta,
)
from repro.experiments.gated import GatedBench, failed_gates
from repro.experiments.reporting import ExperimentResult

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig02_taxonomy.run,
    "fig3": fig03_attack.run,
    "fig4": fig04_dlrm_latency.run,
    "fig5": fig05_llm_latency.run,
    "fig6": fig06_thresholds.run,
    "fig7": fig07_table_allocation.run,
    "fig8": fig08_colocation.run,
    "fig9": fig09_allocation_sweep.run,
    "fig10": fig10_zerotrace.run,
    "fig11": fig11_threshold_sweep.run,
    "fig12": fig12_batch_scaling.run,
    "fig13": fig13_throughput.run,
    "fig14": fig14_llm_finetune.run,
    "fig15": fig15_llm_e2e.run,
    "table1": table01_complexity.run,
    "table2": table02_security.run,
    "table5": table05_accuracy.run,
    "table6": table06_footprint.run,
    "table7": table07_e2e_latency.run,
    "table8": table08_meta.run,
    "llm-footprint": llm_footprint.run,
}

#: the gated sims (not paper figures): each module declares one ``BENCH``
#: record; its registry entry, CLI and exit code all derive from it
BENCHES: Tuple[GatedBench, ...] = (
    repro.cache.bench.BENCH,
    repro.resilience.chaos.BENCH,
    repro.cluster.sim.BENCH,
    repro.lazy.bench.BENCH,
    repro.cluster.migrate.BENCH,
    repro.cluster.autoscale.sim.BENCH,
    repro.training.bench.BENCH,
    repro.llm.bench.BENCH,
)
EXPERIMENTS.update({bench.id: bench.experiment for bench in BENCHES})


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id (tagged in the telemetry stream)."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}")
    from repro.telemetry.runtime import get_registry

    registry = get_registry()
    with registry.span("experiment.run", experiment=experiment_id):
        result = EXPERIMENTS[experiment_id](**kwargs)
    registry.counter("experiments.runs_total").inc()
    registry.counter(f"experiments.{experiment_id}.runs_total").inc()
    return result


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def main(argv=None) -> int:
    """CLI: ``python -m repro.experiments.registry [id ...] [--json PATH]``.

    ``--json`` dumps every result plus the run's telemetry snapshot — the
    CI smoke job archives this file as a workflow artifact. Exits 1 if any
    gated bench it ran failed a gate.
    """
    import argparse

    from repro.telemetry.export import write_json
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.runtime import set_registry

    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--json", metavar="PATH",
                        help="dump results + telemetry snapshot as JSON")
    args = parser.parse_args(argv)
    ids = args.ids or list_experiments()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    status = 0
    try:
        results = []
        for experiment_id in ids:
            result = run_experiment(experiment_id)
            print(result.render())
            if result.gates is not None and not result.gates["passed"]:
                print(f"{experiment_id}: FAILED gate(s): "
                      f"{', '.join(failed_gates(result.gates))}")
                status = 1
            print()
            results.append(result.to_dict())
        if args.json:
            write_json(registry, args.json,
                       extra={"results": results})
    finally:
        set_registry(previous)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
