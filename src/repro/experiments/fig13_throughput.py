"""Fig 13: latency-vs-throughput under increasing model co-location.

DHE Varied vs Hybrid Varied fleets of Kaggle/Terabyte models; the paper's
headline: at a 20 ms SLA the hybrid lifts latency-bounded throughput by
~1.6x (Kaggle) / ~1.4x (Terabyte) over all-DHE. The bench routes through
the serving :class:`~repro.serving.engine.ExecutionEngine`: the engine
resolves the live allocation (Algorithm 3) and hands replica fleets to its
:class:`~repro.serving.dispatcher.Dispatcher`.
"""

from __future__ import annotations

from repro.data import TERABYTE_SPEC, DlrmDatasetSpec
from repro.experiments.reporting import ExperimentResult, format_ms
from repro.experiments.scenario import BATCH, SLA_SECONDS, Fig13Scenario
from repro.hybrid import allocate_by_threshold, count_scan_features


#: the largest co-located fleet the sweep prices
MAX_COPIES = 28


def run(spec: DlrmDatasetSpec = TERABYTE_SPEC) -> ExperimentResult:
    scenario = Fig13Scenario(spec)
    engine = scenario.engine()
    config = scenario.config

    hybrid_alloc = engine.allocations(config)
    all_dhe_alloc = allocate_by_threshold(spec.table_sizes, 0.0)

    hybrid_dispatcher = engine.dispatcher(config, hybrid_alloc)
    dhe_dispatcher = engine.dispatcher(config, all_dhe_alloc)

    result = ExperimentResult(
        experiment_id="fig13",
        title=f"{spec.name}: co-located latency/throughput "
              f"(batch={BATCH}, SLA={SLA_SECONDS * 1e3:.0f} ms)",
        headers=("copies", "dhe_varied_ms", "dhe_varied_ips",
                 "hybrid_varied_ms", "hybrid_varied_ips"),
    )
    hybrid_sweep = hybrid_dispatcher.sweep(MAX_COPIES)
    dhe_sweep = dhe_dispatcher.sweep(MAX_COPIES)
    for (copies, dhe_lat, dhe_tp), (_, hyb_lat, hyb_tp) in zip(dhe_sweep,
                                                               hybrid_sweep):
        result.add_row(copies, format_ms(dhe_lat), round(dhe_tp),
                       format_ms(hyb_lat), round(hyb_tp))

    dhe_bounded = dhe_dispatcher.sla_bounded_throughput(SLA_SECONDS,
                                                        MAX_COPIES)
    hybrid_bounded = hybrid_dispatcher.sla_bounded_throughput(SLA_SECONDS,
                                                              MAX_COPIES)
    gain = hybrid_bounded / dhe_bounded if dhe_bounded else float("inf")
    result.notes = (f"SLA-bounded throughput: DHE {dhe_bounded:.0f} ips, "
                    f"Hybrid {hybrid_bounded:.0f} ips ({gain:.2f}x; paper "
                    f"1.4x Terabyte / 1.6x Kaggle); "
                    f"{count_scan_features(hybrid_alloc)}/{spec.num_sparse} "
                    f"features on scan")
    return result
