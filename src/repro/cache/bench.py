"""``python -m repro.cache.bench`` — the gated oblivious-caching sim.

Serves the Fig 13 Terabyte workload through the
:class:`~repro.serving.engine.ExecutionEngine` for ``EPOCHS`` plan epochs,
each epoch executing the same Poisson arrival trace twice (a primary serve
plus a hedged mirror — the double-serve pattern the migration engine
already uses), under four scenarios: no cache, static whole-table
residency, DHE decoder-weight reuse (cold-per-epoch vs shared-across-
epochs), and batch-level result sharing. Five gates with teeth:

* **latency_improvement** — static residency beats the uncached baseline
  on merged p50 *and* p99, and batch-result sharing beats it on p50 (its
  mirror serves hit; the primary misses bound the tail);
* **decoder_reuse** — sharing one decoder-weight cache across epochs
  admits each decoder exactly once (cold re-materialises per epoch) and
  spends strictly less busy time;
* **skew_invariance** — every policy's full counter set (hits, misses,
  admissions, evictions, bytes resident) is identical across the
  hot-head / hot-tail / uniform index profiles: occupancy never follows
  the secret;
* **audit_oblivious** — all three policies pass the exact-mode
  :class:`~repro.telemetry.audit.LeakageAuditor` replay of
  :mod:`repro.cache.audit`;
* **leak_detector_teeth** — the in-tree
  :class:`~repro.cache.policy.IndexKeyedLRUCache` negative control is
  flagged, and :meth:`~repro.telemetry.audit.LeakageAuditor.require`
  raises :class:`~repro.telemetry.audit.LeakageError` on its
  :func:`~repro.cache.audit.cache_subject`.

The latency win is index-independent by construction — the same numbers
hold on every skew profile, which is the whole point: skewed production
traffic gets the cache win *without* the cache learning the skew.

The JSON report contains only modelled, seed-determined quantities — two
runs with the same seed produce byte-identical files (CI ``cmp``-gates
this); wall-clock questions belong to ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.audit import (
    AUDIT_NUM_ROWS,
    AUDIT_SECRET_LENGTH,
    cache_subject,
    replay_cache,
)
from repro.cache.policy import (
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    SecretIndependentCache,
    StaticResidencyCache,
)
from repro.data import TERABYTE_SPEC, DlrmDatasetSpec
from repro.experiments import ExperimentResult, gated
from repro.experiments.scenario import (
    NUM_REQUESTS,
    RATE_RPS,
    SKEW_NAMES,
    Fig13Scenario,
)
from repro.oblivious.trace import MemoryTracer
from repro.serving.engine import ExecutionEngine
from repro.serving.report import ServingReport
from repro.telemetry.audit import (
    LeakageAuditor,
    LeakageError,
    contrasting_secrets,
)

EPOCHS = 3
#: pin budget of the static-residency scenario
BUDGET_BYTES = 64 * 1024 * 1024
#: arrival-epoch length of the batch-shared scenario
EPOCH_SECONDS = 0.05
#: capacity of the negative-control index LRU (rows)
LRU_CAPACITY_ROWS = 256


def _summary(name: str, reports: Sequence[ServingReport],
             cache: Optional[SecretIndependentCache] = None
             ) -> Dict[str, object]:
    merged = ServingReport.merge(list(reports))
    summary: Dict[str, object] = {
        "name": name,
        "num_requests": merged.num_requests,
        "num_batches": merged.num_batches,
        "p50_seconds": merged.p50,
        "p95_seconds": merged.p95,
        "p99_seconds": merged.p99,
        "busy_seconds": merged.batch_time_total,
        "throughput_rps": merged.throughput(),
        "cache_hits": merged.cache_hits,
        "cache_misses": merged.cache_misses,
        "cache_hit_rate": merged.cache_hit_rate,
    }
    if cache is not None:
        summary["cache"] = cache.stats.to_dict()
    return summary


def run_bench(seed: int = 0, spec: DlrmDatasetSpec = TERABYTE_SPEC,
              num_requests: int = NUM_REQUESTS,
              rate_rps: float = RATE_RPS) -> Dict[str, object]:
    """The full scenario sweep + gates; deterministic for a given seed."""
    fig13 = Fig13Scenario(spec, num_requests, rate_rps)
    engine = fig13.engine
    # One arrival trace for every scenario and epoch: scenarios differ
    # only in admission policy, epochs model successive plan epochs that
    # replay comparable traffic.
    arrivals = fig13.arrivals(seed)

    def serve(server: ExecutionEngine,
              times: int = 2) -> List[ServingReport]:
        """``times`` serves of the trace (a primary + mirror by default)."""
        return [server.serve(fig13.config, arrivals, fig13.policy)
                for _ in range(times)]

    # --- no-cache baseline ---------------------------------------------
    base_reports = serve(engine(), 2 * EPOCHS)

    # --- static whole-table residency ----------------------------------
    residency = StaticResidencyCache(BUDGET_BYTES)
    residency_engine = engine(cache=residency)
    residency_reports = serve(residency_engine, 2 * EPOCHS)

    # --- decoder-weight reuse: cold per epoch vs shared across epochs ---
    cold_reports: List[ServingReport] = []
    cold_admissions = 0
    for _ in range(EPOCHS):
        cold_cache = DecoderWeightCache()
        cold_reports += serve(engine(cache=cold_cache))
        cold_admissions += cold_cache.stats.admissions
    shared_cache = DecoderWeightCache()
    shared_reports: List[ServingReport] = []
    for _ in range(EPOCHS):
        # a fresh engine per epoch, one cache across them
        shared_reports += serve(engine(cache=shared_cache))

    # --- batch-level result sharing (primary + hedged mirror) -----------
    batch_cache = BatchResultCache(epoch_seconds=EPOCH_SECONDS,
                                   keep_generations=1)
    batch_engine = engine(cache=batch_cache)
    batch_reports: List[ServingReport] = []
    for _ in range(EPOCHS):
        batch_reports += serve(batch_engine)
        batch_cache.advance_generation()

    scenarios = [
        _summary("baseline", base_reports),
        _summary("static-residency", residency_reports, residency),
        _summary("decoder-reuse-cold", cold_reports),
        _summary("decoder-reuse-shared", shared_reports, shared_cache),
        _summary("batch-shared", batch_reports, batch_cache),
    ]
    by_name = {scenario["name"]: scenario for scenario in scenarios}

    # --- gate: latency improvement --------------------------------------
    base = by_name["baseline"]
    latency_ok = (
        by_name["static-residency"]["p50_seconds"] < base["p50_seconds"]
        and by_name["static-residency"]["p99_seconds"] < base["p99_seconds"]
        and by_name["batch-shared"]["p50_seconds"] < base["p50_seconds"])

    # --- gate: decoder reuse (counted builds, not wall-clock) ------------
    _, num_dhe = residency_engine.allocation_counts(fig13.config)
    shared_stats = shared_cache.stats
    decoder_ok = (shared_stats.admissions == num_dhe
                  and cold_admissions == num_dhe * EPOCHS
                  and shared_stats.hits > 0
                  and by_name["decoder-reuse-shared"]["busy_seconds"]
                  < by_name["decoder-reuse-cold"]["busy_seconds"])

    # --- gate: skew invariance (full counter set, per policy) ------------
    factories: Dict[str, Callable[[Optional[MemoryTracer]],
                                  SecretIndependentCache]] = {
        "static-residency": lambda t: StaticResidencyCache(BUDGET_BYTES,
                                                           tracer=t),
        "decoder-reuse": lambda t: DecoderWeightCache(tracer=t),
        "batch-shared": lambda t: BatchResultCache(
            epoch_seconds=EPOCH_SECONDS, tracer=t),
    }
    workloads = contrasting_secrets(AUDIT_NUM_ROWS, AUDIT_SECRET_LENGTH)
    skew_stats: Dict[str, List[Dict[str, object]]] = {}
    for name, factory in factories.items():
        per_skew = []
        for workload in workloads:
            probe = factory(None)
            replay_cache(probe, workload)
            per_skew.append(probe.stats.to_dict())
        skew_stats[name] = per_skew
    skew_ok = all(
        all(stats == per_skew[0] for stats in per_skew[1:])
        for per_skew in skew_stats.values())

    # --- gates: leakage audit + detector teeth ---------------------------
    auditor = LeakageAuditor()
    audit_report = auditor.run(
        [cache_subject(factory, workloads, name=name)
         for name, factory in factories.items()]
        + [cache_subject(
            lambda t: IndexKeyedLRUCache(LRU_CAPACITY_ROWS, tracer=t),
            workloads, name="index-keyed-lru", expect_oblivious=False)])
    audit_ok = all(audit_report.finding(name).passed for name in factories)
    lru_flagged = audit_report.finding("index-keyed-lru").leak_detected
    try:
        auditor.require(cache_subject(
            lambda t: IndexKeyedLRUCache(LRU_CAPACITY_ROWS, tracer=t),
            workloads, name="index-keyed-lru"))
        lru_raised = False
    except LeakageError:
        lru_raised = True
    teeth_ok = lru_flagged and lru_raised

    gates = gated.gate_dict(
        latency_improvement=latency_ok,
        decoder_reuse=decoder_ok,
        skew_invariance=skew_ok,
        audit_oblivious=audit_ok,
        leak_detector_teeth=teeth_ok,
    )

    return {
        "seed": seed,
        "spec": spec.name,
        "num_requests": num_requests,
        "rate_rps": rate_rps,
        "batch_size": fig13.config.batch_size,
        "epochs": EPOCHS,
        "budget_bytes": BUDGET_BYTES,
        "epoch_seconds": EPOCH_SECONDS,
        "lru_capacity_rows": LRU_CAPACITY_ROWS,
        "skews": list(SKEW_NAMES),
        "dhe_features": num_dhe,
        "decoder_admissions_cold": cold_admissions,
        "decoder_admissions_shared": shared_stats.admissions,
        "scenarios": scenarios,
        "skew_stats": skew_stats,
        "audit": audit_report.to_dict(),
        "gates": gates,
    }


def tabulate(report: Dict[str, object]) -> ExperimentResult:
    """Per-scenario latency percentiles, busy time and hit rates."""
    result = ExperimentResult(
        experiment_id="cache",
        title=f"oblivious-safe caching (seed={report['seed']}, "
              f"spec={report['spec']}, {report['num_requests']} requests x "
              f"{report['epochs']} epochs x 2 serves @ "
              f"{report['rate_rps']:.0f} rps)",
        headers=("scenario", "p50_ms", "p99_ms", "busy_s", "hits", "misses",
                 "hit_rate"),
    )
    for scenario in report["scenarios"]:
        cached = scenario["cache_hits"] is not None
        result.add_row(
            scenario["name"],
            f"{scenario['p50_seconds'] * 1e3:.3f}",
            f"{scenario['p99_seconds'] * 1e3:.3f}",
            f"{scenario['busy_seconds']:.3f}",
            scenario["cache_hits"] if cached else "-",
            scenario["cache_misses"] if cached else "-",
            f"{scenario['cache_hit_rate']:.3f}" if cached else "-")
    result.notes = (
        f"decoder admissions shared={report['decoder_admissions_shared']} "
        f"vs cold={report['decoder_admissions_cold']} "
        f"({report['dhe_features']} DHE features); "
        f"gates: {gated.verdicts(report['gates'])}; "
        "every cache counter is identical across hot-head/hot-tail/"
        "uniform index profiles and the index-keyed LRU negative control "
        "is caught by the exact-mode audit")
    return result


BENCH = gated.GatedBench(
    id="cache",
    description="Oblivious-safe caching sweep: latency win, skew "
                "invariance, and leakage gates.",
    run=run_bench,
    tabulate=tabulate,
)

main = functools.partial(gated.main, BENCH)


if __name__ == "__main__":
    raise SystemExit(main())
