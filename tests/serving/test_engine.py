"""ExecutionEngine: seed-parity regression, open-system queueing, search."""

import math

import numpy as np
import pytest

from repro.cache import (
    BatchResultCache,
    DecoderWeightCache,
    StaticResidencyCache,
)
from repro.costmodel.colocation import replicated_latencies
from repro.costmodel.latency import (
    DLRM_DHE_UNIFORM_64,
    MLP_OVERHEAD_SECONDS,
    dhe_latency,
    dhe_varied_shape,
    linear_scan_latency,
)
from repro.data import TERABYTE_SPEC
from repro.hybrid import (
    OfflineProfiler,
    allocate_by_threshold,
    build_threshold_database,
    dlrm_tenant,
)
from repro.resilience import ResiliencePolicy
from repro.serving import (
    BatchingPolicy,
    DynamicBatcher,
    ExecutionEngine,
    RequestQueue,
    ServingConfig,
    batch_boundary_arrivals,
    poisson_arrivals,
)

BATCHES = (1, 32, 128)
THREADS = (1, 8)
DIM = 64


@pytest.fixture(scope="module")
def thresholds():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    profile = profiler.profile(techniques=("scan", "dhe-varied"),
                               dims=(DIM,), batches=BATCHES,
                               threads_list=THREADS)
    return build_threshold_database(profile, dhe_technique="dhe-varied",
                                    dims=(DIM,), batches=BATCHES,
                                    threads_list=THREADS)


@pytest.fixture(scope="module")
def engine(thresholds):
    return ExecutionEngine(TERABYTE_SPEC.table_sizes, DIM,
                           DLRM_DHE_UNIFORM_64, thresholds)


def seed_serve_expectation(thresholds, config, num_requests):
    """The retired simulator's serve() numbers, recomputed its way:
    a hand-rolled per-table loop seeded with the MLP overhead, then
    ``latencies = np.full(n, per_batch)`` and ``batches * per_batch``."""
    threshold = thresholds.threshold(DIM, config.batch_size, config.threads)
    total = MLP_OVERHEAD_SECONDS
    for size in TERABYTE_SPEC.table_sizes:
        if size <= threshold:
            total += linear_scan_latency(size, DIM, config.batch_size,
                                         config.threads)
        else:
            total += dhe_latency(dhe_varied_shape(size, DLRM_DHE_UNIFORM_64),
                                 config.batch_size, config.threads)
    batches = (num_requests + config.batch_size - 1) // config.batch_size
    return np.full(num_requests, total), batches, batches * total


class TestSeedParity:
    """serve_closed must reproduce the seed serve() output bit-for-bit."""

    @pytest.mark.parametrize("batch,threads,num_requests",
                             [(1, 1, 10), (32, 1, 100), (32, 8, 257),
                              (128, 1, 1024)])
    def test_bit_for_bit(self, engine, thresholds, batch, threads,
                         num_requests):
        config = ServingConfig(batch_size=batch, threads=threads)
        report = engine.serve_closed(num_requests, config)
        latencies, batches, busy = seed_serve_expectation(
            thresholds, config, num_requests)
        assert np.array_equal(report.latencies, latencies)  # exact floats
        assert report.num_batches == batches
        assert report.batch_time_total == busy
        assert report.throughput() == num_requests / busy

    def test_queue_delays_identically_zero(self, engine):
        report = engine.serve_closed(100, ServingConfig(batch_size=32))
        assert np.all(report.queue_delays == 0.0)

    def test_telemetry_on_or_off_never_perturbs_output(self, engine):
        from repro.telemetry.runtime import NULL_REGISTRY, use_registry

        config = ServingConfig(batch_size=32, threads=1)
        with use_registry(NULL_REGISTRY):
            disabled = engine.serve_closed(100, config)
        with use_registry() as registry:
            enabled = engine.serve_closed(100, config)
        assert np.array_equal(disabled.latencies, enabled.latencies)
        assert disabled.throughput() == enabled.throughput()
        assert registry.counter("serving.requests_total").value == 100.0

    @pytest.mark.parametrize("batch,threads,num_requests",
                             [(1, 1, 10), (32, 1, 100), (128, 1, 1024)])
    def test_resilience_wrapped_path_is_bit_for_bit(self, engine,
                                                    thresholds, batch,
                                                    threads, num_requests):
        """With faults disabled, the resilient executor must not perturb a
        single bit of the plain engine's per-request arrays."""
        from repro.resilience import FaultInjector, ResiliencePolicy

        wrapped = ExecutionEngine(
            TERABYTE_SPEC.table_sizes, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            resilience=ResiliencePolicy(injector=FaultInjector(seed=0)))
        config = ServingConfig(batch_size=batch, threads=threads)
        plain = engine.serve_closed(num_requests, config)
        resilient = wrapped.serve_closed(num_requests, config)
        assert np.array_equal(plain.queue_delays, resilient.queue_delays)
        assert np.array_equal(plain.service_latencies,
                              resilient.service_latencies)
        assert np.array_equal(plain.latencies, resilient.latencies)
        assert plain.batch_time_total == resilient.batch_time_total
        assert resilient.shed_requests == 0
        assert resilient.retries_total == 0

    def test_resilience_wrapped_poisson_is_bit_for_bit(self, engine,
                                                       thresholds):
        from repro.resilience import FaultInjector, ResiliencePolicy

        wrapped = ExecutionEngine(
            TERABYTE_SPEC.table_sizes, DIM, DLRM_DHE_UNIFORM_64, thresholds,
            resilience=ResiliencePolicy(injector=FaultInjector(seed=0)))
        config = ServingConfig(batch_size=32, threads=1)
        policy = BatchingPolicy(max_batch_size=32, max_wait_seconds=0.002)
        plain = engine.serve(config, RequestQueue.poisson(512, 2000.0, rng=5),
                             policy)
        resilient = wrapped.serve(
            config, RequestQueue.poisson(512, 2000.0, rng=5), policy)
        assert np.array_equal(plain.queue_delays, resilient.queue_delays)
        assert np.array_equal(plain.service_latencies,
                              resilient.service_latencies)


class TestOpenSystem:
    def test_poisson_with_timeout_spreads_percentiles(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        service = engine.batch_latency(config)
        # Offer ~80% of the replica's saturation rate so queues form and
        # drain; the wait timeout admits partial batches.
        rate = 0.8 * config.batch_size / service
        report = engine.serve(
            config, RequestQueue.poisson(512, rate, rng=0),
            BatchingPolicy(config.batch_size, max_wait_seconds=service / 2))
        assert report.p95 > report.p50
        assert report.mean_queue_delay > 0.0
        assert report.num_batches >= 512 // config.batch_size

    def test_overload_builds_queue(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        service = engine.batch_latency(config)
        # 4x saturation: later requests should wait much longer.
        report = engine.serve(
            config, RequestQueue.poisson(256, 4 * 32 / service, rng=1))
        delays = report.queue_delays
        assert delays[-32:].mean() > delays[:32].mean()


class TestBestConfiguration:
    def test_highest_throughput_wins(self, engine):
        candidates = [ServingConfig(batch_size=b, threads=1,
                                    sla_seconds=0.250)
                      for b in BATCHES]
        config, report = engine.best_configuration(candidates,
                                                   num_requests=64)
        throughputs = {c.batch_size:
                       engine.serve_closed(64, c).throughput()
                       for c in candidates}
        assert throughputs[config.batch_size] == max(throughputs.values())

    def test_equal_throughput_keeps_first(self, engine):
        first = ServingConfig(batch_size=32, threads=1, sla_seconds=0.250)
        duplicate = ServingConfig(batch_size=32, threads=1,
                                  sla_seconds=0.250)
        config, _ = engine.best_configuration([first, duplicate],
                                              num_requests=64)
        assert config is first

    def test_raises_when_no_sla_met(self, engine):
        with pytest.raises(RuntimeError, match="meets its SLA"):
            engine.best_configuration(
                [ServingConfig(batch_size=128, sla_seconds=1e-6)],
                num_requests=64)

    def test_empty_candidates(self, engine):
        with pytest.raises(ValueError):
            engine.best_configuration([])


class TestDispatcherIntegration:
    def test_sweep_matches_colocation_planner(self, engine, thresholds):
        config = ServingConfig(batch_size=32, threads=1)
        allocations = engine.allocations(config)
        dispatcher = engine.dispatcher(config)
        tenant = dlrm_tenant(TERABYTE_SPEC.table_sizes, DIM, allocations,
                             DLRM_DHE_UNIFORM_64, config.batch_size,
                             varied=True)
        assert dispatcher.demand == tenant.demand
        expected = []
        for copies in range(1, 7):
            latencies = replicated_latencies(tenant.demand, copies)
            expected.append((copies, max(latencies),
                             sum(config.batch_size / latency
                                 for latency in latencies)))
        assert dispatcher.sweep(6) == expected

    def test_explicit_allocation_override(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        all_dhe = allocate_by_threshold(TERABYTE_SPEC.table_sizes, 0.0)
        baseline = engine.dispatcher(config)
        override = engine.dispatcher(config, all_dhe)
        assert override.demand.solo_latency != baseline.demand.solo_latency

    def test_dispatcher_needs_uniform_shape(self, thresholds):
        engine = ExecutionEngine(TERABYTE_SPEC.table_sizes, DIM, None,
                                 thresholds)
        with pytest.raises(ValueError, match="uniform shape"):
            engine.dispatcher(ServingConfig(batch_size=32))


class TestEngineConstruction:
    def test_needs_features(self, thresholds):
        with pytest.raises(ValueError, match="sparse feature"):
            ExecutionEngine((), DIM, DLRM_DHE_UNIFORM_64, thresholds)

    def test_allocation_counts_cover_features(self, engine):
        scans, dhes = engine.allocation_counts(ServingConfig(batch_size=32))
        assert scans + dhes == len(TERABYTE_SPEC.table_sizes)
        assert scans > 0 and dhes > 0


class _SpyThresholds:
    """Counts Algorithm-3 resolutions (one ``threshold`` read per allocation)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def threshold(self, dim, batch, threads):
        self.calls += 1
        return self.inner.threshold(dim, batch, threads)


class TestOneServingLoop:
    """Plain, cached, resilient and cached+resilient are one loop.

    Every combination goes through ``serve`` → schedule → settle (or the
    fault-aware executor) → one report, so the same invariants hold on
    all of them and an inert ``ResiliencePolicy()`` moves no bit.
    """

    CONFIG = ServingConfig(batch_size=32, threads=1)
    CACHES = {
        None: lambda: None,
        "static-residency": lambda: StaticResidencyCache(64 * 1024 * 1024),
        "batch-shared": BatchResultCache,
        "decoder-reuse": DecoderWeightCache,
    }
    TRACES = ("closed", "poisson-greedy", "poisson-2ms")

    def build(self, thresholds, cache, resilient):
        return ExecutionEngine(
            TERABYTE_SPEC.table_sizes, DIM, DLRM_DHE_UNIFORM_64,
            _SpyThresholds(thresholds),
            cache=self.CACHES[cache](),
            resilience=ResiliencePolicy() if resilient else None)

    def trace(self, engine, kind):
        if kind == "closed":
            arrivals = batch_boundary_arrivals(
                200, self.CONFIG.batch_size,
                engine.batch_latency(self.CONFIG))
            return arrivals, BatchingPolicy(max_batch_size=32)
        wait = 0.002 if kind == "poisson-2ms" else 0.0
        return (poisson_arrivals(200, 2500.0, rng=13),
                BatchingPolicy(max_batch_size=32, max_wait_seconds=wait))

    @pytest.mark.parametrize("kind", TRACES)
    @pytest.mark.parametrize("cache", CACHES)
    def test_invariants_and_inert_resilience(self, thresholds, cache, kind):
        reports = {}
        for resilient in (False, True):
            engine = self.build(thresholds, cache, resilient)
            arrivals, policy = self.trace(engine, kind)
            engine.thresholds.calls = 0
            report = engine.serve(self.CONFIG, arrivals, policy)
            assert engine.thresholds.calls == 1  # Algorithm 3 resolved once
            assert np.array_equal(
                report.queue_delays + report.service_latencies,
                report.latencies)
            assert (report.queue_delays >= 0).all()
            assert report.tracks_cache == (cache is not None)
            # Busy time is the fsum of per-batch executed times, re-derived
            # here from an independent schedule at the priced slot.
            slot = (engine.batch_latency(self.CONFIG) if cache is None
                    else engine.cache.schedule_seconds())
            batches = DynamicBatcher(policy).schedule(arrivals,
                                                      lambda size: slot)
            assert report.num_batches == len(batches)
            assert report.batch_time_total == math.fsum(
                report.service_latencies[batch.first] for batch in batches)
            reports[resilient] = report
        plain, resilient = reports[False], reports[True]
        assert resilient.retries_total == 0 and resilient.shed_requests == 0
        for name in ("queue_delays", "service_latencies", "latencies"):
            assert np.array_equal(getattr(plain, name),
                                  getattr(resilient, name)), name
        assert plain.batch_time_total == resilient.batch_time_total
        assert plain.cache_hits == resilient.cache_hits
