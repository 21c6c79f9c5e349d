"""Cache wiring through ExecutionEngine and the cluster."""

import pytest

from repro.cache import (
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    StaticResidencyCache,
)
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.serving import (
    BatchingPolicy,
    ExecutionEngine,
    ServingConfig,
)
from repro.serving.requests import RequestQueue

DIM = 64
BATCH = 32
BUDGET_BYTES = 64 * 1024 * 1024


@pytest.fixture(scope="module")
def thresholds():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    profile = profiler.profile(techniques=("scan", "dhe-varied"),
                               dims=(DIM,), batches=(BATCH,),
                               threads_list=(1,))
    return build_threshold_database(profile, dhe_technique="dhe-varied",
                                    dims=(DIM,), batches=(BATCH,),
                                    threads_list=(1,))


@pytest.fixture(scope="module")
def arrivals():
    return RequestQueue.poisson(192, 2000.0, rng=11)


@pytest.fixture
def config():
    return ServingConfig(batch_size=BATCH, threads=1)


def make_engine(thresholds, cache=None, **kwargs):
    return ExecutionEngine(TERABYTE_SPEC.table_sizes, DIM,
                           DLRM_DHE_UNIFORM_64, thresholds,
                           cache=cache, **kwargs)


def residency():
    return StaticResidencyCache(BUDGET_BYTES)


class TestEngineCaching:
    def test_uncached_report_has_no_cache_fields(self, thresholds, config,
                                                 arrivals):
        report = make_engine(thresholds).serve(config, arrivals)
        assert report.cache_hits is None
        assert report.cache_misses is None
        assert not report.tracks_cache
        assert report.cache_hit_rate == 0.0

    def test_residency_beats_uncached(self, thresholds, config, arrivals):
        base = make_engine(thresholds).serve(config, arrivals)
        cached = make_engine(
            thresholds,
            cache=residency()).serve(config, arrivals)
        assert cached.tracks_cache
        assert cached.cache_hits > 0
        assert cached.p50 < base.p50
        assert cached.p99 < base.p99
        assert cached.num_requests == base.num_requests

    def test_report_carries_per_serve_deltas(self, thresholds, config,
                                             arrivals):
        engine = make_engine(thresholds, cache=residency())
        first = engine.serve(config, arrivals)
        second = engine.serve(config, arrivals)
        # Stats are cumulative on the instance; reports carry the delta.
        assert second.cache_hits == first.cache_hits
        assert second.cache_misses == first.cache_misses

    def test_shared_instance_passes_verbatim(self, thresholds, config,
                                             arrivals):
        cache = DecoderWeightCache()
        engine = make_engine(thresholds, cache=cache)
        assert engine.cache is cache
        cold = engine.serve(config, arrivals)
        assert cold.cache_misses > 0 and cold.cache_hits == 0
        warm_engine = make_engine(thresholds, cache=cache)
        warm = warm_engine.serve(config, arrivals)
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == 0

    def test_batch_shared_mirror_hits_everything(self, thresholds, config,
                                                 arrivals):
        cache = BatchResultCache(epoch_seconds=0.05)
        engine = make_engine(thresholds, cache=cache)
        primary = engine.serve(config, arrivals)
        mirror = engine.serve(config, arrivals)
        assert primary.cache_hits == 0
        assert mirror.cache_misses == 0
        assert mirror.cache_hits == primary.cache_misses
        assert mirror.p50 < primary.p50

    def test_cache_composes_with_inert_resilience_bit_for_bit(
            self, thresholds, config, arrivals):
        # Pin: cache + a fault-free ResiliencePolicy() is byte-identical to
        # the cached plain engine — the resilient executor adds nothing
        # when no faults fire (slip stays 0.0, hedges never trigger).
        import numpy as np

        from repro.resilience import ResiliencePolicy
        from repro.resilience.report import ResilientServingReport

        plain = make_engine(
            thresholds,
            cache=residency()).serve(config, arrivals)
        composed = make_engine(
            thresholds, cache=residency(),
            resilience=ResiliencePolicy()).serve(config, arrivals)
        assert isinstance(composed, ResilientServingReport)
        assert np.array_equal(composed.latencies, plain.latencies)
        assert np.array_equal(composed.queue_delays, plain.queue_delays)
        assert np.array_equal(composed.service_latencies,
                              plain.service_latencies)
        # The composed report carries BOTH cache counters and fault stats.
        assert composed.cache_hits == plain.cache_hits
        assert composed.cache_misses == plain.cache_misses
        assert composed.tracks_cache
        assert composed.retries_total == 0
        assert composed.shed_requests == 0
        assert composed.availability == 1.0

    def test_empty_cache_plus_resilience_matches_uncached(
            self, thresholds, config, arrivals):
        # Pin: a cache that admits nothing leaves every batch at its
        # uncached service time, so cache + resilience is byte-identical
        # to the uncached resilient engine — faults and all.
        import numpy as np

        from repro.resilience import ResiliencePolicy
        from repro.resilience.faults import (
            FaultInjector,
            LatencySpikeFault,
            TransientErrorFault,
        )

        def policy():
            return ResiliencePolicy(injector=FaultInjector(
                seed=5,
                spike=LatencySpikeFault(probability=0.2, multiplier=3.0),
                transient=TransientErrorFault(probability=0.15)))

        uncached = make_engine(
            thresholds, resilience=policy()).serve(config, arrivals)
        composed = make_engine(
            thresholds,
            cache=StaticResidencyCache(1),
            resilience=policy()).serve(config, arrivals)
        assert composed.cache_hits == 0
        assert np.array_equal(composed.latencies, uncached.latencies)
        assert np.array_equal(composed.queue_delays, uncached.queue_delays)
        assert np.array_equal(composed.service_latencies,
                              uncached.service_latencies)
        assert composed.retries_total == uncached.retries_total
        assert composed.spike_events == uncached.spike_events

    def test_closed_loop_serve_uses_the_cache_too(self, thresholds, config):
        # serve_closed funnels through serve(), so a cached engine is
        # cached in every serving mode; the uncached engine's seed parity
        # is pinned by the existing serve_closed regression tests.
        base = make_engine(thresholds).serve_closed(64, config)
        cached = make_engine(
            thresholds,
            cache=residency()).serve_closed(64, config)
        assert base.cache_hits is None
        assert cached.tracks_cache
        assert cached.p50 < base.p50


class TestLeakyCacheRefused:
    """The index-keyed LRU is the audit's negative control: its residency
    is the secret request stream, so an engine must never serve through
    it. Only a ``SecretIndependentCache`` is accepted."""

    def test_index_keyed_lru_cannot_serve(self, thresholds):
        with pytest.raises(TypeError, match="secret-independent"):
            make_engine(thresholds, cache=IndexKeyedLRUCache(8))

    def test_duck_typed_cache_is_refused(self, thresholds):
        class Fake:
            def plan(self, *args, **kwargs):
                pass

            def schedule_seconds(self):
                return 1.0

            def batch_seconds(self, meta, indices=None):
                return 1.0

        with pytest.raises(TypeError, match="secret-independent"):
            make_engine(thresholds, cache=Fake())


class TestServerPassThrough:
    def test_server_accepts_cache_policy(self, thresholds, config):
        engine = make_engine(thresholds,
                             cache=residency())
        report = engine.serve(config, RequestQueue.poisson(128, 2000.0,
                                                           rng=3))
        assert report.tracks_cache
        assert report.cache_hits > 0


class TestScatterGather:
    @staticmethod
    def make_cluster_engine(thresholds, cache):
        from repro.cluster.router import ShardRouter
        from repro.cluster.scatter import ScatterGatherEngine

        router = ShardRouter(2)
        return ScatterGatherEngine(TERABYTE_SPEC.table_sizes, DIM,
                                   DLRM_DHE_UNIFORM_64, thresholds, router,
                                   cache=cache)

    def test_takes_policy_not_instance(self, thresholds):
        with pytest.raises(TypeError, match="factory"):
            self.make_cluster_engine(thresholds,
                                     StaticResidencyCache(2 ** 24))

    def test_gathered_report_sums_shard_caches(self, thresholds, config,
                                               arrivals):
        engine = self.make_cluster_engine(thresholds, residency)
        result = engine.serve(config, arrivals,
                              BatchingPolicy(max_batch_size=BATCH,
                                             max_wait_seconds=0.002))
        shard_hits = sum(r.cache_hits or 0
                         for r in result.shard_reports.values())
        assert result.report.tracks_cache
        assert result.report.cache_hits == shard_hits
        assert shard_hits > 0
