"""Admission policies: budgets, determinism, and secret-independence."""

import dataclasses

import pytest

from repro.cache.audit import (
    AUDIT_TABLE_SIZES,
    audit_allocations,
    audit_pricer,
)
from repro.cache.policy import (
    BatchMetadata,
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    SecretIndependentCache,
    StaticResidencyCache,
)
from repro.costmodel.latency import DLRM_DHE_UNIFORM_16
from repro.costmodel.memory import table_bytes
from repro.hybrid.thresholds import ThresholdDatabase
from repro.serving.engine import ExecutionEngine, ServingConfig


@pytest.fixture(scope="module")
def pricer():
    return audit_pricer()


@pytest.fixture(scope="module")
def allocations():
    return audit_allocations()


@pytest.fixture
def config(pricer):
    return ServingConfig(batch_size=pricer.batch_size)


def meta(epoch=0, index=0, size=8):
    return BatchMetadata(epoch=epoch, index_in_epoch=index, size=size)


def engine_with(cache):
    return ExecutionEngine(AUDIT_TABLE_SIZES, 16, None,
                           ThresholdDatabase("dhe-varied"), cache=cache)


class TestCachePolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StaticResidencyCache(budget_bytes=0)
        with pytest.raises(ValueError):
            BatchResultCache(epoch_seconds=0.0)


class TestResolveCache:
    """An engine's ``cache=`` is ``None`` or a secret-independent instance,
    kept verbatim; anything else is refused at construction."""

    def test_none_passthrough(self):
        assert engine_with(None).cache is None

    def test_instance_passthrough(self):
        cache = DecoderWeightCache()
        assert engine_with(cache).cache is cache

    def test_not_a_cache(self):
        with pytest.raises(TypeError, match="secret-independent"):
            engine_with(42)


class TestStaticResidency:
    def test_respects_budget(self, allocations, config, pricer):
        budget = table_bytes(AUDIT_TABLE_SIZES[0], pricer.embedding_dim) \
            + table_bytes(AUDIT_TABLE_SIZES[1], pricer.embedding_dim)
        cache = StaticResidencyCache(budget)
        cache.plan(allocations, config, pricer)
        assert cache.resident_tables == (0, 1)
        assert cache.stats.bytes_resident <= budget

    def test_pins_smallest_tables_first(self, allocations, config, pricer):
        cache = StaticResidencyCache(
            table_bytes(AUDIT_TABLE_SIZES[0], pricer.embedding_dim))
        cache.plan(allocations, config, pricer)
        assert cache.resident_tables == (0,)

    def test_dhe_feature_pays_full_table_bytes(self, config, pricer,
                                               allocations):
        # The 65536-row DHE feature's decoder is tiny, but pinning the
        # table must pay the materialised table, not the decoder.
        big = allocations[-1]
        assert big.technique != "scan"
        assert pricer.table_footprint_bytes(big) \
            == table_bytes(big.table_size, pricer.embedding_dim)
        assert pricer.table_footprint_bytes(big) > pricer.footprint_bytes(big)

    def test_resident_features_get_cheaper(self, allocations, config, pricer):
        cache = StaticResidencyCache(2 ** 40)   # everything fits
        cache.plan(allocations, config, pricer)
        assert cache.schedule_seconds() < pricer.batch_seconds(allocations)

    def test_workload_is_ignored(self, allocations, config, pricer):
        plain = StaticResidencyCache(2 ** 24)
        plain.plan(allocations, config, pricer)
        skewed = StaticResidencyCache(2 ** 24)
        skewed.plan(allocations, config, pricer, workload=[0] * 1024)
        assert skewed.resident_tables == plain.resident_tables
        assert skewed.schedule_seconds() == plain.schedule_seconds()

    def test_hits_and_misses_count_features(self, allocations, config,
                                            pricer):
        cache = StaticResidencyCache(2 ** 24)
        cache.plan(allocations, config, pricer)
        resident = len(cache.resident_tables)
        cache.batch_seconds(meta())
        cache.batch_seconds(meta(index=1))
        assert cache.stats.hits == 2 * resident
        assert cache.stats.misses == 2 * (len(allocations) - resident)

    def test_replanning_does_not_recount_admissions(self, allocations,
                                                    config, pricer):
        cache = StaticResidencyCache(2 ** 24)
        cache.plan(allocations, config, pricer)
        once = cache.stats.admissions
        cache.plan(allocations, config, pricer)
        assert cache.stats.admissions == once


class TestDecoderWeightCache:
    def test_second_plan_hits_every_decoder(self, allocations, config,
                                            pricer):
        cache = DecoderWeightCache()
        cache.plan(allocations, config, pricer)
        dhe = sum(1 for a in allocations if a.technique != "scan")
        assert cache.stats.misses == dhe
        assert cache.serve_setup_seconds() > 0.0
        cache.plan(allocations, config, pricer)
        assert cache.stats.hits == dhe
        assert cache.serve_setup_seconds() == 0.0


class TestPricerDheShape:
    """A DHE feature is sized with the stack it is built with. Without a
    uniform shape, or with one of another width, there is no such stack:
    every DHE price refuses, while scan features still price."""

    @pytest.mark.parametrize("uniform, dim", [(None, 16),
                                              (DLRM_DHE_UNIFORM_16, 64)])
    def test_dhe_feature_needs_a_matching_uniform_shape(
            self, allocations, pricer, uniform, dim):
        pricer = dataclasses.replace(pricer, uniform_shape=uniform,
                                     embedding_dim=dim)
        scan, dhe = allocations[0], allocations[-1]
        assert pricer.footprint_bytes(scan) == table_bytes(scan.table_size,
                                                           dim)
        for price in (pricer.footprint_bytes, pricer.decoder_setup_seconds):
            with pytest.raises(ValueError, match="uniform shape"):
                price(dhe)
        with pytest.raises(ValueError, match="uniform shape"):
            DecoderWeightCache().plan(
                allocations, ServingConfig(batch_size=pricer.batch_size),
                pricer)


class TestBatchResultCache:
    def test_same_batch_key_hits(self, allocations, config, pricer):
        cache = BatchResultCache()
        cache.plan(allocations, config, pricer)
        miss = cache.batch_seconds(meta())
        hit = cache.batch_seconds(meta())
        assert hit < miss
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_metadata_misses(self, allocations, config, pricer):
        cache = BatchResultCache()
        cache.plan(allocations, config, pricer)
        cache.batch_seconds(meta())
        cache.batch_seconds(meta(epoch=1))
        cache.batch_seconds(meta(index=1))
        cache.batch_seconds(meta(size=4))
        assert cache.stats.misses == 4 and cache.stats.hits == 0

    def test_generation_roll_evicts_out_of_scope(self, allocations, config,
                                                 pricer):
        cache = BatchResultCache(keep_generations=1)
        cache.plan(allocations, config, pricer)
        cache.batch_seconds(meta())
        cache.advance_generation()          # still within keep_generations
        assert cache.entries() == 1
        cache.batch_seconds(meta())          # re-admitted under generation 1
        cache.advance_generation()
        assert cache.stats.evictions == 1
        assert cache.entries() == 1
        cache.advance_generation()
        assert cache.entries() == 0
        assert cache.stats.bytes_resident == 0

    def test_schedule_is_conservative_full_price(self, allocations, config,
                                                 pricer):
        cache = BatchResultCache()
        cache.plan(allocations, config, pricer)
        assert cache.schedule_seconds() \
            == pytest.approx(pricer.batch_seconds(allocations))


class TestIndexKeyedLRU:
    def test_behaves_as_an_lru(self, allocations, config, pricer):
        cache = IndexKeyedLRUCache(2)
        cache.plan(allocations, config, pricer)
        cache.batch_seconds(meta(), indices=[1, 2, 1, 3])
        # 1,2 admitted; 1 hits; 3 evicts 2 (LRU order after the 1-hit).
        assert cache.stats.hits == 1
        assert cache.stats.misses == 3
        assert cache.stats.evictions == 1
        cache.batch_seconds(meta(), indices=[2])
        assert cache.stats.misses == 4

    def test_stats_follow_the_secret(self, allocations, config, pricer):
        hot = IndexKeyedLRUCache(8)
        hot.plan(allocations, config, pricer)
        hot.batch_seconds(meta(), indices=[0] * 16)
        cold = IndexKeyedLRUCache(8)
        cold.plan(allocations, config, pricer)
        cold.batch_seconds(meta(), indices=list(range(16)))
        assert hot.stats.to_dict() != cold.stats.to_dict()


class TestProtocolDefaults:
    def test_defaults(self):
        cache = SecretIndependentCache()
        assert cache.serve_setup_seconds() == 0.0
        cache.advance_generation()           # no-op by default
        with pytest.raises(NotImplementedError):
            cache.schedule_seconds()
