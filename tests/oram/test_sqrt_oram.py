"""Square-root ORAM: correctness, shuffle schedule, trace obliviousness."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram import SqrtORAM
from repro.oram.position_map import FlatPositionMap
from repro.oram.stash import StashOverflowError
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    AuditSubject,
    LeakageAuditor,
)

N, WIDTH = 16, 4


def make_payloads(n=N, width=WIDTH):
    return np.arange(n * width, dtype=np.float64).reshape(n, width)


def make_oram(seed=0, tracer=None, n=N, width=WIDTH, **kwargs):
    return SqrtORAM(n, width, initial_payloads=make_payloads(n, width),
                    rng=seed, tracer=tracer, **kwargs)


class TestValueSemantics:
    def test_reads_return_initial_payloads(self):
        oram = make_oram()
        payloads = make_payloads()
        for block in range(N):
            np.testing.assert_array_equal(oram.read(block), payloads[block])

    def test_repeated_hot_block_reads_survive_sheltering(self):
        oram = make_oram()
        for _ in range(3 * oram.period):
            np.testing.assert_array_equal(oram.read(5), make_payloads()[5])

    def test_read_your_writes_across_reshuffles(self):
        oram = make_oram()
        oram.write(7, np.full(WIDTH, 42.0))
        for _ in range(2 * oram.period + 1):  # force shuffles in between
            oram.read(0)
        np.testing.assert_array_equal(oram.read(7), np.full(WIDTH, 42.0))

    def test_access_returns_pre_update_payload(self):
        oram = make_oram()
        before = oram.access(3, lambda old: old + 1.0)
        np.testing.assert_array_equal(before, make_payloads()[3])
        np.testing.assert_array_equal(oram.read(3), make_payloads()[3] + 1.0)

    def test_update_fn_bad_shape_rejected(self):
        oram = make_oram()
        with pytest.raises(ValueError, match="shape"):
            oram.access(0, lambda old: np.zeros(WIDTH + 1))

    def test_out_of_range_block_rejected(self):
        oram = make_oram()
        with pytest.raises(IndexError):
            oram.access(N)


class TestShuffleSchedule:
    def test_period_is_ceil_sqrt_n(self):
        assert make_oram().period == 4
        assert SqrtORAM(10, 2, rng=0).period == 4  # ceil(sqrt(10))

    def test_reshuffle_fires_every_period_accesses(self):
        oram = make_oram()
        for access in range(1, 3 * oram.period + 1):
            oram.read(access % N)
            assert oram.stats.eviction_passes == access // oram.period

    def test_shelter_empties_at_the_shuffle(self):
        oram = make_oram()
        for block in range(oram.period - 1):
            oram.read(block)
        assert oram.stash.occupancy == oram.period - 1
        oram.read(oram.period - 1)  # period-th access -> shuffle
        assert oram.stash.occupancy == 0

    def test_revealed_slots_distinct_within_a_period(self):
        oram = make_oram()
        for _ in range(oram.period):
            oram.read(2)  # hammer one block: hits burn distinct dummies
        revealed = oram.stats.revealed_leaves
        assert len(set(revealed)) == len(revealed) == oram.period

    def test_background_evict_is_an_early_reshuffle(self):
        oram = make_oram()
        oram.read(1)
        assert oram.stash.occupancy == 1
        occupancy = oram.background_evict()
        assert occupancy == 0
        assert oram.stats.eviction_passes == 1
        # Post-shuffle reads still return the right values.
        np.testing.assert_array_equal(oram.read(1), make_payloads()[1])

    def test_stash_bound_enforced(self):
        # A shelter bound below the period trips mid-period and counts
        # the overflow.
        oram = SqrtORAM(N, WIDTH, rng=0)
        oram.persistent_stash_capacity = 1
        oram.read(0)
        with pytest.raises(StashOverflowError):
            oram.read(1)
        assert oram.stats.stash_overflows == 1


class TestAccounting:
    def test_store_read_counters(self):
        oram = make_oram()
        oram.read(0)
        assert oram.stats.bucket_reads == 1  # exactly one store read
        total = N + oram.num_dummies
        for _ in range(oram.period - 1):
            oram.read(0)
        # period accesses + one full reshuffle sweep
        assert oram.stats.bucket_reads == oram.period + total
        assert oram.stats.bucket_writes == total

    def test_memory_blocks_counts_store_and_shelter(self):
        oram = make_oram()
        assert oram.memory_blocks() == (N + oram.num_dummies
                                        + oram.stash.capacity)

    def test_no_tree_introspection(self):
        oram = make_oram()
        assert oram.levels == 0
        assert oram.total_resident_blocks() == N


class TestFlatMapExtensions:
    def test_lookup_preserves_values_and_traces_like_an_update(self):
        tracer_lookup = MemoryTracer()
        tracer_update = MemoryTracer()
        a = FlatPositionMap(np.arange(8), tracer=tracer_lookup, region="pm")
        b = FlatPositionMap(np.arange(8), tracer=tracer_update, region="pm")
        assert a.lookup(5) == 5
        b.lookup_and_update(5, 99)
        assert [e.op for e in tracer_lookup] == [
            e.op for e in tracer_update]
        assert [e.address for e in tracer_lookup] == [
            e.address for e in tracer_update]
        np.testing.assert_array_equal(a.leaves, np.arange(8))

    def test_rewrite_installs_everything(self):
        pm = FlatPositionMap(np.arange(8))
        pm.rewrite(np.arange(8)[::-1])
        assert pm.lookup(0) == 7
        with pytest.raises(ValueError):
            pm.rewrite(np.arange(3))


class TestObliviousness:
    """The standing audit conventions: memory structural, per access."""

    @staticmethod
    def runner(tracer, secret):
        oram = make_oram(seed=0, tracer=tracer)
        tracer.clear()  # drop initialisation traffic
        for block in secret:
            oram.read(int(block))

    SECRETS = [[0] * 8, [N - 1] * 8, [i % N for i in range(8)]]

    def test_memory_trace_structural(self):
        finding = LeakageAuditor().audit(AuditSubject(
            "sqrt-memory", self.runner, self.SECRETS,
            mode=MODE_STRUCTURAL))
        assert finding.passed and not finding.leak_detected

    def test_memory_trace_not_exact(self):
        # The revealed store slot is the one secret-dependent address, so
        # exact equivalence must fail — that is why the scheme registers
        # structurally, like the tree ORAMs.
        finding = LeakageAuditor().audit(AuditSubject(
            "sqrt-exact", self.runner, self.SECRETS,
            mode=MODE_EXACT, expect_oblivious=False))
        assert finding.passed and finding.leak_detected
