"""Batched lookahead ORAM: parity, dedup semantics, padding, audits."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram import (
    LOOKAHEAD_REGION,
    CircuitORAM,
    PathORAM,
    RingORAM,
    SequentialLeakingBatcher,
    SqrtORAM,
    Stash,
    contrasting_batches,
    lookahead_subjects,
)
from repro.oram.lookahead import (
    ADDR_FETCH,
    batched_decision_runner,
    batched_memory_runner,
    build_fetch_schedule,
    plan_batch,
)
from repro.oram.position_map import FlatPositionMap, OramPositionMap
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    AuditSubject,
    LeakageAuditor,
)

N, WIDTH = 32, 4
SCHEMES = (PathORAM, CircuitORAM)


def make_payloads(n=N, width=WIDTH):
    return np.arange(n * width, dtype=np.float64).reshape(n, width)


def make_oram(oram_class, seed=0, tracer=None, n=N, width=WIDTH):
    return oram_class(n, width, initial_payloads=make_payloads(n, width),
                      rng=seed, stash_capacity=n, tracer=tracer)


def table_state(oram):
    """Full logical contents, via real accesses (perturbs leaves only)."""
    return np.stack([oram.read(block) for block in range(oram.num_blocks)])


@pytest.mark.parametrize("oram_class", SCHEMES)
class TestValueParity:
    """Batched access returns exactly what the sequential loop returns."""

    def test_reads_match_sequential(self, oram_class):
        batch = [3, 17, 3, 0, 31, 17, 5, 3]
        batched = make_oram(oram_class, seed=1)
        sequential = make_oram(oram_class, seed=2)
        got = batched.access_batch(batch)
        want = np.stack([sequential.access(b) for b in batch])
        np.testing.assert_array_equal(got, want)

    def test_updates_and_post_state_match_sequential(self, oram_class):
        batch = [3, 17, 3, 0, 31, 17, 5, 3]
        fns = [lambda row, k=k: row + k for k in range(len(batch))]
        batched = make_oram(oram_class, seed=1)
        sequential = make_oram(oram_class, seed=2)
        got = batched.access_batch(batch, update_fns=fns)
        want = np.stack([sequential.access(b, fns[i])
                         for i, b in enumerate(batch)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(table_state(batched),
                                      table_state(sequential))

    def test_empty_batch(self, oram_class):
        oram = make_oram(oram_class)
        assert oram.access_batch([]).shape == (0, WIDTH)

    def test_out_of_range_rejected(self, oram_class):
        oram = make_oram(oram_class)
        with pytest.raises(IndexError):
            oram.access_batch([0, N])

    def test_fn_count_mismatch_rejected(self, oram_class):
        oram = make_oram(oram_class)
        with pytest.raises(ValueError, match="update fns"):
            oram.access_batch([0, 1], update_fns=[None])


@pytest.mark.parametrize("oram_class", SCHEMES)
class TestDuplicateSemantics:
    """Pinned: arrival-order chaining over one shared fetch."""

    def test_read_read_sees_same_value(self, oram_class):
        oram = make_oram(oram_class)
        out = oram.access_batch([7, 7])
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], make_payloads()[7])

    def test_read_write_order(self, oram_class):
        # Slot 0 reads the original; slot 1's write lands afterwards.
        oram = make_oram(oram_class)
        out = oram.access_batch(
            [7, 7], update_fns=[None, lambda row: row * 0 + 5.0])
        np.testing.assert_array_equal(out[0], make_payloads()[7])
        np.testing.assert_array_equal(out[1], make_payloads()[7])
        np.testing.assert_array_equal(oram.read(7), np.full(WIDTH, 5.0))

    def test_write_read_chains(self, oram_class):
        # Slot 1 observes slot 0's update, like the sequential loop.
        oram = make_oram(oram_class)
        out = oram.access_batch(
            [7, 7], update_fns=[lambda row: row + 100.0, None])
        np.testing.assert_array_equal(out[0], make_payloads()[7])
        np.testing.assert_array_equal(out[1], make_payloads()[7] + 100.0)

    def test_write_write_composes(self, oram_class):
        oram = make_oram(oram_class)
        oram.access_batch([7, 7], update_fns=[lambda row: row + 1.0,
                                              lambda row: row * 2.0])
        np.testing.assert_array_equal(oram.read(7),
                                      (make_payloads()[7] + 1.0) * 2.0)

    def test_duplicates_share_one_fetch(self, oram_class):
        oram = make_oram(oram_class)
        plan = plan_batch(oram, [7, 7, 7, 9])
        assert plan.unique_ids == [7, 9]
        assert plan.slot_to_unique == [0, 0, 0, 1]
        assert plan.is_first == [True, False, False, True]
        # One fresh leaf per unique id, drawn at the first occurrence.
        assert len(plan.new_leaves) == 2


class TestFetchSchedule:
    """The level-padded union fetch is secret-size-independent."""

    def test_level_counts_are_public(self):
        oram = make_oram(PathORAM)
        for batch in ([0] * 8, list(range(8)), [5, 5, 9, 9, 13, 13, 2, 2]):
            plan = plan_batch(oram, batch)
            plan.old_leaves = list(oram.position_map.lookup_and_update_batch(
                plan.unique_ids, plan.new_leaves, pad_to=len(batch)))
            build_fetch_schedule(oram, plan)
            for level, buckets in enumerate(plan.schedule):
                assert len(buckets) == min(1 << level, 8)
                assert len(set(buckets)) == len(buckets)

    def test_hammered_batch_fetches_as_much_as_distinct(self):
        hammer = make_oram(PathORAM, seed=3)
        distinct = make_oram(PathORAM, seed=3)
        hammer.access_batch([0] * 16)
        distinct.access_batch(list(range(16)))
        assert hammer.stats.bucket_reads == distinct.stats.bucket_reads
        assert hammer.stats.bucket_writes == distinct.stats.bucket_writes

    def test_decision_trace_identical_across_secrets(self):
        digests = []
        for batch in ([0] * 16, [N - 1] * 16, list(range(16))):
            tracer = MemoryTracer()
            oram = make_oram(PathORAM, seed=5)
            oram.access_batch(batch, plan_tracer=tracer)
            assert all(event.region == LOOKAHEAD_REGION
                       for event in tracer.snapshot())
            digests.append(tracer.digest())
        assert len(set(digests)) == 1


@pytest.mark.parametrize("oram_class", SCHEMES)
class TestAmortization:
    def test_posmap_ops_drop_at_batch_16(self, oram_class):
        batched = make_oram(oram_class, seed=1)
        sequential = make_oram(oram_class, seed=1)
        batch = list(range(16))
        batched.access_batch(batch)
        for block in batch:
            sequential.access(block)
        assert sequential.position_map_ops() >= (
            1.5 * batched.position_map_ops())

    def test_bucket_io_drops_at_batch_16(self, oram_class):
        batched = make_oram(oram_class, seed=1)
        sequential = make_oram(oram_class, seed=1)
        batch = list(range(16))
        batched.access_batch(batch)
        for block in batch:
            sequential.access(block)
        io = lambda oram: oram.stats.bucket_reads + oram.stats.bucket_writes
        assert io(batched) < io(sequential)


class TestBatchedPositionMap:
    def test_flat_batch_matches_sequential(self):
        leaves = np.arange(10, dtype=np.int64) % 4
        batched = FlatPositionMap(leaves.copy())
        sequential = FlatPositionMap(leaves.copy())
        ids = [3, 0, 7]
        new = [9, 9, 9]
        got = batched.lookup_and_update_batch(ids, new, pad_to=8)
        want = [sequential.lookup_and_update(i, 9) for i in ids]
        assert list(got) == want
        np.testing.assert_array_equal(batched.leaves, sequential.leaves)

    def test_flat_batch_is_one_pass(self):
        pm = FlatPositionMap(np.zeros(10, dtype=np.int64))
        before = pm.work_ops()
        pm.lookup_and_update_batch([1, 2, 3, 4], [5, 5, 5, 5], pad_to=16)
        # One oblivious pass: 2N entry touches however large the batch.
        assert pm.work_ops() - before == 2 * 10

    def test_duplicate_ids_rejected(self):
        pm = FlatPositionMap(np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError, match="unique"):
            pm.lookup_and_update_batch([1, 1], [2, 3])

    def test_recursive_fallback_pads_to_batch(self):
        child_leaves = np.arange(64, dtype=np.int64) % 8
        batches = []

        class Child(PathORAM):
            def access_batch(self, block_ids, update_fns=None, **kwargs):
                batches.append(list(block_ids))
                return super().access_batch(block_ids, update_fns, **kwargs)

        def factory(num_chunks, width, payloads):
            return Child(num_chunks, width, initial_payloads=payloads, rng=0)

        pm = OramPositionMap(child_leaves, factory)
        accesses_before = pm._child.stats.accesses
        # 3 and 5 share chunk 0, 17 lives in chunk 1.
        got = pm.lookup_and_update_batch([3, 5, 17], [1, 2, 7], pad_to=6)
        # One child batch of exactly the public batch size: three real
        # lookups (chunk 0 twice, chained) + three identity paddings.
        assert batches == [[0, 0, 1, 0, 0, 0]]
        assert pm._child.stats.accesses - accesses_before == 6
        assert got == [3, 5, 1]
        assert pm.lookup_and_update_batch([3, 5, 17, 4], [0] * 4,
                                          pad_to=4) == [1, 2, 7, 4]


class TestStashDisciplines:
    def test_take_matching_is_one_scan_and_bounded(self):
        tracer = MemoryTracer()
        stash = Stash(8, 2)
        stash.tracer = tracer
        for block in range(5):
            stash.add(block, leaf=1, payload=np.zeros(2))
        tracer.clear()
        ids, leaves, payloads = stash.take_matching(
            lambda leaves: leaves == 1, limit=3)
        assert ids.tolist() == [0, 1, 2]   # the first matching slots
        assert leaves.shape == (3,) and payloads.shape == (3, 2)
        assert len(tracer.snapshot()) == stash.capacity  # exactly one scan
        assert stash.occupancy == 2

    def test_grow_extends_and_preserves(self):
        stash = Stash(2, 2)
        stash.add(5, leaf=3, payload=np.ones(2))
        stash.grow(6)
        assert stash.capacity == 6
        leaf, payload = stash.peek(5)
        assert leaf == 3
        np.testing.assert_array_equal(payload, np.ones(2))
        stash.grow(4)  # never shrinks
        assert stash.capacity == 6


class TestRingFallback:
    def test_ring_access_batch_matches_sequential(self):
        batch = [3, 8, 3, 0]
        batched = make_oram(RingORAM, seed=1)
        sequential = make_oram(RingORAM, seed=2)
        assert not batched.SUPPORTS_LOOKAHEAD
        got = batched.access_batch(batch)
        want = np.stack([sequential.access(b) for b in batch])
        np.testing.assert_array_equal(got, want)


class TestSqrtFallback:
    """SUPPORTS_LOOKAHEAD dispatch on the square-root scheme: the batched
    entry point must take the sequential fallback, value-parity like Ring."""

    def test_sqrt_access_batch_matches_sequential(self):
        batch = [3, 8, 3, 0]
        batched = make_oram(SqrtORAM, seed=1)
        sequential = make_oram(SqrtORAM, seed=2)
        assert not batched.SUPPORTS_LOOKAHEAD
        got = batched.access_batch(batch)
        want = np.stack([sequential.access(b) for b in batch])
        np.testing.assert_array_equal(got, want)

    def test_fallback_records_the_ordinal_decision_trace(self):
        # The sequential fallback still narrates the standing lookahead
        # decision trace: one ordinal fetch record per slot.
        oram = make_oram(SqrtORAM, seed=0)
        plan = MemoryTracer()
        oram.access_batch([5, 1, 5], plan_tracer=plan)
        fetch = [event for event in list(plan)
                 if event.region == LOOKAHEAD_REGION]
        assert [event.address for event in fetch] == [
            ADDR_FETCH, ADDR_FETCH + 1, ADDR_FETCH + 2]

    def test_empty_batch_is_a_noop(self):
        oram = make_oram(SqrtORAM, seed=0)
        out = oram.access_batch([])
        assert out.shape == (0, WIDTH)
        assert oram.stats.accesses == 0


class TestLeakageAudit:
    @pytest.fixture(scope="class")
    def audit_report(self):
        return LeakageAuditor().run(lookahead_subjects())

    @pytest.mark.parametrize("name", [
        "path-lookahead-plan", "circuit-lookahead-plan"])
    def test_decision_traces_exact(self, audit_report, name):
        finding = audit_report.finding(name)
        assert finding.passed and not finding.leak_detected

    @pytest.mark.parametrize("name", [
        "path-lookahead-memory", "circuit-lookahead-memory"])
    def test_memory_traces_structural(self, audit_report, name):
        finding = audit_report.finding(name)
        assert finding.passed and not finding.leak_detected

    def test_sequential_leaking_batcher_is_caught(self, audit_report):
        finding = audit_report.finding("sequential-leaking-batcher")
        assert finding.passed  # expected to leak, and it does
        assert finding.leak_detected

    def test_leaky_batcher_is_still_value_correct(self):
        batch = [3, 17, 3, 0, 17]
        fns = [lambda row, k=k: row + k for k in range(len(batch))]
        leaky = make_oram(PathORAM, seed=1)
        honest = make_oram(PathORAM, seed=2)
        got = SequentialLeakingBatcher().access_batch(leaky, batch,
                                                      update_fns=fns)
        want = honest.access_batch(batch, update_fns=fns)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(table_state(leaky),
                                      table_state(honest))

    def test_contrasting_batches_cover_multiplicity(self):
        secrets = contrasting_batches(N, batch_size=8, num_batches=2)
        assert len(secrets) == 3
        assert all(len(secret) == 2 for secret in secrets)
        assert secrets[0][0] == [0] * 8
        assert secrets[1][0] == [N - 1] * 8
        assert len(set(secrets[2][0])) == 8


class TestRecursiveMapAudit:
    """Batched access over a *recursive* position map — one child
    ``access_batch`` of the public batch size per recursion level. No
    standing subject has this shape (``lookahead_subjects`` is flat)."""

    NUM_BLOCKS, CUTOFF, BATCH = 128, 16, 16
    # hammer-first, hammer-last and all-distinct batches
    secrets = contrasting_batches(NUM_BLOCKS, BATCH, num_batches=2)

    @classmethod
    def factory(cls, oram_class, seed):
        def build():
            return oram_class(cls.NUM_BLOCKS, WIDTH, rng=seed,
                              stash_capacity=cls.NUM_BLOCKS,
                              recursion_cutoff=cls.CUTOFF)
        return build

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("oram_class", SCHEMES)
    def test_plan_exact_and_memory_structural(self, oram_class, seed):
        build = self.factory(oram_class, seed)
        assert isinstance(build().position_map, OramPositionMap)
        auditor = LeakageAuditor()
        auditor.require(AuditSubject(
            "recursive-lookahead-plan", batched_decision_runner(build),
            self.secrets, mode=MODE_EXACT))
        auditor.require(AuditSubject(
            "recursive-lookahead-memory", batched_memory_runner(build),
            self.secrets, mode=MODE_STRUCTURAL))

    @pytest.mark.parametrize("runner, mode", [
        (batched_decision_runner, MODE_EXACT),
        (batched_memory_runner, MODE_STRUCTURAL)])
    def test_sequential_leaking_batcher_is_still_caught(self, runner, mode):
        finding = LeakageAuditor().audit(AuditSubject(
            "recursive-sequential-leaking-batcher",
            runner(self.factory(PathORAM, 0),
                   batcher=SequentialLeakingBatcher()),
            self.secrets, mode=mode, expect_oblivious=False))
        assert finding.leak_detected


class WritebackStalledPathORAM(PathORAM):
    """Path ORAM whose fused batched write-back can stall (fault model).

    The healthy fused write-back structurally drains the whole fetched
    union back into the tree, so batched Path access never strands blocks
    on its own at test sizes; the pressure model is a *stalled* write-back
    — fetches keep depositing into the stash while nothing flows back.
    """

    stalled = False

    def _lookahead_writeback(self, plan):
        if self.stalled:
            return plan.num_fetched_buckets
        return super()._lookahead_writeback(plan)


class EvictionStalledCircuitORAM(CircuitORAM):
    """Circuit ORAM whose batched eviction budget can stall (starvation)."""

    stalled = False

    def _deterministic_evict_pass(self):
        if not self.stalled:
            super()._deterministic_evict_pass()


def build_pressured_batched(oram_class, seed=0):
    cls = (WritebackStalledPathORAM if oram_class is PathORAM
           else EvictionStalledCircuitORAM)
    oram = cls(N, WIDTH, initial_payloads=make_payloads(), rng=seed,
               stash_capacity=N)
    oram.stalled = True
    oram.persistent_stash_capacity = 0

    def relieve():
        oram.stalled = False
        oram.persistent_stash_capacity = N

    return oram, relieve


@pytest.mark.parametrize("oram_class", SCHEMES)
class TestStashPressure:
    """Satellite: batched-mode stash telemetry + overflow recovery."""

    def test_high_water_gauge_tracks_batched_peak(self, oram_class):
        from repro.telemetry.runtime import use_registry

        with use_registry() as registry:
            oram = make_oram(oram_class, seed=1)
            oram.access_batch(list(range(16)))
        snapshot = registry.snapshot()
        gauge = snapshot["gauges"]["oram.lookahead.stash_high_water"]
        assert gauge == oram.stash.peak_occupancy
        assert gauge > 0

    def test_healthy_batched_access_respects_tight_bound(self, oram_class):
        # The fused write-back drains the whole fetched union: repeated
        # batched accesses never trip even a zero persistent bound.
        oram = make_oram(oram_class, seed=1)
        oram.persistent_stash_capacity = 0
        for start in range(0, N, 16):
            oram.access_batch(list(range(start, start + 16)))
        assert oram.stats.stash_overflows == 0

    def test_batched_overflow_fires_the_signal(self, oram_class):
        from repro.oram import StashOverflowError

        oram, relieve = build_pressured_batched(oram_class)
        with pytest.raises(StashOverflowError):
            oram.access_batch(list(range(16)))
        assert oram.stats.stash_overflows == 1
        assert oram.stash.occupancy > 0
        # Once the pressure is gone the batched path works again and no
        # block was lost.
        relieve()
        oram.access_batch(list(range(16)))
        np.testing.assert_array_equal(
            np.stack([oram.read(b) for b in range(N)]), make_payloads())
