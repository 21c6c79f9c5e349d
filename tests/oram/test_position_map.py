"""Position map tests: flat scan pattern and recursive consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oblivious.primitives import ct_eq, ct_select
from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.position_map import FlatPositionMap, OramPositionMap

LEAVES = st.integers(0, 1 << 31)


class ScalarScanOracle:
    """The per-element scan ``FlatPositionMap`` ran before the masked
    blend — scalar ``ct_eq``/``ct_select`` per index and query, one
    ``record`` per event. Kept here, once, as the reference the blend is
    driven against; the batch form generalises the other four methods."""

    def __init__(self, leaves, tracer, region):
        self.leaves = [int(leaf) for leaf in leaves]
        self.tracer, self.region, self.ops = tracer, region, 0

    def scan(self, ids, targets=None, ops=READ + WRITE):
        old = [0] * len(ids)
        for index, entry in enumerate(self.leaves):
            if READ in ops:
                self.tracer.record(READ, self.region, index)
            updated = entry
            for query, block_id in enumerate(ids):
                match = ct_eq(index, int(block_id))
                old[query] = ct_select(match, entry, old[query])
                if targets is not None:
                    updated = ct_select(match, int(targets[query]), updated)
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = updated
        self.ops += len(ops) * len(self.leaves)
        return old


@st.composite
def flat_programs(draw):
    size = draw(st.integers(1, 9))
    ids = st.integers(0, size - 1)
    step = st.one_of(
        st.tuples(st.just("lookup_and_update"), ids, LEAVES),
        st.tuples(st.just("refresh"), ids),
        st.tuples(st.just("lookup"), ids),
        st.tuples(st.just("rewrite"),
                  st.lists(LEAVES, min_size=size, max_size=size)),
        st.lists(ids, unique=True, max_size=size).flatmap(
            lambda batch: st.tuples(
                st.just("lookup_and_update_batch"), st.just(batch),
                st.lists(LEAVES, min_size=len(batch), max_size=len(batch)))))
    return (draw(st.lists(LEAVES, min_size=size, max_size=size)),
            draw(st.lists(step, max_size=8)))


class TestFlatPositionMap:
    def test_lookup_returns_old_installs_new(self):
        posmap = FlatPositionMap(np.array([3, 1, 4]))
        old = posmap.lookup_and_update(1, new_leaf=9)
        assert old == 1
        assert posmap.lookup_and_update(1, new_leaf=0) == 9

    def test_scan_touches_all_entries(self):
        tracer = MemoryTracer()
        posmap = FlatPositionMap(np.arange(5), tracer=tracer, region="pm")
        posmap.lookup_and_update(3, 0)
        reads = [e for e in tracer if e.op == "R"]
        writes = [e for e in tracer if e.op == "W"]
        assert [e.address for e in reads] == list(range(5))
        assert [e.address for e in writes] == list(range(5))

    def test_trace_independent_of_block(self):
        digests = set()
        for block in (0, 2, 4):
            tracer = MemoryTracer()
            posmap = FlatPositionMap(np.arange(5), tracer=tracer)
            posmap.lookup_and_update(block, 1)
            digests.add(tracer.digest())
        assert len(digests) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            FlatPositionMap(np.arange(3)).lookup_and_update(3, 0)

    @settings(max_examples=150, deadline=None)
    @given(flat_programs())
    def test_every_method_matches_the_scalar_scan(self, program):
        """Returned leaves, the leaf array, ``work_ops()`` and the trace
        digest equal the per-element reference after every step."""
        initial, steps = program
        tracer, oracle_tracer = MemoryTracer(), MemoryTracer()
        posmap = FlatPositionMap(np.array(initial), tracer=tracer, region="pm")
        oracle = ScalarScanOracle(initial, oracle_tracer, "pm")
        for method, *args in steps:
            got = getattr(posmap, method)(*args)
            if method == "lookup_and_update":
                assert got == oracle.scan([args[0]], [args[1]])[0]
            elif method == "refresh":
                oracle.scan([args[0]])
                assert got is None
            elif method == "lookup":
                assert got == oracle.scan([args[0]])[0]
            elif method == "rewrite":
                oracle.scan(range(len(initial)), args[0], ops=WRITE)
                assert got is None
            else:
                assert got == oracle.scan(*args)
                assert all(type(leaf) is int for leaf in got)
            assert posmap.leaves.dtype == np.int64
            assert posmap.leaves.tolist() == oracle.leaves
            assert posmap.work_ops() == oracle.ops
            assert tracer.digest() == oracle_tracer.digest()

    @pytest.mark.parametrize("call", [
        lambda pm: pm.lookup_and_update(4, 0),
        lambda pm: pm.lookup_and_update(-1, 0),
        lambda pm: pm.refresh(4),
        lambda pm: pm.lookup(4),
        lambda pm: pm.lookup_and_update_batch([1, 4], [0, 0]),
        lambda pm: pm.lookup_and_update_batch([2, 2], [0, 0]),
        lambda pm: pm.lookup_and_update_batch([1, 2], [0]),
        lambda pm: pm.rewrite(np.arange(5)),
        lambda pm: pm.rewrite(np.zeros((4, 1))),
    ])
    def test_bad_arguments_raise_before_any_event(self, call):
        tracer = MemoryTracer()
        posmap = FlatPositionMap(np.arange(4), tracer=tracer)
        with pytest.raises((IndexError, ValueError)):
            call(posmap)
        assert len(tracer) == 0 and posmap.work_ops() == 0
        assert posmap.leaves.tolist() == [0, 1, 2, 3]

    def test_error_types(self):
        posmap = FlatPositionMap(np.arange(4))
        with pytest.raises(IndexError):
            posmap.lookup_and_update_batch([1, 4], [0, 0])
        with pytest.raises(ValueError, match="unique"):
            posmap.lookup_and_update_batch([2, 2], [0, 0])
        with pytest.raises(ValueError, match="rewrite needs 4"):
            posmap.rewrite(np.arange(5))


class TestOramPositionMap:
    def _factory(self, num_blocks, width, payloads):
        return CircuitORAM(num_blocks, width, initial_payloads=payloads,
                           rng=0, recursion_cutoff=1 << 20)

    def test_round_trip_many_blocks(self):
        rng = np.random.default_rng(1)
        initial = rng.integers(0, 16, size=40)
        posmap = OramPositionMap(initial, self._factory)
        mirror = initial.copy()
        for step in range(120):
            block = int(rng.integers(0, 40))
            new_leaf = int(rng.integers(0, 16))
            old = posmap.lookup_and_update(block, new_leaf)
            assert old == mirror[block], f"step {step}"
            mirror[block] = new_leaf

    def test_partial_last_chunk(self):
        initial = np.arange(18)  # not a multiple of 16
        posmap = OramPositionMap(initial, self._factory)
        assert posmap.lookup_and_update(17, 99) == 17
        assert posmap.lookup_and_update(17, 0) == 99

    @settings(max_examples=100, deadline=None)
    @given(st.lists(LEAVES, min_size=1, max_size=40), st.data())
    def test_lane_blend_matches_the_scalar_lane_loop(self, initial, data):
        """The 16-lane masked blend returns the same old leaf and leaves
        the same chunk bytes as the per-lane ``ct_select`` loop."""
        class ChunkStore:  # a child "ORAM" that just holds the chunks
            def __init__(self, _num_chunks, _width, payloads):
                self.chunks = payloads.copy()

            def access(self, chunk_id, update_fn):
                self.chunks[chunk_id] = update_fn(self.chunks[chunk_id].copy())

        posmap = OramPositionMap(np.array(initial), ChunkStore)
        mirror = posmap._child.chunks.copy()
        updates = data.draw(st.lists(st.tuples(
            st.integers(0, len(initial) - 1), LEAVES), max_size=12))
        for block_id, new_leaf in updates:
            chunk_id, offset = divmod(block_id, posmap.compression)
            old_leaf = 0
            for lane in range(posmap.compression):
                match = ct_eq(lane, offset)
                entry = float(mirror[chunk_id, lane])
                old_leaf = ct_select(match, int(entry), old_leaf)
                mirror[chunk_id, lane] = ct_select(match, float(new_leaf),
                                                   entry)
            got = posmap.lookup_and_update(block_id, new_leaf)
            assert type(got) is int and got == old_leaf
            assert posmap._child.chunks.tobytes() == mirror.tobytes()

    def test_out_of_range(self):
        posmap = OramPositionMap(np.arange(18), self._factory)
        with pytest.raises(IndexError):
            posmap.lookup_and_update(18, 0)
