"""Model-based property tests: ORAM behaves as a key-value store."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM
from repro.oram.tree import DUMMY, BucketTree

NUM_BLOCKS = 24
WIDTH = 2

values = st.floats(-100, 100, allow_nan=False)


def operations_over(num_blocks, batch_ids):
    blocks = st.integers(0, num_blocks - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), blocks),
            st.tuples(st.just("write"), blocks, values),
            # ids from a narrow range, so most batches carry duplicates
            # (and, over a recursive map, ids sharing a 16-label chunk); a
            # slot's value is added to its row, ``None`` leaves it alone
            st.tuples(st.just("batch"), st.lists(
                st.tuples(st.integers(0, batch_ids - 1), st.none() | values),
                min_size=1, max_size=8)),
        ),
        min_size=1, max_size=40,
    )


operations = operations_over(NUM_BLOCKS, batch_ids=6)


def recursion_levels(oram):
    """The ORAM and every child ORAM its position map nests."""
    levels = [oram]
    while hasattr(levels[-1].position_map, "_child"):
        levels.append(levels[-1].position_map._child)
    return levels


def resident(oram, field):
    """Per block id, ``field`` ("leaves" or "payloads") as stored beside
    the block in the tree or the stash — read without an access."""
    rows = np.full((oram.num_blocks,)
                   + getattr(oram.stash, field).shape[1:], -1.0)
    for store in (oram.tree, oram.stash):
        real = store.ids != DUMMY
        rows[store.ids[real]] = getattr(store, field)[real]
    return rows


def check_level_invariants(oram):
    """At every recursion level: conservation, the stash bound, and the
    position map naming the leaf stored beside each block."""
    for level in recursion_levels(oram):
        assert level.total_resident_blocks() == level.num_blocks
        assert level.stash.occupancy <= level.persistent_stash_capacity
        if type(level) not in (PathORAM, CircuitORAM):
            continue     # Ring keeps consumed copies, sqrt has no tree
        posmap = level.position_map
        if hasattr(posmap, "_child"):
            mapped = resident(posmap._child, "payloads").reshape(-1)
        else:
            mapped = posmap.leaves
        np.testing.assert_array_equal(mapped[:level.num_blocks],
                                      resident(level, "leaves"))


def run_model_check(oram_class, ops, seed, num_blocks=NUM_BLOCKS,
                    recursion_cutoff=None):
    """Drive ``ops`` against a dict-like mirror, checking after every op:
    returned values, the per-level invariants above, and that each counted
    bucket read/write emitted its tree (or store) event."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_blocks, WIDTH))
    # Three Path levels record ~150k events per batch: the event counts are
    # checked on the flat configurations only.
    tracer = MemoryTracer() if recursion_cutoff is None else None
    recursive = ({} if recursion_cutoff is None
                 else {"recursion_cutoff": recursion_cutoff})
    oram = oram_class(num_blocks, WIDTH, initial_payloads=data.copy(),
                      rng=seed, tracer=tracer, **recursive)
    region = oram.tree.region if hasattr(oram, "tree") else oram.store_region
    mirror = data.copy()
    for op, *args in ops:
        if tracer is not None:
            tracer.clear()
        reads, writes = oram.stats.bucket_reads, oram.stats.bucket_writes
        if op == "read":
            np.testing.assert_allclose(oram.read(args[0]), mirror[args[0]],
                                       atol=1e-12)
        elif op == "write":
            payload = np.full(WIDTH, args[1])
            oram.write(args[0], payload)
            mirror[args[0]] = payload
        elif op == "batch":
            got = oram.access_batch(
                [block for block, _ in args[0]],
                [None if delta is None else (lambda row, d=delta: row + d)
                 for _, delta in args[0]])
            for row, (block, delta) in zip(got, args[0]):
                np.testing.assert_allclose(row, mirror[block], atol=1e-12)
                if delta is not None:
                    mirror[block] = mirror[block] + delta
        check_level_invariants(oram)
        if tracer is None:
            continue
        read_events = sum(event.region == region and event.op == READ
                          for event in tracer)
        write_events = sum(event.region == region and event.op == WRITE
                           for event in tracer)
        if oram_class is RingORAM:
            # Ring's metadata reads are events it does not count as reads.
            assert read_events >= oram.stats.bucket_reads - reads
        else:
            assert read_events == oram.stats.bucket_reads - reads
        assert write_events == oram.stats.bucket_writes - writes
    # Every block still intact at the end.
    for block in range(num_blocks):
        np.testing.assert_allclose(oram.read(block), mirror[block],
                                   atol=1e-12)


@given(ops=operations, seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_path_oram_is_a_kv_store(ops, seed):
    run_model_check(PathORAM, ops, seed)


@given(ops=operations, seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_circuit_oram_is_a_kv_store(ops, seed):
    run_model_check(CircuitORAM, ops, seed)


@pytest.mark.parametrize("oram_class", [RingORAM, SqrtORAM],
                         ids=["ring", "sqrt"])
@given(ops=operations, seed=st.integers(0, 2**16))
# Ring's EvictPath (every 4th access) counted six full-bucket reads and
# emitted no event.
@example(ops=[("read", 0)] * 4, seed=0)
@settings(max_examples=15, deadline=None)
def test_sequential_batch_schemes_are_kv_stores(oram_class, ops, seed):
    run_model_check(oram_class, ops, seed)


@pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM],
                         ids=["path", "circuit"])
@given(ops=operations_over(300, batch_ids=40), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_tree_orams_over_a_two_level_recursive_map_are_kv_stores(
        oram_class, ops, seed):
    """300 blocks at cutoff 16: the map is a 19-chunk ORAM whose own map is
    a 2-chunk ORAM, and batches go down as one child batch per level."""
    run_model_check(oram_class, ops, seed, num_blocks=300,
                    recursion_cutoff=16)


@given(levels=st.integers(0, 40), data=st.data())
@settings(max_examples=60, deadline=None)
def test_common_depth_over_an_array_matches_the_scalar(levels, data):
    tree = BucketTree.__new__(BucketTree)
    tree.levels = levels
    leaf = st.integers(0, (1 << levels) - 1)
    anchor = data.draw(leaf)
    others = data.draw(st.lists(leaf, min_size=1, max_size=12)) + [anchor]
    got = tree.common_depth(np.array(others, dtype=np.int64), anchor)
    assert got.tolist() == [tree.common_depth(other, anchor)
                            for other in others]
    assert tree.common_depth(anchor, anchor) == levels


@given(seed=st.integers(0, 2**16))
@settings(max_examples=5, deadline=None)
def test_recursive_circuit_oram_is_a_kv_store(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(100, WIDTH))
    oram = CircuitORAM(100, WIDTH, initial_payloads=data.copy(),
                       recursion_cutoff=16, rng=seed)
    mirror = data.copy()
    for _ in range(60):
        block = int(rng.integers(0, 100))
        if rng.random() < 0.5:
            np.testing.assert_allclose(oram.read(block), mirror[block])
        else:
            value = rng.normal(size=WIDTH)
            oram.write(block, value)
            mirror[block] = value
