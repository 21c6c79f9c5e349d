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

NUM_BLOCKS = 24
WIDTH = 2

blocks = st.integers(0, NUM_BLOCKS - 1)
values = st.floats(-100, 100, allow_nan=False)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("read"), blocks),
        st.tuples(st.just("write"), blocks, values),
        # ids from a narrow range, so most batches carry duplicates; a
        # slot's value is added to its row, ``None`` leaves it alone
        st.tuples(st.just("batch"), st.lists(
            st.tuples(st.integers(0, 5), st.none() | values),
            min_size=1, max_size=8)),
        st.tuples(st.just("evict"), st.integers(1, 2)),
    ),
    min_size=1, max_size=40,
)


def run_model_check(oram_class, ops, seed):
    """Drive ``ops`` against a dict-like mirror, checking after every op:
    returned values, block conservation, the stash bound, and that each
    counted bucket read/write emitted its tree (or store) event."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(NUM_BLOCKS, WIDTH))
    tracer = MemoryTracer()
    oram = oram_class(NUM_BLOCKS, WIDTH, initial_payloads=data.copy(),
                      rng=seed, tracer=tracer)
    region = oram.tree.region if hasattr(oram, "tree") else oram.store_region
    mirror = data.copy()
    for op, *args in ops:
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
        else:
            oram.background_evict(args[0])
        assert oram.total_resident_blocks() == NUM_BLOCKS
        assert oram.stash.occupancy <= oram.persistent_stash_capacity
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
    for block in range(NUM_BLOCKS):
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
# Ring's EvictPath counted six full-bucket reads and emitted no event.
@example(ops=[("evict", 1)], seed=0)
@settings(max_examples=15, deadline=None)
def test_sequential_batch_schemes_are_kv_stores(oram_class, ops, seed):
    run_model_check(oram_class, ops, seed)


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
