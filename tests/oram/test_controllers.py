"""Functional tests for Path ORAM and Circuit ORAM controllers."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram import bit_reverse
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM
from tests.conftest import tracer_bindings

ORAM_CLASSES = [PathORAM, CircuitORAM]


@pytest.fixture(params=ORAM_CLASSES, ids=["path", "circuit"])
def oram_class(request):
    return request.param


class TestBasicAccess:
    def test_initial_payloads_readable(self, oram_class, rng):
        data = rng.normal(size=(32, 4))
        oram = oram_class(32, 4, initial_payloads=data.copy(), rng=1)
        for block in range(32):
            np.testing.assert_allclose(oram.read(block), data[block])

    def test_write_then_read(self, oram_class, rng):
        oram = oram_class(16, 4, rng=1)
        value = rng.normal(size=4)
        oram.write(5, value)
        np.testing.assert_allclose(oram.read(5), value)

    def test_repeated_reads_stable(self, oram_class, rng):
        data = rng.normal(size=(16, 4))
        oram = oram_class(16, 4, initial_payloads=data.copy(), rng=2)
        for _ in range(10):
            np.testing.assert_allclose(oram.read(7), data[7])

    def test_access_update_fn_returns_old(self, oram_class):
        oram = oram_class(8, 2, rng=0)
        oram.write(3, np.array([1.0, 2.0]))
        old = oram.access(3, lambda p: p * 10)
        np.testing.assert_allclose(old, [1.0, 2.0])
        np.testing.assert_allclose(oram.read(3), [10.0, 20.0])

    def test_out_of_range(self, oram_class):
        oram = oram_class(8, 2, rng=0)
        with pytest.raises(IndexError):
            oram.read(8)

    def test_bad_payload_shape(self, oram_class):
        oram = oram_class(8, 2, rng=0)
        with pytest.raises(ValueError):
            oram.write(0, np.zeros(3))

    def test_single_block_oram(self, oram_class):
        oram = oram_class(1, 2, initial_payloads=np.array([[5.0, 6.0]]),
                          rng=0)
        np.testing.assert_allclose(oram.read(0), [5.0, 6.0])
        oram.write(0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(oram.read(0), [1.0, 1.0])

    def test_block_conservation(self, oram_class, rng):
        oram = oram_class(24, 2, rng=3)
        for _ in range(100):
            oram.read(int(rng.integers(0, 24)))
            assert oram.total_resident_blocks() == 24

    def test_stats_counted(self, oram_class):
        oram = oram_class(16, 2, rng=0)
        oram.read(0)
        oram.read(1)
        assert oram.stats.accesses == 2
        assert oram.stats.bucket_reads > 0
        assert oram.stats.bucket_writes > 0
        assert len(oram.stats.revealed_leaves) == 2


@pytest.mark.parametrize("call", ["access", "access_batch"])
@pytest.mark.parametrize("scheme", [PathORAM, CircuitORAM, RingORAM, SqrtORAM],
                         ids=["path", "circuit", "ring", "sqrt"])
@pytest.mark.parametrize("bad", [lambda row: np.array([7.0]),
                                 lambda row: 1.5,
                                 lambda row: np.zeros((1, 4))],
                         ids=["short", "scalar", "2d"])
def test_update_fn_result_must_be_one_block_row(scheme, call, bad):
    """Path and Circuit (and the batched write-back the training loop
    uses) once broadcast a wrong-shaped result across the row: ``[7.]``
    became ``[7, 7, 7, 7]``, silently."""
    oram = scheme(16, 4, rng=0)
    with pytest.raises(ValueError, match="shape"):
        if call == "access":
            oram.access(3, bad)
        else:
            oram.access_batch([5, 6, 5], [None, bad, None])


def _boom(row):
    raise RuntimeError("update_fn failed")


@pytest.mark.parametrize("call", ["access", "access_batch"])
@pytest.mark.parametrize("scheme", [PathORAM, CircuitORAM, RingORAM, SqrtORAM],
                         ids=["path", "circuit", "ring", "sqrt"])
@pytest.mark.parametrize("bad", [_boom, lambda row: np.zeros(2)],
                         ids=["raises", "wrong-shape"])
def test_access_is_atomic_under_a_failing_update_fn(scheme, call, bad):
    """A raising ``update_fn`` used to leave the block *removed* on Path,
    Circuit and Ring — and the whole fetched union stranded in the stash,
    never written back, on the batched path. The access now completes
    (old payload, remap, write-back) and then the error propagates."""
    data = np.arange(64, dtype=np.float64).reshape(16, 4)
    oram = scheme(16, 4, initial_payloads=data.copy(), rng=0)
    bump = lambda row: row + 100.0
    with pytest.raises((RuntimeError, ValueError)):
        if call == "access":
            oram.access(3, bad)
        else:
            # Sequential-loop semantics: slot 0 lands, slot 1 fails and
            # keeps its row, slot 2 (after the failure) is not applied.
            oram.access_batch([5, 3, 6], [bump, bad, bump])
    assert oram.total_resident_blocks() == 16
    assert oram.stash.occupancy <= oram.persistent_stash_capacity
    expected = data.copy()
    if call == "access_batch":
        expected[5] += 100.0
    for block in range(16):
        np.testing.assert_array_equal(oram.read(block), expected[block])


@pytest.mark.parametrize("call", ["access", "access_batch"])
@pytest.mark.parametrize("scheme", [PathORAM, CircuitORAM],
                         ids=["path", "circuit"])
def test_failing_update_fn_leaves_the_trace_of_a_successful_access(scheme,
                                                                   call):
    digests = []
    for update_fn in (_boom, lambda row: row + 1.0):
        tracer = MemoryTracer()
        oram = scheme(16, 4, rng=0, tracer=tracer)
        tracer.clear()
        try:
            if call == "access":
                oram.access(3, update_fn)
            else:
                oram.access_batch([5, 3, 5], [None, update_fn, None])
        except RuntimeError:
            pass
        digests.append(tracer.digest())
    assert digests[0] == digests[1]



#: every controller, the tree ones over a two-level recursive map
BINDABLE = {
    "path": lambda **kw: PathORAM(64, 2, rng=3, recursion_cutoff=8, **kw),
    "circuit": lambda **kw: CircuitORAM(64, 2, rng=3, recursion_cutoff=8,
                                        **kw),
    "ring": lambda **kw: RingORAM(64, 2, rng=3, recursion_cutoff=8, **kw),
    "sqrt": lambda **kw: SqrtORAM(64, 2, rng=3, **kw),
}


def _drive(oram):
    for block in (0, 63, 7, 7, 40):
        oram.read(block)
    oram.access_batch([5, 9, 5])


@pytest.mark.parametrize("name", sorted(BINDABLE))
class TestTracerBinding:
    def test_binding_after_construction_equals_construction_time(self, name):
        at_build, after = MemoryTracer(), MemoryTracer()
        built = BINDABLE[name](tracer=at_build)
        bound = BINDABLE[name]()
        bound.tracer = after
        assert all(held is after for held in tracer_bindings(bound))
        _drive(built)
        _drive(bound)
        assert len(after)
        assert at_build.digest() == after.digest()
        if name != "sqrt":   # the child level's flat map recorded too
            assert any(event.region.endswith("posmap1") for event in after)

    def test_rebinding_to_none_records_nothing_further(self, name):
        tracer = MemoryTracer()
        oram = BINDABLE[name](tracer=tracer)
        _drive(oram)
        recorded = len(tracer)
        oram.tracer = None
        assert all(held is None for held in tracer_bindings(oram))
        _drive(oram)
        assert len(tracer) == recorded

class TestRecursion:
    def test_recursive_posmap_correctness(self, oram_class, rng):
        data = rng.normal(size=(200, 2))
        oram = oram_class(200, 2, initial_payloads=data.copy(),
                          recursion_cutoff=16, rng=4)
        mirror = data.copy()
        for _ in range(200):
            block = int(rng.integers(0, 200))
            if rng.random() < 0.5:
                np.testing.assert_allclose(oram.read(block), mirror[block])
            else:
                value = rng.normal(size=2)
                oram.write(block, value)
                mirror[block] = value

    def test_memory_blocks_includes_recursion(self, oram_class):
        flat = oram_class(100, 2, recursion_cutoff=1000, rng=0)
        recursive = oram_class(100, 2, recursion_cutoff=16, rng=0)
        assert recursive.memory_blocks() > flat.memory_blocks()


class TestCircuitSpecifics:
    def test_bit_reverse(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011
        assert bit_reverse(5, 0) == 0

    def test_eviction_counter_advances(self):
        oram = CircuitORAM(16, 2, rng=0)
        oram.read(0)
        assert oram._eviction_counter == 2
        oram.read(0)
        assert oram._eviction_counter == 4

    def test_small_stash_does_not_overflow_under_load(self, rng):
        oram = CircuitORAM(128, 2, rng=5)  # default stash: 10
        for _ in range(500):
            oram.read(int(rng.integers(0, 128)))
        assert oram.stash.peak_occupancy <= 10


class TestPathSpecifics:
    def test_default_stash_matches_paper(self):
        assert PathORAM.DEFAULT_STASH == 150
        assert CircuitORAM.DEFAULT_STASH == 10

    def test_default_recursion_cutoffs_match_paper(self):
        assert PathORAM.DEFAULT_RECURSION_CUTOFF == 1 << 16
        assert CircuitORAM.DEFAULT_RECURSION_CUTOFF == 1 << 12

    def test_bucket_size_is_z4(self):
        assert PathORAM(8, 2, rng=0).bucket_size == 4
