"""Stash overflow: the signal, telemetry, and correct reads afterwards.

The persistent stash bound counts blocks resident between accesses
(ZeroTrace convention). These tests drive Path and Circuit ORAM into
overflow and verify the resilience contract: the overflow signal fires
(stats counter, telemetry counter, StashOverflowError), the stash gauges
reflect the failing state, and once the pressure is relieved ordinary
accesses carry on without losing a block.

Pressure source per scheme: Path ORAM's greedy writeback leaves blocks
stranded in the stash under a zero bound; Circuit ORAM's two-pass
deterministic eviction keeps the stash empty at test sizes, so its
pressure model is *eviction starvation* — the per-access eviction stalls
(as under a fault) while reads keep depositing blocks into the stash.
"""

import numpy as np
import pytest

from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.sqrt_oram import SqrtORAM
from repro.oram.stash import StashOverflowError
from repro.telemetry.runtime import use_registry

BLOCKS = 64
WIDTH = 4


class EvictionStalledCircuitORAM(CircuitORAM):
    """Circuit ORAM whose per-access eviction can be stalled (starved)."""

    stalled = False

    def _deterministic_evict_pass(self):
        if not self.stalled:
            super()._deterministic_evict_pass()


def payloads(n=BLOCKS, width=WIDTH):
    return np.arange(n * width, dtype=np.float64).reshape(n, width)


def build_pressured(oram_class, seed=0):
    """An ORAM under stash pressure + a ``relieve()`` restoring health."""
    if oram_class is CircuitORAM:
        oram = EvictionStalledCircuitORAM(
            BLOCKS, WIDTH, initial_payloads=payloads(),
            stash_capacity=BLOCKS, rng=seed)
        oram.stalled = True

        def relieve():
            oram.stalled = False
            oram.persistent_stash_capacity = BLOCKS
    else:
        oram = oram_class(BLOCKS, WIDTH, initial_payloads=payloads(),
                          stash_capacity=BLOCKS, rng=seed)

        def relieve():
            oram.persistent_stash_capacity = BLOCKS

    oram.persistent_stash_capacity = 0
    return oram, relieve


def force_overflow(oram, max_accesses=4096):
    """Access until the overflow signal fires; fail if it never does."""
    for step in range(max_accesses):
        try:
            oram.read(step % BLOCKS)
        except StashOverflowError:
            return step
    pytest.fail("stash never overflowed under pressure")


@pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM])
class TestOverflowSignal:
    def test_signal_fires_and_is_counted(self, oram_class):
        oram, _ = build_pressured(oram_class)
        with use_registry() as registry:
            force_overflow(oram)
        assert oram.stats.stash_overflows == 1
        assert registry.counter("oram.stash_overflows_total").value == 1.0

    def test_gauges_reflect_the_failing_state(self, oram_class):
        oram, _ = build_pressured(oram_class)
        with use_registry() as registry:
            force_overflow(oram)
        # The try/finally flush exports the occupancy that caused the
        # failure, and the peak gauge is at least that high.
        occupancy = registry.gauge("oram.stash_occupancy").value
        peak = registry.gauge("oram.stash_peak_occupancy").value
        assert occupancy > 0
        assert peak >= occupancy
        assert peak >= oram.stash.occupancy


def overflow_once(scenario):
    """Drive one access shape into StashOverflowError; returns the ORAM
    and how many accesses were attempted, the failing one included."""
    if scenario == "tree":
        oram, _ = build_pressured(PathORAM)
        return oram, force_overflow(oram) + 1
    if scenario == "sqrt":
        oram = SqrtORAM(BLOCKS, WIDTH, rng=0)
        oram.persistent_stash_capacity = 1
        oram.read(0)
        with pytest.raises(StashOverflowError):
            oram.read(1)
        return oram, 2
    oram, _ = build_pressured(CircuitORAM)
    with pytest.raises(StashOverflowError):
        oram.access_batch(list(range(16)))
    return oram, 16


@pytest.mark.parametrize("scenario", ["tree", "sqrt", "batch"])
def test_failing_access_still_flushes_its_meters(scenario):
    """The one metering wrapper (``OramController._metered``) exports the
    failing access's own work and the stash state that caused it — for a
    tree access, a square-root access and a batched access alike."""
    with use_registry() as registry:
        oram, attempted = overflow_once(scenario)
    assert registry.counter("oram.accesses_total").value == attempted
    assert (registry.counter("oram.bucket_reads_total").value
            == oram.stats.bucket_reads > 0)
    assert (registry.counter("oram.bucket_writes_total").value
            == oram.stats.bucket_writes)
    assert (registry.counter("oram.eviction_passes_total").value
            == oram.stats.eviction_passes)
    assert (registry.gauge("oram.stash_occupancy").value
            == oram.stash.occupancy > 0)
    assert (registry.gauge("oram.stash_peak_occupancy").value
            == oram.stash.peak_occupancy)
    assert registry.counter("oram.stash_overflows_total").value == 1.0


@pytest.mark.parametrize("oram_class", [PathORAM, CircuitORAM])
class TestNormalOperationUnaffected:
    def test_generous_bound_never_overflows(self, oram_class):
        oram = oram_class(BLOCKS, WIDTH, initial_payloads=payloads(),
                          stash_capacity=BLOCKS, rng=0)
        for step in range(4 * BLOCKS):
            oram.read(step % BLOCKS)
        assert oram.stats.stash_overflows == 0

    def test_reads_after_recovery_stay_correct(self, oram_class):
        oram, relieve = build_pressured(oram_class)
        force_overflow(oram)
        relieve()
        # Conservation: every block still resident exactly once...
        assert oram.total_resident_blocks() == BLOCKS
        # ...and every payload still readable with its original value.
        expected = payloads()
        for step in range(2 * BLOCKS):
            block = step % BLOCKS
            assert np.array_equal(oram.read(block), expected[block])
