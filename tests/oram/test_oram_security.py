"""ORAM security properties.

ORAM security is distributional (the revealed leaf sequence is uniform and
independent of the logical access sequence), so these tests check:

1. the *structure* of the trace (ops/regions sequence and event count) is
   identical for any two access sequences of the same length;
2. the revealed path leaves are statistically uniform whichever block is
   (repeatedly) requested;
3. repeated access to the same block does not reveal repeated leaves
   (remapping works).
"""

import numpy as np
import pytest
from scipy import stats

from repro.oblivious.trace import MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.telemetry.audit import trace_structure

ORAM_CLASSES = [PathORAM, CircuitORAM]


@pytest.fixture(params=ORAM_CLASSES, ids=["path", "circuit"])
def oram_class(request):
    return request.param


class TestTraceStructureConstant:
    def test_structure_independent_of_access_sequence(self, oram_class):
        structures = []
        for sequence in ([0] * 20, [15] * 20,
                         list(range(16)) + [3, 7, 3, 7]):
            tracer = MemoryTracer()
            oram = oram_class(16, 4, rng=42, tracer=tracer)
            tracer.clear()  # discard initialization traffic
            for block in sequence:
                oram.read(block)
            structures.append(trace_structure(tracer.snapshot()))
        assert structures[0] == structures[1] == structures[2]

    def test_reads_and_writes_same_structure(self, oram_class):
        structures = []
        for do_write in (False, True):
            tracer = MemoryTracer()
            oram = oram_class(16, 4, rng=7, tracer=tracer)
            tracer.clear()
            for block in range(8):
                if do_write:
                    oram.write(block, np.zeros(4))
                else:
                    oram.read(block)
            structures.append(trace_structure(tracer.snapshot()))
        assert structures[0] == structures[1]


class TestLeafDistribution:
    def test_revealed_leaves_uniform_chi_square(self, oram_class):
        """Whatever block is hammered, observed leaves look uniform."""
        num_blocks = 32
        trials = 1500
        for target_block in (0, 31):
            oram = oram_class(num_blocks, 2, rng=123)
            oram.stats.reset()
            for _ in range(trials):
                oram.read(target_block)
            leaves = np.asarray(oram.stats.revealed_leaves)
            counts = np.bincount(leaves, minlength=oram.tree.num_leaves)
            _, p_value = stats.chisquare(counts)
            assert p_value > 0.001, (
                f"leaf distribution for block {target_block} is non-uniform "
                f"(p={p_value:.2e})")

    def test_two_blocks_indistinguishable_by_leaf_mean(self, oram_class):
        oram = oram_class(32, 2, rng=9)
        observations = {}
        for block in (3, 28):
            oram.stats.reset()
            for _ in range(800):
                oram.read(block)
            observations[block] = np.asarray(oram.stats.revealed_leaves)
        _, p_value = stats.ks_2samp(observations[3], observations[28])
        assert p_value > 0.001


class TestRemapping:
    def test_same_block_reveals_fresh_leaves(self, oram_class):
        oram = oram_class(64, 2, rng=11)
        oram.stats.reset()
        for _ in range(50):
            oram.read(5)
        leaves = oram.stats.revealed_leaves
        # With 64 leaves and remapping, 50 accesses should span many leaves.
        assert len(set(leaves)) > 10

    def test_nonsecure_lookup_contrast(self):
        """The vulnerable table touches ONE address per lookup — the
        separation the Fig 3 attack exploits."""
        from repro.embedding.table import TableEmbedding

        table = TableEmbedding(64, 2, rng=0)
        tracer = MemoryTracer()
        for _ in range(50):
            table.generate_traced(np.array([5]), tracer)
        assert set(tracer.addresses()) == {5}
