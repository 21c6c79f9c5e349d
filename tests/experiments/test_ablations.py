"""Design-space ablations DESIGN.md §5 points at (no registry id).

* DHE: hash-count/FC-width quality-vs-cost, the adopted k-only Varied
  sizing rule vs the aggressive all-width shrink (Table IV), TT vs DHE.
* ORAM: eviction discipline (Path vs Circuit), ZeroTrace tree packing,
  Ring ORAM's bandwidth/memory trade, the position-map recursion cutoff.

Wall-clock shape (scan linear, ORAM sub-linear, DHE flat, DHE ~k^2) is
measured by ``python3 -m bench`` (``shape.*_slope``, ``costmodel.*_ratio``
probes), not asserted here.
"""

import numpy as np

from repro.costmodel.latency import (
    CIRCUIT_RECURSION_CUTOFF,
    DLRM_DHE_UNIFORM_16,
    DheShape,
    dhe_latency,
    dhe_varied_shape,
    oram_access_bytes,
    varied_scale_factor,
)
from repro.costmodel.memory import dhe_bytes
from repro.data import KAGGLE_TABLE_SIZES
from repro.embedding import DHEEmbedding, TTEmbedding
from repro.nn.losses import mse
from repro.nn.optim import Adam
from repro.oram import CircuitORAM, PathORAM, RingORAM

N, WIDTH = 256, 8


def fit_quality(k, width, steps=250, rows=64, dim=8, seed=0):
    """Final MSE of a DHE stack trained to reproduce a random table."""
    target = np.random.default_rng(seed).normal(size=(rows, dim))
    dhe = DHEEmbedding(rows, dim, k=k, fc_sizes=(width,), rng=seed)
    optimizer = Adam(dhe.parameters(), lr=0.01)
    indices = np.arange(rows)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = mse(dhe(indices), target)
        loss.backward()
        optimizer.step()
    return loss.item()


def run_workload(oram, accesses=200, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(accesses):
        oram.read(int(rng.integers(0, oram.num_blocks)))
    return oram


class TestDheAblations:
    def test_capacity_buys_quality_and_costs_latency(self):
        """Bigger stacks fit better — the accuracy/latency dial of §IV-A3."""
        assert fit_quality(k=64, width=128) < 0.5 * fit_quality(k=8, width=8)
        assert dhe_latency(DheShape(64, (128,), 8), 32) > \
            dhe_latency(DheShape(8, (8,), 8), 32)

    def test_varied_rule_k_only_vs_all_width(self):
        """Table IV: the adopted k-only 0.125x/decade rule matches the
        paper's measured Varied/Uniform ratios (latency ~0.57, memory ~0.49
        on Kaggle); shrinking all widths overshoots both by far."""
        def ratios(shape_for):
            shapes = [shape_for(size) for size in KAGGLE_TABLE_SIZES]
            uniform = len(shapes)
            return (sum(dhe_latency(s, 32) for s in shapes)
                    / (uniform * dhe_latency(DLRM_DHE_UNIFORM_16, 32)),
                    sum(dhe_bytes(s) for s in shapes)
                    / (uniform * dhe_bytes(DLRM_DHE_UNIFORM_16)))

        k_only = ratios(lambda size: dhe_varied_shape(size,
                                                      DLRM_DHE_UNIFORM_16))
        all_width = ratios(lambda size: DLRM_DHE_UNIFORM_16.scaled(
            varied_scale_factor(size)))
        for adopted, aggressive in zip(k_only, all_width):
            assert 0.25 < adopted < 0.8
            assert aggressive < 0.5 * adopted

    def test_tt_compresses_harder_but_is_not_oblivious(self):
        """The security/efficiency separation of §VII."""
        rows, dim = 100_000, 16
        tt = TTEmbedding(rows, dim, rank=8, rng=0)
        dhe = DHEEmbedding(rows, dim, k=256, fc_sizes=(128,), rng=0)
        assert tt.footprint_bytes() < dhe.footprint_bytes() < rows * dim * 4
        assert not tt.is_oblivious and dhe.is_oblivious
        assert tt.modelled_latency(32) < dhe.modelled_latency(32)


class TestOramAblations:
    def test_eviction_discipline(self):
        """Circuit runs with a 15x smaller stash than Path's full-path
        writeback and moves far fewer oblivious bytes — §IV-A2's rationale
        for preferring Circuit ORAM."""
        path = run_workload(PathORAM(N, WIDTH, rng=1))
        circuit = run_workload(CircuitORAM(N, WIDTH, rng=1))
        assert path.stash.peak_occupancy > circuit.stash.peak_occupancy
        assert PathORAM.DEFAULT_STASH / CircuitORAM.DEFAULT_STASH == 15
        assert oram_access_bytes("path", 10**6, 64) > \
            5 * oram_access_bytes("circuit", 10**6, 64)

    def test_tree_packing_cuts_memory_threefold(self):
        """ZeroTrace's n/Z packing is what makes Table VI's ORAM footprint
        ~330% instead of ~800%; it stays a correct store."""
        loose = run_workload(PathORAM(N, WIDTH, rng=3))
        packed = run_workload(PathORAM(N, WIDTH, pack_factor=4, rng=3))
        assert (packed.tree.num_buckets * packed.bucket_size
                <= loose.tree.num_buckets * loose.bucket_size / 3)
        assert packed.stash.peak_occupancy >= loose.stash.peak_occupancy
        assert packed.total_resident_blocks() == N

    def test_ring_trades_memory_for_bucket_traffic(self):
        """§VII's 'other ORAM proposals': single-slot reads touch fewer
        buckets per access than Path, paid for with Z+S slots per bucket."""
        traffic = {}
        for name, cls in (("ring", RingORAM), ("path", PathORAM)):
            oram = run_workload(cls(N, WIDTH, rng=9), accesses=100)
            traffic[name] = (oram.stats.bucket_reads
                             + oram.stats.bucket_writes) / 100
        assert traffic["ring"] < traffic["path"]
        ring, path = RingORAM(N, WIDTH, rng=0), PathORAM(N, WIDTH, rng=0)
        assert (ring.tree.num_buckets * ring.bucket_size
                > path.tree.num_buckets * path.bucket_size)

    def test_recursing_past_the_cutoff_adds_a_child_access(self):
        """The paper enables position-map recursion only past the cutoff
        (2^12 Circuit / 2^16 Path): just above it an access costs more."""
        assert oram_access_bytes("circuit", CIRCUIT_RECURSION_CUTOFF + 1, 64) \
            > oram_access_bytes("circuit", CIRCUIT_RECURSION_CUTOFF, 64)
