"""Algorithm 3 allocation tests + end-to-end hybrid DLRM wiring."""

import math

import numpy as np
import pytest

from repro.data.criteo import KAGGLE_TABLE_SIZES
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.hybrid import TECHNIQUE_DHE, TECHNIQUE_SCAN, HybridEmbedding
from repro.hybrid.allocator import (
    FeatureAllocation,
    allocate_by_threshold,
    allocate_for_configuration,
    allocation_technique,
    apply_allocations,
    count_scan_features,
)
from repro.hybrid.thresholds import ThresholdDatabase, ThresholdKey


class TestAllocateByThreshold:
    def test_split(self):
        allocations = allocate_by_threshold((10, 100, 1000), threshold=100)
        assert [a.technique for a in allocations] == \
            [TECHNIQUE_SCAN, TECHNIQUE_SCAN, TECHNIQUE_DHE]

    def test_zero_threshold_all_dhe(self):
        allocations = allocate_by_threshold((10, 100), threshold=0.0)
        assert count_scan_features(allocations) == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            allocate_by_threshold((10,), threshold=-1)

    def test_kaggle_split_at_paper_threshold(self):
        """Paper §VI-B4: 16 of 26 Kaggle tables scan. Kaggle uses dim 16,
        whose scan/DHE threshold sits near 1e4 (scanning narrow rows is
        cheap)."""
        allocations = allocate_by_threshold(KAGGLE_TABLE_SIZES, 10_000)
        assert count_scan_features(allocations) == 16


class TestAllocationTechnique:
    def test_names_the_backend_technique(self):
        scan, dhe = allocate_by_threshold((10, 5000), 100.0)
        assert allocation_technique(scan) == "scan"
        assert allocation_technique(scan, varied=False) == "scan"
        assert allocation_technique(dhe) == "dhe-varied"
        assert allocation_technique(dhe, varied=False) == "dhe-uniform"

    def test_misspelt_technique_is_not_priced_as_dhe(self):
        with pytest.raises(ValueError, match="'DHE'"):
            allocation_technique(FeatureAllocation(3, 5000, "DHE"))


class TestAllocateForConfiguration:
    def _db(self, value):
        db = ThresholdDatabase(dhe_technique="dhe-uniform")
        db.thresholds[ThresholdKey(64, 32, 1)] = value
        return db

    def test_uses_profiled_threshold(self):
        allocations = allocate_for_configuration((10, 5000), self._db(100.0),
                                                 dim=64, batch=32, threads=1)
        assert [a.technique for a in allocations] == \
            [TECHNIQUE_SCAN, TECHNIQUE_DHE]

    def test_infinite_threshold_all_scan(self):
        allocations = allocate_for_configuration((10, 5000),
                                                 self._db(math.inf),
                                                 dim=64, batch=32, threads=1)
        assert count_scan_features(allocations) == 2


class TestAllocatorEdgeCases:
    """Previously untested paths: empty table set, a one-row table, and a
    profile that forces every table over the threshold (uniform DHE)."""

    def _db(self, value):
        db = ThresholdDatabase(dhe_technique="dhe-uniform")
        db.thresholds[ThresholdKey(64, 32, 1)] = value
        return db

    def test_empty_table_list_yields_no_allocations(self):
        allocations = allocate_for_configuration((), self._db(100.0),
                                                 dim=64, batch=32, threads=1)
        assert allocations == []
        assert count_scan_features(allocations) == 0

    def test_empty_table_list_with_infinite_threshold(self):
        # The inf clamp used to call max() on the empty set and crash.
        allocations = allocate_for_configuration((), self._db(math.inf),
                                                 dim=64, batch=32, threads=1)
        assert allocations == []

    def test_empty_table_list_by_threshold(self):
        assert allocate_by_threshold((), threshold=100.0) == []

    def test_single_one_row_table_scans(self):
        # A one-row table is the degenerate scan: any positive threshold
        # covers it, and the sweep is a single row.
        allocations = allocate_for_configuration((1,), self._db(100.0),
                                                 dim=64, batch=32, threads=1)
        assert [a.technique for a in allocations] == [TECHNIQUE_SCAN]
        assert allocations[0].table_size == 1

    def test_single_one_row_table_hybrid_end_to_end(self):
        hybrid = HybridEmbedding(DHEEmbedding(1, 4, k=8, fc_sizes=(8,),
                                              rng=0))
        allocations = allocate_by_threshold((1,), threshold=1.0)
        apply_allocations([hybrid], allocations)
        assert hybrid.active == TECHNIQUE_SCAN
        out = hybrid.generate(np.array([0, 0, 0]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out[0], out[1], atol=0)

    def test_all_tables_over_threshold_forces_uniform_dhe(self):
        # Threshold 0 (DHE always cheaper on the profiled grid): every
        # feature flips to the DHE representation.
        sizes = (10, 100, 1000)
        allocations = allocate_for_configuration(sizes, self._db(0.0),
                                                 dim=64, batch=32, threads=1)
        assert [a.technique for a in allocations] == [TECHNIQUE_DHE] * 3
        hybrids = [HybridEmbedding(DHEEmbedding(size, 4, k=8, fc_sizes=(8,),
                                                rng=i))
                   for i, size in enumerate(sizes)]
        apply_allocations(hybrids, allocations)
        assert all(h.active == TECHNIQUE_DHE for h in hybrids)


class TestApplyAllocations:
    def _hybrids(self, sizes):
        return [HybridEmbedding(DHEEmbedding(size, 4, k=8, fc_sizes=(8,),
                                             rng=i))
                for i, size in enumerate(sizes)]

    def test_flips_representations(self):
        sizes = (20, 5000)
        hybrids = self._hybrids(sizes)
        allocations = allocate_by_threshold(sizes, threshold=100)
        apply_allocations(hybrids, allocations)
        assert hybrids[0].active == TECHNIQUE_SCAN
        assert hybrids[1].active == TECHNIQUE_DHE

    def test_outputs_unchanged_by_allocation(self):
        """Switching representations must not change the model function —
        the paper's 'no accuracy loss' hybrid property."""
        sizes = (20, 40)
        hybrids = self._hybrids(sizes)
        indices = [np.array([3, 7]), np.array([11, 39])]
        before = [h.generate(i) for h, i in zip(hybrids, indices)]
        apply_allocations(hybrids, allocate_by_threshold(sizes, 30))
        after = [h.generate(i) for h, i in zip(hybrids, indices)]
        for b, a in zip(before, after):
            np.testing.assert_allclose(b, a, atol=1e-12)

    def test_count_mismatch_raises(self):
        hybrids = self._hybrids((20,))
        with pytest.raises(ValueError):
            apply_allocations(hybrids, allocate_by_threshold((20, 30), 25))

    def test_size_mismatch_raises(self):
        hybrids = self._hybrids((20,))
        allocations = allocate_by_threshold((21,), 25)
        with pytest.raises(ValueError):
            apply_allocations(hybrids, allocations)
