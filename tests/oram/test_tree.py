"""BucketTree structure and addressing tests."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram.tree import DUMMY, BucketTree, tree_levels_for


class TestTreeLevels:
    @pytest.mark.parametrize("blocks,levels", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (64, 6), (65, 7),
        (10**6, 20),
    ])
    def test_levels(self, blocks, levels):
        assert tree_levels_for(blocks) == levels

    def test_invalid(self):
        with pytest.raises(ValueError):
            tree_levels_for(0)


class TestPathIndices:
    def test_root_only(self):
        tree = BucketTree(1, 2)
        assert tree.path_indices(0) == [0]

    def test_left_and_right_leaves(self):
        tree = BucketTree(4, 2)  # 2 levels, 4 leaves, 7 buckets
        assert tree.path_indices(0) == [0, 1, 3]
        assert tree.path_indices(3) == [0, 2, 6]

    def test_path_ends_at_distinct_leaf_buckets(self):
        tree = BucketTree(8, 2)
        leaf_buckets = {tree.path_indices(leaf)[-1]
                        for leaf in range(tree.num_leaves)}
        assert len(leaf_buckets) == tree.num_leaves

    def test_out_of_range_leaf(self):
        tree = BucketTree(4, 2)
        with pytest.raises(IndexError):
            tree.path_indices(4)

    def test_paths_share_prefix_by_common_depth(self):
        tree = BucketTree(16, 2)
        for a in range(tree.num_leaves):
            for b in range(tree.num_leaves):
                depth = tree.common_depth(a, b)
                pa, pb = tree.path_indices(a), tree.path_indices(b)
                shared = sum(1 for x, y in zip(pa, pb) if x == y)
                assert shared == depth + 1  # root always shared


class TestCommonDepth:
    def test_same_leaf_full_depth(self):
        tree = BucketTree(8, 2)
        assert tree.common_depth(5, 5) == tree.levels

    def test_opposite_halves_zero(self):
        tree = BucketTree(8, 2)
        assert tree.common_depth(0, tree.num_leaves - 1) == 0


class TestBucketAccess:
    def test_read_write_roundtrip(self, rng):
        tree = BucketTree(8, 3, bucket_size=2)
        ids = np.array([5, DUMMY])
        leaves = np.array([3, 0])
        payloads = rng.normal(size=(2, 3))
        tree.write_bucket(4, ids, leaves, payloads)
        got_ids, got_leaves, got_payloads = tree.read_bucket(4)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_allclose(got_payloads, payloads)

    def test_traced(self):
        tracer = MemoryTracer()
        tree = BucketTree(8, 3, region="tr")
        tree.tracer = tracer
        tree.read_bucket(0)
        tree.read_bucket_metadata(1)
        assert tracer.addresses("tr") == [0, 1]

    def test_occupancy_and_find_slot(self):
        tree = BucketTree(4, 2, bucket_size=2)
        assert tree.occupancy() == 0
        assert tree.find_slot(0) == 0
        tree.ids[0, 0] = 7
        assert tree.occupancy() == 1
        assert tree.find_slot(0) == 1
        tree.ids[0, 1] = 8
        assert tree.find_slot(0) is None


class TestPlaceInitial:
    def test_places_deepest_first(self):
        tree = BucketTree(4, 2, bucket_size=1)
        assert tree.place_initial(0, leaf=2, payload=np.zeros(2))
        leaf_bucket = tree.path_indices(2)[-1]
        assert tree.ids[leaf_bucket, 0] == 0

    def test_walks_up_when_full(self):
        tree = BucketTree(4, 2, bucket_size=1)
        path = tree.path_indices(1)
        for block in range(len(path)):
            assert tree.place_initial(block, 1, np.zeros(2))
        # Path now full root-to-leaf; next placement on same path fails.
        assert not tree.place_initial(99, 1, np.zeros(2))
