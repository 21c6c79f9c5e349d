"""Stash tests: capacity, oblivious full-scan traffic, eviction."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram.stash import Stash, StashOverflowError


class TestStashBasics:
    def test_add_remove_roundtrip(self, rng):
        stash = Stash(4, 3)
        payload = rng.normal(size=3)
        stash.add(7, leaf=2, payload=payload)
        assert stash.occupancy == 1
        leaf, got = stash.remove(7)
        assert leaf == 2
        np.testing.assert_allclose(got, payload)
        assert stash.occupancy == 0

    def test_remove_absent_returns_none(self):
        stash = Stash(4, 3)
        assert stash.remove(99) is None

    def test_peek_does_not_remove(self, rng):
        stash = Stash(4, 3)
        stash.add(1, 0, rng.normal(size=3))
        assert stash.peek(1) is not None
        assert stash.occupancy == 1

    def test_update(self, rng):
        stash = Stash(4, 3)
        stash.add(1, 0, np.zeros(3))
        assert stash.update(1, leaf=5, payload=np.ones(3))
        leaf, payload = stash.peek(1)
        assert leaf == 5
        np.testing.assert_allclose(payload, np.ones(3))

    def test_update_absent_false(self):
        assert not Stash(4, 3).update(9, leaf=1)

    def test_overflow_raises(self):
        stash = Stash(2, 3)
        stash.add(0, 0, np.zeros(3))
        stash.add(1, 0, np.zeros(3))
        with pytest.raises(StashOverflowError):
            stash.add(2, 0, np.zeros(3))

    def test_peak_occupancy_tracked(self):
        stash = Stash(4, 3)
        stash.add(0, 0, np.zeros(3))
        stash.add(1, 0, np.zeros(3))
        stash.remove(0)
        assert stash.peak_occupancy == 2


class TestStashObliviousTraffic:
    def test_every_operation_scans_full_capacity(self):
        tracer = MemoryTracer()
        stash = Stash(8, 3, region="s")
        stash.tracer = tracer
        stash.add(1, 0, np.zeros(3))
        assert len(tracer.addresses("s")) == 8
        tracer.clear()
        stash.remove(99)  # absent: still a full scan
        assert len(tracer.addresses("s")) == 8
        tracer.clear()
        stash.resident_blocks()
        assert len(tracer.addresses("s")) == 8


class TestEvictMatching:
    def test_removes_only_matching(self, rng):
        stash = Stash(6, 2)
        stash.add(0, leaf=1, payload=np.zeros(2))
        stash.add(1, leaf=2, payload=np.ones(2))
        stash.add(2, leaf=1, payload=2 * np.ones(2))
        ids, leaves, payloads = stash.evict_matching(lambda leaf: leaf == 1)
        assert ids.tolist() == [0, 2]      # slot order
        assert leaves.tolist() == [1, 1]
        np.testing.assert_array_equal(payloads, [[0, 0], [2, 2]])
        assert stash.occupancy == 1
        assert stash.peek(1) is not None
