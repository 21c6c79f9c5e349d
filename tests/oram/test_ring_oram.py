"""Ring ORAM tests: correctness, protocol invariants, bandwidth advantage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram import PathORAM, RingORAM
from repro.oram.tree import DUMMY


class TestBasicAccess:
    def test_initial_payloads_readable(self, rng):
        data = rng.normal(size=(32, 4))
        oram = RingORAM(32, 4, initial_payloads=data.copy(), rng=1)
        for block in range(32):
            np.testing.assert_allclose(oram.read(block), data[block])

    def test_write_then_read(self, rng):
        oram = RingORAM(16, 4, rng=1)
        value = rng.normal(size=4)
        oram.write(5, value)
        np.testing.assert_allclose(oram.read(5), value)

    def test_repeated_access_same_block(self, rng):
        data = rng.normal(size=(16, 4))
        oram = RingORAM(16, 4, initial_payloads=data.copy(), rng=2)
        for _ in range(60):
            np.testing.assert_allclose(oram.read(7), data[7])

    def test_block_conservation(self, rng):
        oram = RingORAM(24, 2, rng=3)
        for _ in range(120):
            oram.read(int(rng.integers(0, 24)))
            assert oram.total_resident_blocks() == 24

    def test_bad_update_shape_rejected(self):
        oram = RingORAM(8, 2, rng=0)
        with pytest.raises(ValueError):
            oram.access(0, lambda payload: np.zeros(5))

    def test_single_block(self):
        oram = RingORAM(1, 2, initial_payloads=np.array([[1.0, 2.0]]), rng=0)
        np.testing.assert_allclose(oram.read(0), [1.0, 2.0])


class TestProtocolInvariants:
    def test_dummy_budget_respected(self, rng):
        """No bucket is ever touched more than S times between writes."""
        oram = RingORAM(32, 2, bucket_dummies=3, rng=4)
        for _ in range(200):
            oram.read(int(rng.integers(0, 32)))
            assert (oram._touches <= oram.bucket_dummies).all()

    def test_eviction_every_a_accesses(self, rng):
        oram = RingORAM(32, 2, evict_rate=4, rng=5)
        for _ in range(40):
            oram.read(int(rng.integers(0, 32)))
        assert oram.stats.eviction_passes == 10

    def test_consumed_slots_not_resurrected(self, rng):
        """A block read out of a bucket must not reappear from the stale
        (invalidated) tree copy after the fresh copy is updated."""
        data = rng.normal(size=(16, 2))
        oram = RingORAM(16, 2, initial_payloads=data.copy(), rng=6)
        oram.write(3, np.array([9.0, 9.0]))
        for _ in range(30):
            np.testing.assert_allclose(oram.read(3), [9.0, 9.0])

    def test_real_capacity_is_z(self, rng):
        """Bucket writes never install more than Z real blocks."""
        oram = RingORAM(64, 2, bucket_reals=4, bucket_dummies=4, rng=7)
        for _ in range(150):
            oram.read(int(rng.integers(0, 64)))
        reals_per_bucket = (oram.tree.ids[:, :] != DUMMY).sum(axis=1)
        assert (reals_per_bucket <= oram.bucket_reals).all()


    def test_evict_path_stash_traffic_is_one_constant(self):
        """EvictPath scans the stash once per path-bucket slot on the way
        in and once per bucket on the way out — never once per live or
        overflow block, whose counts follow the secret access history."""
        from repro.oblivious.trace import MemoryTracer
        from repro.telemetry.audit import contrasting_secrets

        per_pass = set()
        for seed in range(20):
            for secret in contrasting_secrets(64, 24):
                tracer = MemoryTracer()
                oram = RingORAM(64, 2, rng=seed, tracer=tracer)
                for block in secret:
                    oram.read(block)
                for _ in range(4):
                    tracer.clear()
                    oram._evict_path(oram._next_eviction_leaf())
                    per_pass.add(sum(event.region.endswith("stash0")
                                     for event in tracer))
                assert oram.total_resident_blocks() == 64
        scans = (oram.tree.levels + 1) * (oram.bucket_size + 1)
        assert per_pass == {scans * oram.stash.capacity}


class TestBandwidthAdvantage:
    def test_fewer_payload_touches_than_path(self, rng):
        """Ring's single-slot reads beat Path's full-bucket fetches."""
        counts = {}
        for name, cls in (("ring", RingORAM), ("path", PathORAM)):
            oram = cls(64, 4, rng=8)
            for _ in range(100):
                oram.read(int(rng.integers(0, 64)))
            counts[name] = (oram.stats.bucket_reads
                            + oram.stats.bucket_writes) / 100
        assert counts["ring"] < counts["path"]


class TestStatistical:
    def test_revealed_leaves_spread(self, rng):
        oram = RingORAM(64, 2, rng=9)
        oram.stats.reset()
        for _ in range(300):
            oram.read(5)
        assert len(set(oram.stats.revealed_leaves)) > 15


@given(seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_ring_oram_is_a_kv_store(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(24, 2))
    oram = RingORAM(24, 2, initial_payloads=data.copy(), rng=seed)
    mirror = data.copy()
    for _ in range(60):
        block = int(rng.integers(0, 24))
        if rng.random() < 0.5:
            np.testing.assert_allclose(oram.read(block), mirror[block])
        else:
            value = rng.normal(size=2)
            oram.write(block, value)
            mirror[block] = value
