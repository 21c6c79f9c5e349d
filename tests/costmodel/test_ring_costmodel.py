"""Ring ORAM entries in the cost model."""

from repro.costmodel.latency import oram_access_bytes, oram_latency
from repro.costmodel.memory import tree_oram_bytes


class TestRingLatencyModel:
    def test_between_circuit_and_path(self):
        for rows in (10**4, 10**6):
            ring = oram_latency("ring", rows, 64, 1)
            circuit = oram_latency("circuit", rows, 64, 1)
            path = oram_latency("path", rows, 64, 1)
            assert circuit < ring < path

    def test_polylog_growth(self):
        ratio = (oram_access_bytes("ring", 10**7, 64)
                 / oram_access_bytes("ring", 10**4, 64))
        assert 1.0 < ratio < 10.0


class TestRingMemoryModel:
    def test_dummies_cost_memory(self):
        ring = tree_oram_bytes(10**5, 64, scheme="ring")
        path = tree_oram_bytes(10**5, 64, scheme="path")
        assert ring > 1.5 * path

