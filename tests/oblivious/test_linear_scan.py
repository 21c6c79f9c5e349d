"""Linear-scan lookup: correctness + the full-sweep access pattern.

The batched scan is :class:`LinearScanEmbedding`'s eval-mode ``forward``;
its traced run (``generate_traced``) declares one full sweep of
``scan.table`` per query and is checked here against the scalar
reference :func:`linear_scan_lookup`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.scan import LinearScanEmbedding
from repro.oblivious.linear_scan import (
    linear_scan_batch_vectorized,
    linear_scan_lookup,
)
from repro.oblivious.trace import MemoryTracer, TracedArray

REGION = "scan.table"


def traced_scan(table, indices, tracer=None):
    """The scan generator's traced run over ``table``."""
    scan = LinearScanEmbedding(*table.shape, weight=table)
    if tracer is None:
        tracer = MemoryTracer()
    return scan.generate_traced(np.asarray(indices), tracer)


@pytest.fixture
def table(rng):
    return rng.normal(size=(20, 6))


class TestLinearScanLookup:
    def test_retrieves_correct_row(self, table):
        traced = TracedArray(table, "t")
        for index in (0, 7, 19):
            np.testing.assert_allclose(linear_scan_lookup(traced, index),
                                       table[index])

    def test_touches_every_row_in_order(self, table):
        tracer = MemoryTracer()
        traced = TracedArray(table, "t", tracer)
        linear_scan_lookup(traced, 13)
        assert tracer.addresses("t") == list(range(20))

    def test_trace_independent_of_index(self, table):
        digests = set()
        for index in (0, 5, 19):
            tracer = MemoryTracer()
            linear_scan_lookup(TracedArray(table, "t", tracer), index)
            digests.add(tracer.digest())
        assert len(digests) == 1

    def test_out_of_range(self, table):
        with pytest.raises(IndexError):
            linear_scan_lookup(TracedArray(table, "t"), 20)


class TestLinearScanBatch:
    def test_matches_gather(self, table):
        indices = np.array([3, 3, 0, 19, 7])
        out = traced_scan(table, indices)
        np.testing.assert_allclose(out, table[indices])

    def test_one_sweep_per_query(self, table):
        tracer = MemoryTracer()
        traced_scan(table, [1, 2, 3], tracer)
        assert len(tracer.addresses(REGION)) == 3 * 20


class TestBatchVectorisationParity:
    """The scan generator's traced run must be indistinguishable — output
    bytes and trace events — from the scalar per-row blend chain."""

    def test_bitwise_seed_parity_with_scalar_reference(self):
        rng = np.random.default_rng(20250805)
        table = rng.normal(size=(64, 16))
        indices = rng.integers(0, 64, size=40)
        batch = traced_scan(table, indices)
        reference_table = TracedArray(table, REGION)
        reference = np.stack([linear_scan_lookup(reference_table, int(index))
                              for index in indices])
        assert batch.dtype == reference.dtype
        assert batch.tobytes() == reference.tobytes()  # bitwise, no atol

    def test_trace_identical_to_scalar_sweeps(self):
        rng = np.random.default_rng(20250805)
        table = rng.normal(size=(32, 4))
        indices = [5, 0, 31, 5]
        batch_tracer = MemoryTracer()
        traced_scan(table, indices, batch_tracer)
        scalar_tracer = MemoryTracer()
        scalar_table = TracedArray(table, REGION, scalar_tracer)
        for index in indices:
            linear_scan_lookup(scalar_table, index)
        assert batch_tracer.snapshot() == scalar_tracer.snapshot()

    def test_out_of_range_raises_before_any_sweep(self, table):
        tracer = MemoryTracer()
        with pytest.raises(IndexError):
            traced_scan(table, [1, 20], tracer)
        assert len(tracer) == 0

    def test_empty_batch(self, table):
        out = traced_scan(table, [])
        assert out.shape == (0, 6)
        assert out.dtype == table.dtype


class TestVectorizedScan:
    @given(st.lists(st.integers(0, 19), min_size=1, max_size=10))
    @settings(max_examples=25)
    def test_matches_scalar_scan(self, indices):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(20, 6))
        scalar_table = TracedArray(table, "t")
        scalar = np.stack([linear_scan_lookup(scalar_table, index)
                           for index in indices])
        vector = linear_scan_batch_vectorized(table, indices)
        np.testing.assert_allclose(scalar, vector, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            linear_scan_batch_vectorized(np.zeros((4, 2)), [4])
