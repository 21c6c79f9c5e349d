"""Index checks every generator shares: out-of-range messages, id types,
and a scan trace that does not depend on which ids a bag holds."""

import numpy as np
import pytest

from repro.embedding import (
    DHEEmbedding,
    LinearScanEmbedding,
    TableEmbedding,
)
from repro.oblivious import MemoryTracer
from repro.telemetry.audit import AuditSubject, LeakageAuditor

N, D = 30, 6


@pytest.fixture
def weights(rng):
    return rng.normal(size=(N, D))


class TestIndexErrorMessages:
    def test_reports_value_and_position(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        with pytest.raises(IndexError, match=rf"index {N} at position "
                                             rf"\(1, 2\) is out of range "
                                             rf"for table of {N} rows"):
            scan.forward(np.array([[0, 1, 2], [3, 4, N]]))

    def test_reports_negative_index(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        with pytest.raises(IndexError, match=r"index -1 at position \(0,\)"):
            scan.forward(np.array([-1, 3]))


class TestPooledObliviousness:
    def test_scan_pooled_trace_independent_of_bag_content(self, weights):
        def fn(tracer: MemoryTracer, secret_bag):
            scan = LinearScanEmbedding(N, D, weight=weights)
            # traced path: one scan per bag element, content-independent
            scan.generate_traced(np.asarray(secret_bag).reshape(-1), tracer)

        LeakageAuditor().require(AuditSubject(
            "scan-pooled", fn, [[0, 1, 2], [29, 15, 7], [3, 3, 3]]))


GENERATORS = {
    "scan": lambda weights: LinearScanEmbedding(N, D, weight=weights),
    "table": lambda weights: TableEmbedding(N, D, rng=0),
    "dhe": lambda weights: DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0),
}


class TestPooledIdTypes:
    """A float or bool id is an error, never truncated to an integer."""

    @pytest.mark.parametrize("technique", sorted(GENERATORS))
    @pytest.mark.parametrize("bags", [[[1.7, 2.9]], [[True, False]],
                                      np.array([[1.0, 2.0]]), [[True, 2]]])
    def test_non_integer_ids_raise(self, weights, technique, bags):
        generator = GENERATORS[technique](weights)
        with pytest.raises(TypeError, match="integers"):
            generator.generate(bags)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_integer_ids_of_any_width_accepted(self, weights, dtype):
        scan = LinearScanEmbedding(N, D, weight=weights)
        rows = scan.generate(np.array([[1, 2]], dtype=dtype))
        np.testing.assert_array_equal(rows, weights[[[1, 2]]])
