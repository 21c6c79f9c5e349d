"""Multi-hot pooled lookups across every generator."""

import numpy as np
import pytest

from repro.embedding import (
    CircuitOramEmbedding,
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


class TestPooledSemantics:
    def test_sum_pooling_matches_manual(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        bags = np.array([[1, 2, 3], [4, 4, 5]])
        pooled = scan.generate_pooled(bags)
        expected = weights[bags].sum(axis=1)
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_mean_pooling(self, weights):
        table = TableEmbedding(N, D, rng=0)
        table.weight.data[...] = weights
        bags = np.array([[0, 1], [2, 3]])
        pooled = table.generate_pooled(bags, mode="mean")
        np.testing.assert_allclose(pooled, weights[bags].mean(axis=1),
                                   atol=1e-12)

    def test_oram_pooled(self, weights):
        oram = CircuitOramEmbedding(N, D, weight=weights, rng=1)
        bags = np.array([[7, 8, 9]])
        np.testing.assert_allclose(oram.generate_pooled(bags),
                                   weights[[7, 8, 9]].sum(axis=0,
                                                          keepdims=True),
                                   atol=1e-12)

    def test_dhe_pooled_deterministic(self):
        dhe = DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0)
        bags = np.array([[1, 2], [1, 2]])
        pooled = dhe.generate_pooled(bags)
        np.testing.assert_allclose(pooled[0], pooled[1])

    def test_pooled_gradients_accumulate(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        pooled = scan.forward_pooled(np.array([[3, 3]]))
        pooled.sum().backward()
        np.testing.assert_allclose(scan.weight.grad[3], 2 * np.ones(D))

    def test_shape_validation(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        with pytest.raises(ValueError):
            scan.forward_pooled(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            scan.forward_pooled(np.array([[1, 2]]), mode="max")


class TestPooledLengths:
    def test_masked_sum_ignores_padding(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        bags = np.array([[1, 2, 0], [4, 5, 6]])
        lengths = np.array([2, 3])
        pooled = scan.generate_pooled(bags, lengths=lengths)
        np.testing.assert_allclose(pooled[0], weights[[1, 2]].sum(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(pooled[1], weights[[4, 5, 6]].sum(axis=0),
                                   atol=1e-12)

    def test_mean_divides_by_true_length(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        bags = np.array([[7, 8, 0, 0]])  # two real ids, two pads
        pooled = scan.generate_pooled(bags, mode="mean",
                                      lengths=np.array([2]))
        np.testing.assert_allclose(pooled[0], weights[[7, 8]].mean(axis=0),
                                   atol=1e-12)

    def test_full_lengths_match_unmasked(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        bags = np.array([[1, 2], [3, 4]])
        full = scan.generate_pooled(bags, mode="mean",
                                    lengths=np.array([2, 2]))
        np.testing.assert_allclose(full,
                                   scan.generate_pooled(bags, mode="mean"),
                                   atol=1e-12)

    def test_masked_gradients_skip_padding(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        pooled = scan.forward_pooled(np.array([[3, 9]]),
                                     lengths=np.array([1]))
        pooled.sum().backward()
        np.testing.assert_allclose(scan.weight.grad[3], np.ones(D))
        np.testing.assert_allclose(scan.weight.grad[9], np.zeros(D))

    def test_length_validation(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        bags = np.array([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            scan.forward_pooled(bags, lengths=np.array([1]))  # wrong shape
        with pytest.raises(ValueError):
            scan.forward_pooled(bags, lengths=np.array([0, 2]))  # < 1
        with pytest.raises(ValueError):
            scan.forward_pooled(bags, lengths=np.array([2, 3]))  # > bag


class TestBatchedForward:
    def test_chunked_matches_single_shot(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        indices = np.arange(10)
        np.testing.assert_allclose(scan.batched_forward(indices, batch_size=3),
                                   scan.batched_forward(indices),
                                   atol=1e-12)

    def test_invalid_batch_size(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        with pytest.raises(ValueError):
            scan.batched_forward(np.arange(4), batch_size=0)


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


POOLED_GENERATORS = {
    "scan": lambda weights: LinearScanEmbedding(N, D, weight=weights),
    "table": lambda weights: TableEmbedding(N, D, rng=0),
    "dhe": lambda weights: DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0),
}


class TestPooledIdTypes:
    """A float or bool id or bag length is an error, never truncated to an
    integer — the same check a plain ``generate`` applies."""

    @pytest.mark.parametrize("technique", sorted(POOLED_GENERATORS))
    @pytest.mark.parametrize("bags", [[[1.7, 2.9]], [[True, False]],
                                      np.array([[1.0, 2.0]]), [[True, 2]]])
    def test_non_integer_ids_raise(self, weights, technique, bags):
        generator = POOLED_GENERATORS[technique](weights)
        with pytest.raises(TypeError, match="integers"):
            generator.generate(bags)
        with pytest.raises(TypeError, match="integers"):
            generator.generate_pooled(bags)

    @pytest.mark.parametrize("lengths", [np.array([1.9]), np.array([True]),
                                         [2.0]])
    def test_non_integer_lengths_raise(self, weights, lengths):
        scan = LinearScanEmbedding(N, D, weight=weights)
        with pytest.raises(TypeError, match="integers"):
            scan.generate_pooled([[1, 2]], lengths=lengths)

    def test_integer_ids_and_lengths_of_any_width_accepted(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        pooled = scan.generate_pooled(np.array([[1, 2]], dtype=np.int32),
                                      lengths=np.array([1], dtype=np.uint8))
        np.testing.assert_array_equal(pooled, weights[[1]])
