"""Shared behaviour of all embedding generators + per-class specifics."""

import numpy as np
import pytest

from repro.embedding import (
    CircuitOramEmbedding,
    LinearScanEmbedding,
    PathOramEmbedding,
    TableEmbedding,
)

N, D = 40, 6


@pytest.fixture
def weights(rng):
    return rng.normal(size=(N, D))


def storage_generators(weights):
    return [
        TableEmbedding(N, D, rng=0),
        LinearScanEmbedding(N, D, weight=weights),
        PathOramEmbedding(N, D, weight=weights, rng=1),
        CircuitOramEmbedding(N, D, weight=weights, rng=2),
    ]


class TestStorageGeneratorsAgree:
    def test_scan_and_orams_return_table_rows(self, weights):
        indices = np.array([0, 5, 5, 39])
        for generator in storage_generators(weights)[1:]:
            out = generator.generate(indices)
            np.testing.assert_allclose(out, weights[indices], atol=1e-12)

    def test_index_shape_preserved(self, weights):
        indices = np.array([[1, 2, 3], [4, 5, 6]])
        for generator in storage_generators(weights)[1:]:
            assert generator.generate(indices).shape == (2, 3, D)

    def test_out_of_range_rejected(self, weights):
        for generator in storage_generators(weights):
            with pytest.raises(IndexError):
                generator.generate(np.array([N]))

    def test_obliviousness_flags(self, weights):
        flags = {g.technique: g.is_oblivious
                 for g in storage_generators(weights)}
        assert flags == {"lookup": False, "scan": True, "path-oram": True,
                         "circuit-oram": True}

    def test_footprints_ordered(self, weights):
        scan = LinearScanEmbedding(N, D, weight=weights)
        path = PathOramEmbedding(N, D, weight=weights, rng=0)
        assert path.footprint_bytes() > scan.footprint_bytes()

    def test_modelled_latency_positive(self, weights):
        for generator in storage_generators(weights):
            assert generator.modelled_latency(batch=32) > 0


class TestLinearScanEmbedding:
    def test_trainable(self, weights):

        scan = LinearScanEmbedding(N, D, weight=weights)
        out = scan(np.array([3]))
        (out ** 2.0).sum().backward()
        assert scan.weight.grad is not None
        assert np.abs(scan.weight.grad[3]).sum() > 0
        assert np.abs(scan.weight.grad[np.arange(N) != 3]).sum() == 0

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError):
            LinearScanEmbedding(N, D, weight=np.zeros((N, D + 1)))


class TestOramEmbedding:
    def test_empty_batch(self, weights):
        generator = CircuitOramEmbedding(N, D, weight=weights, rng=0)
        out = generator.generate(np.array([], dtype=np.int64))
        assert out.shape == (0, D)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError):
            PathOramEmbedding(N, D, weight=np.zeros((N, D + 1)))


class TestIndexValidation:
    def test_float_indices_raise_instead_of_truncating(self, weights):
        for generator in storage_generators(weights):
            with pytest.raises(TypeError, match="integers"):
                generator.generate(np.array([1.7]))
            with pytest.raises(TypeError, match="integers"):
                generator.generate([0.0, 2.0])

    def test_empty_index_list_is_accepted(self, weights):
        for generator in storage_generators(weights):
            assert generator.generate([]).shape == (0, D)


class TestConstructorValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            TableEmbedding(0, 4)
        with pytest.raises(ValueError):
            TableEmbedding(4, 0)
