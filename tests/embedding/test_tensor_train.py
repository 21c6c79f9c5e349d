"""Tensor-Train embedding tests: factorisation, training, insecurity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.tensor_train import (
    TTEmbedding,
    balanced_factors,
    exact_factors,
)
from repro.telemetry.audit import AuditSubject, LeakageAuditor


class TestFactorisation:
    @given(st.integers(1, 10**7))
    @settings(max_examples=50)
    def test_balanced_covers_value(self, value):
        factors = balanced_factors(value)
        assert math.prod(factors) >= value
        assert max(factors) <= 2 * min(factors) + 2

    @given(st.integers(1, 4096))
    @settings(max_examples=50)
    def test_exact_product(self, value):
        factors = exact_factors(value)
        assert math.prod(factors) == value

    def test_exact_balanced_for_powers(self):
        assert sorted(exact_factors(64)) == [4, 4, 4]

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_factors(0)


class TestTTEmbedding:
    @pytest.fixture
    def tt(self):
        return TTEmbedding(1000, 16, rank=4, rng=0)

    def test_output_shape(self, tt):
        out = tt.generate(np.array([[0, 1], [998, 999]]))
        assert out.shape == (2, 2, 16)

    def test_deterministic_per_index(self, tt):
        out = tt.generate(np.array([5, 5, 6]))
        np.testing.assert_allclose(out[0], out[1])
        assert not np.allclose(out[0], out[2])

    def test_split_index_bijective_over_table(self, tt):
        indices = np.arange(1000)
        triples = set(zip(*map(lambda a: a.tolist(),
                               tt.split_index(indices))))
        assert len(triples) == 1000

    def test_compression(self, tt):
        assert tt.footprint_bytes() < 0.2 * (1000 * 16 * 4)

    def test_out_of_range(self, tt):
        with pytest.raises(IndexError):
            tt.generate(np.array([1000]))

    def test_trainable_to_fit_targets(self, rng):
        from repro.nn.losses import mse
        from repro.nn.optim import Adam

        tt = TTEmbedding(27, 8, rank=6, rng=1)
        target = rng.normal(size=(27, 8))
        opt = Adam(tt.parameters(), lr=0.02)
        indices = np.arange(27)
        for _ in range(400):
            opt.zero_grad()
            loss = mse(tt(indices), target)
            loss.backward()
            opt.step()
        assert loss.item() < 0.05

    def test_not_oblivious_by_trace(self, tt):
        finding = LeakageAuditor().audit(AuditSubject(
            "tt", lambda tracer, secret: tt.generate_traced(
                np.array([secret]), tracer),
            [0, 500, 999], expect_oblivious=tt.is_oblivious))
        assert finding.passed and finding.leak_detected

    def test_flagged_insecure(self, tt):
        assert not tt.is_oblivious

    def test_latency_and_footprint_models(self, tt):
        assert tt.modelled_latency(32) > 0
        assert tt.footprint_bytes() == tt.parameter_count() * 4
