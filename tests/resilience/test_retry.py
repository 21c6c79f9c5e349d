"""RetryPolicy backoff math and deadline budgets."""

import pytest

from repro.resilience import RetryPolicy
from repro.serving.batcher import BatchingPolicy


class TestBackoff:
    def test_exponential_growth_until_cap(self):
        policy = RetryPolicy(base_backoff_seconds=0.002,
                             backoff_multiplier=2.0,
                             max_backoff_seconds=0.010,
                             jitter_fraction=0.0)
        assert policy.backoff_seconds(0) == 0.002
        assert policy.backoff_seconds(1) == 0.004
        assert policy.backoff_seconds(2) == 0.008
        assert policy.backoff_seconds(3) == 0.010  # capped
        assert policy.backoff_seconds(10) == 0.010

    def test_jitter_scales_symmetrically(self):
        policy = RetryPolicy(base_backoff_seconds=0.010,
                             jitter_fraction=0.5)
        assert policy.backoff_seconds(0, jitter_u=0.0) == pytest.approx(0.005)
        assert policy.backoff_seconds(0, jitter_u=0.5) == pytest.approx(0.010)
        assert policy.backoff_seconds(0, jitter_u=1.0) == pytest.approx(0.015)

    def test_rejects_bad_jitter_variate(self):
        with pytest.raises(ValueError, match="jitter_u"):
            RetryPolicy().backoff_seconds(0, jitter_u=1.5)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1)


class TestValidation:
    def test_rejects_nonfinite_deadline(self):
        with pytest.raises(ValueError):
            RetryPolicy(deadline_seconds=float("inf"))

    def test_rejects_sub_unit_multiplier(self):
        with pytest.raises(ValueError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=0.5)

    def test_deadline_must_exceed_batcher_wait(self):
        policy = RetryPolicy(deadline_seconds=0.010)
        batching = BatchingPolicy(max_batch_size=32,
                                  max_wait_seconds=0.020)
        with pytest.raises(ValueError, match="max_wait_seconds"):
            policy.validate_against(batching)
        policy_ok = RetryPolicy(deadline_seconds=0.100)
        policy_ok.validate_against(batching)  # no raise


class TestDeadlineBudget:
    def test_deadline_anchors_at_arrival(self):
        policy = RetryPolicy(deadline_seconds=0.5)
        assert policy.deadline_for(1.25) == 1.75
