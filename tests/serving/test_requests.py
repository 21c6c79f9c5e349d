"""Arrival processes and the request queue."""

import numpy as np
import pytest

from repro.serving.requests import (
    Request,
    RequestQueue,
    batch_boundary_arrivals,
    deterministic_arrivals,
    poisson_arrivals,
)


class TestDeterministicArrivals:
    def test_fixed_spacing(self):
        arrivals = deterministic_arrivals(4, 0.5, start_seconds=1.0)
        np.testing.assert_allclose(arrivals, [1.0, 1.5, 2.0, 2.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            deterministic_arrivals(0, 0.5)
        with pytest.raises(ValueError):
            deterministic_arrivals(4, -1.0)


class TestPoissonArrivals:
    def test_sorted_and_positive(self):
        arrivals = poisson_arrivals(200, rate_rps=1000.0, rng=0)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals.min() > 0

    def test_seed_reproducible(self):
        np.testing.assert_array_equal(poisson_arrivals(50, 100.0, rng=7),
                                      poisson_arrivals(50, 100.0, rng=7))

    def test_mean_rate_approximates_target(self):
        arrivals = poisson_arrivals(5000, rate_rps=200.0, rng=3)
        empirical = len(arrivals) / arrivals[-1]
        assert empirical == pytest.approx(200.0, rel=0.1)

    @pytest.mark.parametrize("num_requests, rate_rps", [
        (0, 100.0), (10, 0.0), (10, -1.0),
        # An infinite rate would put every request at t = 0.
        (10, float("inf")), (10, float("nan")),
    ])
    def test_validation(self, num_requests, rate_rps):
        with pytest.raises(ValueError):
            poisson_arrivals(num_requests, rate_rps, rng=0)


class TestBatchBoundaryArrivals:
    def test_batches_share_one_timestamp(self):
        arrivals = batch_boundary_arrivals(7, batch_size=3,
                                           batch_latency_seconds=0.25)
        np.testing.assert_array_equal(
            arrivals, [0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_boundary_arrivals(0, 4, 0.1)
        with pytest.raises(ValueError):
            batch_boundary_arrivals(8, 4, 0.0)


class TestRequestQueue:
    def test_len_and_iter(self):
        queue = RequestQueue([0.0, 0.1, 0.2])
        assert len(queue) == 3
        requests = list(queue)
        assert requests[1] == Request(index=1, arrival_seconds=0.1)

    def test_unsorted_input_is_sorted(self):
        queue = RequestQueue([0.2, 0.0, 0.1])
        np.testing.assert_allclose(queue.arrivals, [0.0, 0.1, 0.2])

    def test_coerce_passes_a_queue_through_and_wraps_a_trace(self):
        queue = RequestQueue([0.0, 0.1])
        assert RequestQueue.coerce(queue) is queue
        wrapped = RequestQueue.coerce([0.0, 0.1])
        assert isinstance(wrapped, RequestQueue)
        np.testing.assert_array_equal(wrapped.arrivals, queue.arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestQueue([])
        with pytest.raises(ValueError):
            RequestQueue([[0.0, 0.1]])
        with pytest.raises(ValueError):
            RequestQueue([-0.1, 0.2])

    def test_offered_load(self):
        queue = RequestQueue(deterministic_arrivals(11, interval_seconds=0.1))
        assert queue.offered_load_rps() == pytest.approx(10.0)
        assert RequestQueue([0.5, 0.5]).offered_load_rps() is None

    def test_classmethods(self):
        queue = RequestQueue.poisson(10, 100.0, rng=0)
        np.testing.assert_array_equal(queue.arrivals,
                                      poisson_arrivals(10, 100.0, rng=0))
        assert len(RequestQueue(batch_boundary_arrivals(10, 4, 0.1))) == 10


class TestNonFiniteArrivals:
    def test_nan_arrival_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RequestQueue([0.0, float("nan"), 0.2])

    def test_inf_arrival_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RequestQueue([0.0, float("inf")])

    def test_negative_inf_arrival_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RequestQueue([float("-inf"), 0.0])
