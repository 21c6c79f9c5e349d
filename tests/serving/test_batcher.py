"""Dynamic batching: size-triggered and timeout-triggered launches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batcher import BatchingPolicy, DynamicBatcher, settle


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=4, max_wait_seconds=-1.0)


class TestDynamicBatcher:
    def test_greedy_zero_wait_batches_whatever_arrived(self):
        # Everything arrives at t=0; service 1s; max batch 4.
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0))
        batches = batcher.schedule(np.zeros(10), lambda n: 1.0)
        assert [b.size for b in batches] == [4, 4, 2]
        # Back-to-back execution: each batch starts when the replica frees.
        assert [b.start_seconds for b in batches] == [0.0, 1.0, 2.0]

    def test_full_batch_launches_before_timeout(self):
        # Four requests in quick succession fill the batch long before the
        # 10s deadline; launch happens at the last admission, not at timeout.
        batcher = DynamicBatcher(BatchingPolicy(4, 10.0))
        batches = batcher.schedule([0.0, 0.1, 0.2, 0.3], lambda n: 1.0)
        assert len(batches) == 1
        assert batches[0].start_seconds == pytest.approx(0.3)

    def test_timeout_fires_partial_batch(self):
        # Second request arrives after the first's wait deadline: two
        # singleton batches, the first launching exactly at its deadline.
        batcher = DynamicBatcher(BatchingPolicy(4, 0.5))
        batches = batcher.schedule([0.0, 2.0], lambda n: 0.1)
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].start_seconds == pytest.approx(0.5)
        assert batches[1].start_seconds == pytest.approx(2.5)

    def test_wait_window_accumulates_stragglers(self):
        # Requests trickling in within the window ride the first batch.
        batcher = DynamicBatcher(BatchingPolicy(8, 1.0))
        batches = batcher.schedule([0.0, 0.4, 0.9, 5.0], lambda n: 0.1)
        assert [b.size for b in batches] == [3, 1]

    def test_finish_seconds(self):
        batcher = DynamicBatcher(BatchingPolicy(2, 0.0))
        (batch,) = batcher.schedule([0.0, 0.0], lambda n: 0.25)
        assert batch.finish_seconds == pytest.approx(0.25)

    def test_unsorted_arrivals_raise(self):
        with pytest.raises(ValueError, match="sorted"):
            DynamicBatcher(BatchingPolicy(4)).schedule([0.2, 0.1],
                                                       lambda n: 1.0)

    def test_empty_arrivals_schedule_nothing(self):
        # An idle window is a no-op, not an error (a pipeline stage may
        # legitimately see zero arrivals).
        assert DynamicBatcher(BatchingPolicy(4)).schedule([],
                                                          lambda n: 1.0) == []

    def test_two_dimensional_arrivals_raise(self):
        with pytest.raises(ValueError, match="1-D"):
            DynamicBatcher(BatchingPolicy(4)).schedule(
                np.zeros((2, 2)), lambda n: 1.0)

    def test_non_positive_service_raises(self):
        with pytest.raises(ValueError, match="service_time"):
            DynamicBatcher(BatchingPolicy(4)).schedule([0.0], lambda n: 0.0)


class TestMaxWaitTimeoutPath:
    """The deadline-triggered launch path, edge by edge."""

    def test_arrival_exactly_at_deadline_is_admitted(self):
        # close_time = 0.0 + 1.0; an arrival at exactly 1.0 rides along.
        batcher = DynamicBatcher(BatchingPolicy(4, 1.0))
        batches = batcher.schedule([0.0, 1.0], lambda n: 0.1)
        assert [b.size for b in batches] == [2]
        assert batches[0].start_seconds == pytest.approx(1.0)

    def test_arrival_just_past_deadline_is_not(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 1.0))
        batches = batcher.schedule([0.0, 1.0 + 1e-9], lambda n: 0.1)
        assert [b.size for b in batches] == [1, 1]

    def test_trace_runs_dry_inside_window(self):
        # The whole trace fits in the first window without filling the
        # batch: one partial batch launching at the deadline.
        batcher = DynamicBatcher(BatchingPolicy(8, 2.0))
        batches = batcher.schedule([0.0, 0.5, 1.0], lambda n: 0.1)
        assert [b.size for b in batches] == [3]
        assert batches[0].start_seconds == pytest.approx(2.0)

    def test_busy_replica_extends_the_window(self):
        # First batch launches at its t=0.1 deadline and holds the replica
        # until t=5.1; the second request's t=1.1 deadline has long passed
        # when the replica frees, so its batch opens at free_at and admits
        # everything waiting by then.
        batcher = DynamicBatcher(BatchingPolicy(4, 0.1))
        batches = batcher.schedule([0.0, 1.0, 4.0], lambda n: 5.0)
        assert [b.size for b in batches] == [1, 2]
        assert batches[1].start_seconds == pytest.approx(5.1)

    def test_launch_counters_split_full_vs_timeout(self):
        from repro.telemetry.runtime import use_registry

        batcher = DynamicBatcher(BatchingPolicy(2, 0.5))
        # [0, 0] fills (full launch); [10] times out as a singleton.
        with use_registry() as registry:
            batcher.schedule([0.0, 0.0, 10.0], lambda n: 0.1)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["batcher.batches_total"] == 2.0
        assert snapshot["counters"]["batcher.full_launches_total"] == 1.0
        assert snapshot["counters"]["batcher.timeout_launches_total"] == 1.0
        assert snapshot["histograms"]["batcher.batch_size"]["count"] == 2

    def test_zero_wait_never_reports_full_when_trace_dry(self):
        from repro.telemetry.runtime import use_registry

        batcher = DynamicBatcher(BatchingPolicy(8, 0.0))
        with use_registry() as registry:
            batches = batcher.schedule([0.0, 0.0, 0.0], lambda n: 0.1)
        assert [b.size for b in batches] == [3]
        snapshot = registry.snapshot()
        assert snapshot["counters"]["batcher.full_launches_total"] == 0.0
        assert snapshot["counters"]["batcher.timeout_launches_total"] == 1.0


class TestLookaheadHook:
    """The batched-ORAM planning seam: formed batches exposed pre-dispatch."""

    def test_hook_receives_each_formed_batchs_ids(self):
        seen = []
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0),
                                 lookahead=lambda b, ids: seen.append(
                                     (b.first, b.last, ids.copy())))
        block_ids = np.arange(20).reshape(10, 2)
        batches = batcher.schedule(np.zeros(10), lambda n: 1.0,
                                   block_ids=block_ids)
        assert len(seen) == len(batches)
        for (first, last, ids), batch in zip(seen, batches):
            assert (first, last) == (batch.first, batch.last)
            np.testing.assert_array_equal(ids,
                                          block_ids[batch.first:batch.last])

    def test_hook_fires_before_any_later_batch_forms(self):
        order = []
        batcher = DynamicBatcher(
            BatchingPolicy(4, 0.0),
            lookahead=lambda b, ids: order.append(("hook", b.first)))
        batcher.schedule(np.zeros(10), lambda n: 1.0,
                         block_ids=np.zeros((10, 1)))
        assert order == [("hook", 0), ("hook", 4), ("hook", 8)]

    def test_no_consumer_schedule_is_byte_identical(self):
        arrivals = [0.0, 0.1, 0.2, 0.9, 2.0]
        plain = DynamicBatcher(BatchingPolicy(3, 0.5)).schedule(
            arrivals, lambda n: 0.2)
        with_ids = DynamicBatcher(BatchingPolicy(3, 0.5)).schedule(
            arrivals, lambda n: 0.2, block_ids=np.zeros((5, 2)))
        assert plain == with_ids

    def test_consumer_without_block_ids_raises(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0),
                                 lookahead=lambda b, ids: None)
        with pytest.raises(ValueError, match="block_ids"):
            batcher.schedule(np.zeros(4), lambda n: 1.0)

    def test_row_count_mismatch_raises(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0),
                                 lookahead=lambda b, ids: None)
        with pytest.raises(ValueError, match="rows"):
            batcher.schedule(np.zeros(4), lambda n: 1.0,
                             block_ids=np.zeros((3, 2)))

    def test_empty_trace_never_calls_the_consumer(self):
        # Announce-with-zero-ids is a no-op: nothing is ever announced.
        calls = []
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0),
                                 lookahead=lambda b, ids: calls.append(ids))
        assert batcher.schedule([], lambda n: 1.0,
                                block_ids=np.zeros((0, 2))) == []
        assert calls == []

    def test_single_request_forms_a_singleton_batch_through_the_hook(self):
        seen = []
        batcher = DynamicBatcher(BatchingPolicy(4, 0.0),
                                 lookahead=lambda b, ids: seen.append(
                                     ids.copy()))
        (batch,) = batcher.schedule([0.5], lambda n: 0.1,
                                    block_ids=np.array([[7, 9]]))
        assert (batch.first, batch.last) == (0, 1)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [[7, 9]])

    def test_announce_with_zero_ids_is_a_noop_on_the_table(self):
        # The consumer end of the contract: an empty announcement must not
        # register an expectation that rejects the next real batch.
        from repro.training.embedding import OnlineOramEmbedding

        table = OnlineOramEmbedding(8, 4, rng=0)
        table.announce(np.zeros((0,), dtype=np.int64))
        out = table.forward(np.array([1, 3]))  # must not raise
        assert out.data.shape == (2, 4)


class TestNonFiniteArrivals:
    def test_nan_arrival_rejected(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 0.1))
        with pytest.raises(ValueError, match="finite"):
            batcher.schedule([0.0, float("nan")], lambda n: 0.1)

    def test_inf_arrival_rejected(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 0.1))
        with pytest.raises(ValueError, match="finite"):
            batcher.schedule([0.0, float("inf")], lambda n: 0.1)


#: Sorted traces with exact ties, sub-ulp-scale gaps and idle stretches.
TRACES = st.lists(st.sampled_from([0.0, 0.0, 1e-9, 1e-4, 7e-4, 0.003, 0.05]),
                  min_size=1, max_size=60).map(np.cumsum)
POLICIES = st.builds(BatchingPolicy,
                     max_batch_size=st.integers(1, 9),
                     max_wait_seconds=st.sampled_from([0.0, 1e-4, 0.002]))
SERVICES = st.sampled_from([3e-4, 0.001, 0.0123])


class TestSettle:
    """``settle`` is the one place a schedule becomes per-request arrays."""

    @settings(max_examples=200, deadline=None)
    @given(TRACES, POLICIES, SERVICES, st.booleans())
    def test_windows_tile_the_trace(self, arrivals, policy, service,
                                    size_priced):
        price = (lambda n: service * n) if size_priced else (lambda n: service)
        batches = DynamicBatcher(policy).schedule(arrivals, price)
        queue_delays, service_latencies, departures = settle(batches,
                                                             arrivals)
        assert (queue_delays >= 0).all()
        assert (np.diff(departures) >= 0).all()
        for batch in batches:
            window = slice(batch.first, batch.last)
            # Co-departing requests leave at one instant, bit for bit.
            assert (departures[window] == batch.finish_seconds).all()
            assert (service_latencies[window] == batch.service_seconds).all()
            np.testing.assert_array_equal(
                queue_delays[window], batch.start_seconds - arrivals[window])
        np.testing.assert_allclose(
            departures, arrivals + (queue_delays + service_latencies),
            rtol=0, atol=1e-12)

    def test_executed_times_override_the_scheduled_slot(self):
        batches = DynamicBatcher(BatchingPolicy(2, 0.0)).schedule(
            np.zeros(4), lambda n: 1.0)
        queue_delays, service_latencies, departures = settle(
            batches, np.zeros(4), executed=[0.25, 0.5])
        np.testing.assert_array_equal(queue_delays, [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(service_latencies,
                                      [0.25, 0.25, 0.5, 0.5])
        np.testing.assert_array_equal(departures, [0.25, 0.25, 1.5, 1.5])

    def test_executed_length_is_checked(self):
        batches = DynamicBatcher(BatchingPolicy(2, 0.0)).schedule(
            np.zeros(4), lambda n: 1.0)
        with pytest.raises(ValueError, match="1 entries for 2 batches"):
            settle(batches, np.zeros(4), executed=[0.25])
