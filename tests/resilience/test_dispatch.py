"""ResilientDispatcher: health tracking, eviction/readmission, hedging."""

import math

import pytest

from repro.resilience import (
    CLOSED,
    OPEN,
    BreakerConfig,
    ResilientDispatcher,
)
from repro.telemetry.runtime import use_registry

CONFIG = BreakerConfig(failure_threshold=2, cooldown_seconds=0.050,
                       probe_successes=1)


class TestConstruction:
    def test_min_replicas_cannot_exceed_fleet(self):
        with pytest.raises(ValueError, match="min_replicas 4 exceeds"):
            ResilientDispatcher(num_replicas=3, min_replicas=4)

    def test_rejects_bad_hedge_factor(self):
        with pytest.raises(ValueError, match="hedge_after_factor"):
            ResilientDispatcher(num_replicas=2, hedge_after_factor=0.5)


class TestSelection:
    def test_round_robin_over_healthy_fleet(self):
        dispatcher = ResilientDispatcher(num_replicas=3)
        picks = [dispatcher.select(0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_evicted_replicas(self):
        dispatcher = ResilientDispatcher(num_replicas=3,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)  # trips replica 1 OPEN
        assert dispatcher.admitted(0.0) == [0, 2]
        assert dispatcher.evicted(0.0) == [1]
        picks = [dispatcher.select(0.0) for _ in range(4)]
        assert 1 not in picks

    def test_all_evicted_returns_none(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         breaker_config=CONFIG)
        for replica in range(2):
            dispatcher.record_failure(replica, 0.0)
            dispatcher.record_failure(replica, 0.0)
        assert dispatcher.select(0.0) is None
        assert dispatcher.healthy_count(0.0) == 0

    def test_crash_downtime_evicts_until_deadline(self):
        dispatcher = ResilientDispatcher(num_replicas=2)
        dispatcher.mark_down(0, until_seconds=0.040, now_seconds=0.0)
        assert 0 not in dispatcher.admitted(0.020)
        assert 0 in dispatcher.admitted(0.040)


class TestReadmission:
    def test_cooldown_then_probe_readmits(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(0, 0.0)
        dispatcher.record_failure(0, 0.0)
        assert dispatcher.replicas[0].breaker.state(0.0) == OPEN
        rejoin = dispatcher.next_admission_at(0.0)
        assert rejoin == pytest.approx(0.050)
        # Half-open probe succeeds -> re-closed.
        dispatcher.record_success(0, rejoin)
        assert dispatcher.replicas[0].breaker.state(rejoin) == CLOSED
        assert dispatcher.replicas[0].breaker.readmissions == 1

    def test_no_pending_admissions_is_inf(self):
        dispatcher = ResilientDispatcher(num_replicas=2)
        assert math.isinf(dispatcher.next_admission_at(0.0))


class TestHedging:
    def test_fast_attempt_is_not_hedged(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         hedge_after_factor=3.0)
        latency = dispatcher.hedged_latency(0, primary_latency=0.010,
                                            service_seconds=0.010,
                                            now_seconds=0.0)
        assert latency == 0.010
        assert sum(r.hedges for r in dispatcher.replicas) == 0

    def test_straggler_is_cut_by_the_hedge(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         hedge_after_factor=3.0)
        with use_registry() as registry:
            latency = dispatcher.hedged_latency(0, primary_latency=0.100,
                                                service_seconds=0.010,
                                                now_seconds=0.0)
        # hedge fires at 0.030, finishes at 0.040 < 0.100
        assert latency == pytest.approx(0.040)
        assert sum(r.hedges for r in dispatcher.replicas) == 1
        assert registry.counter("resilience.hedges_total").value == 1.0

    def test_no_spare_replica_no_hedge(self):
        dispatcher = ResilientDispatcher(num_replicas=1)
        latency = dispatcher.hedged_latency(0, primary_latency=0.100,
                                            service_seconds=0.010,
                                            now_seconds=0.0)
        assert latency == 0.100


class TestTelemetryAndSnapshot:
    def test_breaker_state_gauge_tracks_worst(self):
        with use_registry() as registry:
            dispatcher = ResilientDispatcher(num_replicas=2,
                                             breaker_config=CONFIG)
            dispatcher.record_failure(0, 0.0)
            dispatcher.record_failure(0, 0.0)
        assert registry.gauge("breaker.state").value == 2.0
        assert registry.gauge("resilience.healthy_replicas").value == 1.0

    def test_snapshot_is_json_ready(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(1, 0.0)
        snap = dispatcher.snapshot(0.0)
        assert snap["admitted"] == [0, 1]
        assert snap["failures"] == [0, 1]
        assert snap["states"] == [CLOSED, CLOSED]


class TestFleetResizing:
    def test_growth_preserves_breaker_state(self):
        dispatcher = ResilientDispatcher(num_replicas=3,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)  # replica 1 OPEN
        dispatcher.ensure_replicas(5)
        assert dispatcher.num_replicas == 5
        # the sick replica stays evicted; the new ones join healthy
        assert dispatcher.admitted(0.0) == [0, 2, 3, 4]

    def test_growth_preserves_crash_windows(self):
        dispatcher = ResilientDispatcher(num_replicas=2)
        dispatcher.mark_down(0, until_seconds=1.0, now_seconds=0.0)
        dispatcher.ensure_replicas(3)
        assert 0 not in dispatcher.admitted(0.5)
        assert 0 in dispatcher.admitted(1.0)

    def test_shrink_is_a_no_op(self):
        dispatcher = ResilientDispatcher(num_replicas=4)
        dispatcher.ensure_replicas(2)
        assert dispatcher.num_replicas == 4
        assert dispatcher.admitted(0.0) == [0, 1, 2, 3]

    def test_new_replicas_share_breaker_config(self):
        dispatcher = ResilientDispatcher(num_replicas=1,
                                         breaker_config=CONFIG)
        dispatcher.ensure_replicas(2)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)  # CONFIG threshold is 2
        assert dispatcher.admitted(0.0) == [0]

    def test_resize_must_be_positive(self):
        dispatcher = ResilientDispatcher(num_replicas=2)
        with pytest.raises(ValueError):
            dispatcher.ensure_replicas(0)


class TestElasticShrink:
    def test_allow_shrink_releases_trailing_slots(self):
        dispatcher = ResilientDispatcher(num_replicas=5, min_replicas=2)
        dispatcher.ensure_replicas(3, allow_shrink=True)
        assert dispatcher.num_replicas == 3
        assert dispatcher.admitted(0.0) == [0, 1, 2]

    def test_shrink_below_min_replicas_rejected(self):
        dispatcher = ResilientDispatcher(num_replicas=4, min_replicas=3)
        with pytest.raises(ValueError, match="below"):
            dispatcher.ensure_replicas(2, allow_shrink=True)
        assert dispatcher.num_replicas == 4

    def test_shrink_wraps_the_round_robin_cursor(self):
        dispatcher = ResilientDispatcher(num_replicas=4)
        for _ in range(3):  # cursor now points at replica 3
            dispatcher.select(0.0)
        dispatcher.ensure_replicas(2, allow_shrink=True)
        assert dispatcher.select(0.0) in (0, 1)

    def test_regrowth_after_shrink_joins_fresh(self):
        dispatcher = ResilientDispatcher(num_replicas=4,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(3, 0.0)
        dispatcher.record_failure(3, 0.0)  # replica 3 OPEN
        dispatcher.ensure_replicas(3, allow_shrink=True)
        dispatcher.ensure_replicas(4)
        # the decommissioned machine's breaker history does not come back
        assert dispatcher.admitted(0.0) == [0, 1, 2, 3]


class TestReplaceReplica:
    def test_replacement_joins_healthy_with_fresh_counters(self):
        dispatcher = ResilientDispatcher(num_replicas=3,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)  # OPEN
        dispatcher.mark_down(1, until_seconds=1e9, now_seconds=0.0)
        assert dispatcher.admitted(0.0) == [0, 2]
        dispatcher.replace_replica(1)
        assert dispatcher.admitted(0.0) == [0, 1, 2]
        assert dispatcher.replicas[1].failures == 0
        assert dispatcher.replicas[1].dispatched == 0

    def test_out_of_range_slot_rejected(self):
        dispatcher = ResilientDispatcher(num_replicas=2)
        with pytest.raises(IndexError, match="out of range"):
            dispatcher.replace_replica(2)

    def test_replacement_bumps_counter(self):
        with use_registry() as registry:
            dispatcher = ResilientDispatcher(num_replicas=2)
            dispatcher.replace_replica(0)
        counter = registry.counter("resilience.replacements_total")
        assert counter.value == 1


class TestHealthSummary:
    def test_counts_crashes_and_breaker_states(self):
        dispatcher = ResilientDispatcher(num_replicas=4,
                                         breaker_config=CONFIG)
        dispatcher.mark_down(0, until_seconds=5.0, now_seconds=0.0)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)  # OPEN at t=0
        summary = dispatcher.health_summary(0.0)
        assert summary == {"num_replicas": 4, "healthy": 2,
                           "open_breakers": 1, "half_open_breakers": 0,
                           "crashed": 1}

    def test_half_open_counted_after_cooldown(self):
        dispatcher = ResilientDispatcher(num_replicas=2,
                                         breaker_config=CONFIG)
        dispatcher.record_failure(0, 0.0)
        dispatcher.record_failure(0, 0.0)
        summary = dispatcher.health_summary(CONFIG.cooldown_seconds + 0.001)
        assert summary["open_breakers"] == 0
        assert summary["half_open_breakers"] == 1

    def test_all_healthy_fleet_is_clean(self):
        dispatcher = ResilientDispatcher(num_replicas=3)
        assert dispatcher.health_summary(0.0) == {
            "num_replicas": 3, "healthy": 3, "open_breakers": 0,
            "half_open_breakers": 0, "crashed": 0}
