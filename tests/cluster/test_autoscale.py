"""The autoscale control loop: signals, controller, elastic fleet, audits."""

import math

import pytest

from repro.cluster.autoscale import (
    ACTION_DOWN,
    AUTOSCALE_REGION,
    KIND_HEAL,
    Autoscaler,
    AutoscaleConfig,
    ClusterSignals,
    ElasticFleet,
    HotLoadChasingController,
    ScaleDecision,
    SignalPlane,
    heal_moves,
    scaling_subject,
)
from repro.cluster.epoch import PlanEpoch
from repro.cluster.placement import RingPlanner
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.oblivious.trace import MemoryTracer
from repro.resilience.dispatch import ResilientDispatcher
from repro.telemetry.audit import (
    LeakageAuditor,
    LeakageError,
    contrasting_secrets,
)

from .conftest import DIM

SIZES = TERABYTE_SPEC.table_sizes
NUM_TABLES = len(SIZES)
FOREVER = 1e9
SKEWS = contrasting_secrets(NUM_TABLES, 64)

CONFIG = AutoscaleConfig(min_nodes=2, max_nodes=5, high_utilisation=0.8,
                         low_utilisation=0.3, breach_ticks=2,
                         cooldown_ticks=1)


def signals_for(tick, utilisation, nodes=3, replication=2, crashed=0,
                open_breakers=0):
    """Hand-rolled signals: utilisation is what the control law reads."""
    capacity = 10000.0
    return ClusterSignals(
        tick=tick, now_seconds=tick * 0.25,
        offered_rps=utilisation * capacity,
        achieved_rps=utilisation * capacity, capacity_rps=capacity,
        utilisation=utilisation, queue_delay_seconds=0.0, shed_requests=0,
        current_nodes=nodes, replication=replication,
        healthy_nodes=nodes - crashed - open_breakers,
        open_breakers=open_breakers, half_open_breakers=0,
        crashed_nodes=crashed)


class TestAutoscaleConfig:
    def test_rejects_inverted_bands(self):
        with pytest.raises(ValueError, match="low_utilisation"):
            AutoscaleConfig(min_nodes=1, max_nodes=4, high_utilisation=0.3,
                            low_utilisation=0.8)

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError, match="exceeds max_nodes"):
            AutoscaleConfig(min_nodes=5, max_nodes=2)

    def test_rejects_negative_cooldown(self):
        with pytest.raises(ValueError, match="cooldown_ticks"):
            AutoscaleConfig(min_nodes=1, max_nodes=4, cooldown_ticks=-1)


class TestAutoscaler:
    def test_single_breach_holds_hysteresis(self):
        scaler = Autoscaler(CONFIG)
        assert scaler.decide(signals_for(0, 0.95)).action == "hold"
        decision = scaler.decide(signals_for(1, 0.95))
        assert decision.action == "scale-up"
        assert decision.target_nodes == 4

    def test_interrupted_streak_resets(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.95))
        scaler.decide(signals_for(1, 0.5))        # back inside the band
        assert scaler.decide(signals_for(2, 0.95)).action == "hold"

    def test_cooldown_holds_after_a_scale(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.95))
        assert scaler.decide(signals_for(1, 0.95)).action == "scale-up"
        held = scaler.decide(signals_for(2, 0.95))
        assert held.action == "hold"
        assert held.reason == "cooldown"
        # The tick after the cooldown the streak has rebuilt.
        assert scaler.decide(signals_for(3, 0.95)).action == "scale-up"

    def test_scale_up_capped_at_max_nodes(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.95, nodes=5))
        decision = scaler.decide(signals_for(1, 0.95, nodes=5))
        assert decision.action == "blocked"
        assert decision.reason == "at-max-nodes"
        assert decision.target_nodes == 5

    def test_scale_down_on_sustained_low(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.1, nodes=4))
        decision = scaler.decide(signals_for(1, 0.1, nodes=4))
        assert decision.action == "scale-down"
        assert decision.target_nodes == 3

    def test_scale_down_blocked_below_replication_floor(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.1, nodes=3, replication=3))
        decision = scaler.decide(signals_for(1, 0.1, nodes=3,
                                             replication=3))
        assert decision.action == "blocked"
        assert decision.reason == "replication-floor"

    def test_scale_down_blocked_while_unhealthy(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.1, nodes=4, crashed=1))
        decision = scaler.decide(signals_for(1, 0.1, nodes=4, crashed=1))
        assert decision.action == "blocked"
        assert decision.reason == "breakers-open"

    def test_blocked_keeps_the_streak_alive(self):
        # The tick the fleet heals, the backlog of low-utilisation
        # evidence fires immediately — no need to re-accumulate.
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.1, nodes=4, crashed=1))
        assert scaler.decide(signals_for(1, 0.1, nodes=4,
                                         crashed=1)).action == "blocked"
        assert scaler.decide(signals_for(2, 0.1,
                                         nodes=4)).action == "scale-down"

    def test_open_breakers_also_block(self):
        scaler = Autoscaler(CONFIG)
        scaler.decide(signals_for(0, 0.1, nodes=4, open_breakers=1))
        decision = scaler.decide(signals_for(1, 0.1, nodes=4,
                                             open_breakers=1))
        assert decision.action == "blocked"

    def test_decision_traced_in_autoscale_region(self):
        scaler = Autoscaler(CONFIG)
        tracer = MemoryTracer()
        scaler.decide(signals_for(0, 0.95), tracer=tracer)
        decision = scaler.decide(signals_for(1, 0.95), tracer=tracer)
        addresses = tracer.addresses(AUTOSCALE_REGION)
        assert len(addresses) == 2
        # (tick * 1024 + target) * 4 + action encodes the decision.
        assert addresses[1] == (1 * 1024 + decision.target_nodes) * 4 + 1


class TestScalingAudit:
    @staticmethod
    def timeline():
        utils = [0.5, 0.9, 0.95, 0.95, 0.5, 0.2, 0.2, 0.2]
        return [signals_for(tick, util)
                for tick, util in enumerate(utils)]

    def test_compliant_controller_passes(self):
        finding = LeakageAuditor().require(scaling_subject(
            lambda: Autoscaler(CONFIG), self.timeline(), SKEWS))
        assert finding.passed
        assert not finding.leak_detected

    def test_hot_load_chaser_is_caught(self):
        finding = LeakageAuditor().audit(scaling_subject(
            lambda: HotLoadChasingController(CONFIG), self.timeline(),
            SKEWS, name="hot-load-chasing", expect_oblivious=False))
        assert finding.leak_detected
        assert finding.passed  # expected to leak, and it did

    def test_gate_raises_on_the_chaser(self):
        with pytest.raises(LeakageError, match="side channel"):
            LeakageAuditor().require(scaling_subject(
                lambda: HotLoadChasingController(CONFIG), self.timeline(),
                SKEWS))

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            scaling_subject(lambda: Autoscaler(CONFIG), [], SKEWS)


class TestSignalPlane:
    def test_snapshot_increments_tick_and_guards_division(self):
        plane = SignalPlane(interval_seconds=0.25)
        first = plane.snapshot(offered_rps=1000.0, achieved_rps=900.0,
                               capacity_rps=0.0, queue_delay_seconds=0.0,
                               shed_requests=0, current_nodes=2,
                               replication=2)
        second = plane.snapshot(offered_rps=1000.0, achieved_rps=900.0,
                                capacity_rps=4000.0,
                                queue_delay_seconds=0.001,
                                shed_requests=3, current_nodes=2,
                                replication=2)
        assert (first.tick, second.tick) == (0, 1)
        assert first.utilisation == 0.0            # zero capacity: no NaN
        assert second.utilisation == pytest.approx(0.25)
        assert math.isfinite(second.utilisation)

    def test_snapshot_reads_dispatcher_health(self):
        dispatcher = ResilientDispatcher(num_replicas=3)
        dispatcher.mark_down(1, until_seconds=FOREVER, now_seconds=0.0)
        plane = SignalPlane(dispatcher)
        signals = plane.snapshot(offered_rps=100.0, achieved_rps=100.0,
                                 capacity_rps=1000.0,
                                 queue_delay_seconds=0.0, shed_requests=0,
                                 current_nodes=3, replication=2,
                                 now_seconds=0.0)
        assert signals.crashed_nodes == 1
        assert signals.healthy_nodes == 2
        assert signals.unhealthy_nodes >= 1


@pytest.fixture(scope="module")
def epoch4(thresholds):
    from repro.serving import ServingConfig

    planner = RingPlanner(4, thresholds, DIM,
                          uniform_shape=DLRM_DHE_UNIFORM_64)
    plan = planner.plan(SIZES, ServingConfig(batch_size=32, threads=1))
    return PlanEpoch.create(0, plan, replication=2)


@pytest.fixture
def make_fleet(thresholds):
    """An R=2 fleet over a fresh dispatcher, as the autoscale storm builds."""
    from repro.serving import ServingConfig

    def make(nodes=4, confirm_ticks=1):
        planner = RingPlanner(nodes, thresholds, DIM,
                              uniform_shape=DLRM_DHE_UNIFORM_64)
        return ElasticFleet(planner, SIZES,
                            ServingConfig(batch_size=32, threads=1), CONFIG,
                            start_nodes=nodes, replication=2,
                            dispatcher=ResilientDispatcher(
                                num_replicas=nodes, min_replicas=2),
                            confirm_ticks=confirm_ticks)
    return make


class TestSupervisor:
    """Dead-replica detection and heals, on the one elastic fleet."""

    def test_detection_needs_confirm_ticks(self, make_fleet):
        fleet = make_fleet(nodes=3, confirm_ticks=2)
        fleet.dispatcher.mark_down(2, until_seconds=FOREVER, now_seconds=0.0)
        assert fleet.dead_nodes(0.0) == []      # first sighting
        assert fleet.dead_nodes(0.25) == [2]    # confirmed

    def test_recovered_replica_clears_the_streak(self, make_fleet):
        fleet = make_fleet(nodes=3, confirm_ticks=2)
        fleet.dispatcher.mark_down(2, until_seconds=0.1, now_seconds=0.0)
        assert fleet.dead_nodes(0.0) == []
        # The crash window has lapsed: not dead, streak resets.
        assert fleet.dead_nodes(0.25) == []
        fleet.dispatcher.mark_down(2, until_seconds=FOREVER,
                                   now_seconds=0.5)
        assert fleet.dead_nodes(0.5) == []

    def test_heal_moves_cover_exactly_the_dead_nodes_tables(self, epoch4):
        moves = heal_moves(epoch4, [1])
        expected = [table_id for table_id in range(NUM_TABLES)
                    if 1 in epoch4.owners(table_id)]
        assert [move.table_id for move in moves] == expected
        for move in moves:
            assert move.new_owners == (1,)
            assert 1 not in move.from_owners
            assert set(move.to_owners) == set(epoch4.owners(move.table_id))
            assert move.bytes_modelled == epoch4.footprint_of(move.table_id)

    def test_heal_issues_same_plan_successor_epoch(self, make_fleet):
        fleet = make_fleet()
        source = fleet.control.current
        fleet.dispatcher.mark_down(1, until_seconds=FOREVER, now_seconds=0.0)
        assert fleet.dead_nodes(0.0) == [1]
        migrator = fleet.heal([1], tick=0)
        assert fleet.control.current.epoch == source.epoch + 1
        assert migrator.target.plan is source.plan
        assert migrator.move_set()                 # explicit override set
        # The epoch diff alone would be empty — the override carries it.
        assert all(move.new_owners == (1,) for move in migrator.move_set())
        assert (fleet.pending, fleet.pending_kind) == (migrator, KIND_HEAL)
        assert fleet.migration_audits[-1]["kind"] == KIND_HEAL
        assert fleet.migration_ok

    def test_heal_without_dead_nodes_rejected(self, make_fleet):
        fleet = make_fleet()
        with pytest.raises(ValueError, match="at least one dead node"):
            fleet.heal([], tick=0)

    def test_mark_replaced_restores_health(self, make_fleet):
        fleet = make_fleet()
        fleet.dispatcher.mark_down(1, until_seconds=FOREVER, now_seconds=0.0)
        assert fleet.dead_nodes(0.0) == [1]
        fleet.heal([1], tick=0)
        fleet.complete()
        assert fleet.dispatcher.health_summary(0.0)["healthy"] == 4
        assert fleet.dead_nodes(0.25) == []
        assert fleet.control.live_epochs == [fleet.control.current.epoch]

    def test_released_slot_forgets_its_crash_streak(self, make_fleet):
        # A slot a scale-down releases comes back as a fresh machine: its
        # first crash is a first sighting, not the corpse's second.
        fleet = make_fleet(nodes=3, confirm_ticks=2)
        dispatcher = fleet.dispatcher
        dispatcher.mark_down(2, until_seconds=FOREVER, now_seconds=0.0)
        assert fleet.dead_nodes(0.0) == []
        dispatcher.ensure_replicas(2, allow_shrink=True)
        assert fleet.dead_nodes(0.25) == []
        dispatcher.ensure_replicas(3)
        dispatcher.mark_down(2, until_seconds=FOREVER, now_seconds=0.5)
        assert fleet.dead_nodes(0.5) == []
        assert fleet.dead_nodes(0.75) == [2]


class TestElasticFleet:
    def test_scale_down_releases_slots_only_on_complete(self, make_fleet):
        fleet = make_fleet()
        migration = fleet.reshape(ScaleDecision(0, ACTION_DOWN,
                                                "low-utilisation", 4, 3))
        assert migration is fleet.pending and migration.move_set()
        assert fleet.nodes == 3
        # The old epoch still routes in-flight traffic to slot 3.
        assert fleet.dispatcher.num_replicas == 4
        assert fleet.control.live_epochs == [0, 1]
        fleet.complete()
        assert fleet.dispatcher.num_replicas == 3
        assert fleet.control.live_epochs == [1]
        assert fleet.events == {"scale_up_events": 0,
                                "scale_down_events": 1}
        assert [audit["num_nodes"] for audit in fleet.plans.audits] == [4, 3]

    def test_one_migration_at_a_time(self, make_fleet):
        fleet = make_fleet()
        fleet.reshape(ScaleDecision(0, ACTION_DOWN, "low-utilisation", 4, 3))
        with pytest.raises(RuntimeError, match="still pending"):
            fleet.heal([0], tick=1)
        fleet.complete()
        with pytest.raises(RuntimeError, match="no pending migration"):
            fleet.complete()

    def test_hold_does_not_reshape(self, make_fleet):
        fleet = make_fleet()
        decision = fleet.decide(signals_for(0, 0.5, nodes=4))
        assert fleet.reshape(decision) is None
        assert fleet.pending is None
        assert fleet.control.current.epoch == 0
        assert len(fleet.timeline) == 1
