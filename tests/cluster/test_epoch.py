"""PlanEpoch + EpochControlPlane: versioning, epoch routing, carry-over."""

import pytest

from repro.cluster.epoch import (
    EpochControlPlane,
    PlanEpoch,
    UnknownEpochError,
)
from repro.cluster.placement import RingPlanner
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.resilience import BreakerConfig, ResilientDispatcher
from repro.telemetry.runtime import use_registry

from .conftest import DIM

SIZES = TERABYTE_SPEC.table_sizes
NUM_TABLES = len(SIZES)
TRIPPY = BreakerConfig(failure_threshold=2, cooldown_seconds=1e6,
                       probe_successes=1)


def primaries(router):
    """table id -> the node serving it with every replica healthy."""
    routed, _ = router.assignment(NUM_TABLES)
    return {table_id: node for node, tables in routed.items()
            for table_id in tables}


@pytest.fixture(scope="module")
def plans(thresholds):
    planner = RingPlanner(4, thresholds, DIM,
                          uniform_shape=DLRM_DHE_UNIFORM_64)
    from repro.serving import ServingConfig

    config = ServingConfig(batch_size=32, threads=1)
    return {nodes: planner.for_nodes(nodes).plan(SIZES, config)
            for nodes in (3, 4, 5)}


class TestPlanEpoch:
    def test_create_binds_router_to_epoch(self, plans):
        epoch = PlanEpoch.create(3, plans[4], replication=2)
        assert epoch.epoch == 3
        assert epoch.router.plan is plans[4]
        assert epoch.router.replication == 2
        assert epoch.num_nodes == 4
        assert epoch.replication == 2
        assert epoch.num_tables == NUM_TABLES

    def test_negative_epoch_rejected(self, plans):
        with pytest.raises(ValueError, match="epoch must be >= 0"):
            PlanEpoch.create(-1, plans[4])

    def test_successor_increments_and_keeps_replication(self, plans):
        epoch = PlanEpoch.create(0, plans[4], replication=2)
        nxt = epoch.successor(plans[5])
        assert nxt.epoch == 1
        assert nxt.replication == 2
        assert nxt.num_nodes == 5

    def test_owners_follow_plan_primary(self, plans):
        epoch = PlanEpoch.create(0, plans[4], replication=2)
        for table_id in range(NUM_TABLES):
            owners = epoch.owners(table_id)
            assert owners[0] == plans[4].node_of(table_id)
            assert len(owners) == 2

    def test_footprint_of_unknown_table_raises(self, plans):
        epoch = PlanEpoch.create(0, plans[4])
        assert epoch.footprint_of(0) > 0
        with pytest.raises(KeyError):
            epoch.footprint_of(NUM_TABLES)

    def test_to_dict_lists_every_owner_set(self, plans):
        payload = PlanEpoch.create(0, plans[4], replication=2).to_dict()
        assert payload["epoch"] == 0
        assert len(payload["owners"]) == NUM_TABLES


class TestControlPlane:
    def test_advance_issues_successor(self, plans):
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
        issued = control.advance(plans[5])
        assert issued.epoch == 1
        assert control.current is issued
        assert control.live_epochs == [0, 1]

    def test_advance_counts_epochs(self, plans):
        with use_registry() as registry:
            control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
            control.advance(plans[5])
            snapshot = registry.snapshot()
        assert snapshot["counters"]["cluster.epochs_total"] == 1.0
        assert snapshot["gauges"]["cluster.current_epoch"] == 1.0

    def test_routes_by_arrival_epoch(self, plans):
        # A request that arrived under epoch 0 keeps routing by epoch 0's
        # owner map even after the cutover to epoch 1.
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
        control.advance(plans[5])
        before = control.epoch(0)
        after = control.epoch(1)
        moved = [table_id for table_id in range(NUM_TABLES)
                 if before.owners(table_id) != after.owners(table_id)]
        assert moved  # the 4->5 reshard moves some tables
        old_routes = primaries(before.router)
        new_routes = primaries(after.router)
        for table_id in moved:
            assert old_routes[table_id] == before.owners(table_id)[0]
            assert new_routes[table_id] == after.owners(table_id)[0]

    def test_unknown_epoch_raises(self, plans):
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
        with pytest.raises(UnknownEpochError, match="never issued"):
            control.epoch(9)

    def test_retire_drops_old_epochs(self, plans):
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
        control.advance(plans[5])
        control.retire_through(0)
        assert control.live_epochs == [1]
        with pytest.raises(UnknownEpochError):
            control.epoch(0)

    def test_cannot_retire_current_epoch(self, plans):
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]))
        with pytest.raises(ValueError, match="cannot retire the current"):
            control.retire_through(0)


class TestRapidDerivation:
    """ISSUE 8 satellite: back-to-back epoch derivations with in-flight
    traffic — each epoch routes by its own owner map until it drains, and
    only retirement makes it unknown."""

    def _three_epochs(self, plans, dispatcher=None):
        control = EpochControlPlane(PlanEpoch.create(0, plans[3],
                                                     replication=2),
                                    dispatcher=dispatcher)
        control.advance(plans[4])
        control.advance(plans[5])
        return control

    def test_three_back_to_back_epochs_stay_live(self, plans):
        control = self._three_epochs(plans)
        assert control.live_epochs == [0, 1, 2]
        assert control.current.epoch == 2
        assert [control.epoch(e).num_nodes for e in (0, 1, 2)] == [3, 4, 5]

    def test_in_flight_traffic_routes_by_origin_epoch(self, plans):
        control = self._three_epochs(plans)
        epochs = {e: control.epoch(e) for e in (0, 1, 2)}
        # requests that arrived under each epoch keep that epoch's owners,
        # even while two newer plans are already live
        for epoch_id, plan_epoch in epochs.items():
            routes = primaries(plan_epoch.router)
            for table_id in range(NUM_TABLES):
                assert routes[table_id] == plan_epoch.owners(table_id)[0]

    def test_drain_then_retire_in_order(self, plans):
        control = self._three_epochs(plans)
        control.retire_through(0)
        assert control.live_epochs == [1, 2]
        # epoch 1 traffic still in flight: must stay routable
        assert control.epoch(1).router.assignment(NUM_TABLES)[1] == []
        control.retire_through(1)
        assert control.live_epochs == [2]

    def test_unknown_only_after_retirement(self, plans):
        control = self._three_epochs(plans)
        assert control.epoch(0).epoch == 0  # live before retirement
        control.retire_through(1)
        for stale in (0, 1):
            with pytest.raises(UnknownEpochError):
                control.epoch(stale)
        assert control.epoch(2).router.assignment(NUM_TABLES)[1] == []

    def test_retire_through_skips_already_retired(self, plans):
        control = self._three_epochs(plans)
        control.retire_through(0)
        control.retire_through(0)  # idempotent: nothing <= 0 is live
        assert control.live_epochs == [1, 2]

    def test_shrink_waits_for_the_widest_live_epoch(self, plans):
        # Scale-down cutover: 5 -> 4 nodes. The dispatcher may only give
        # up slot 4 once no live epoch routes to it.
        dispatcher = ResilientDispatcher(num_replicas=3, min_replicas=2)
        control = self._three_epochs(plans, dispatcher=dispatcher)
        assert dispatcher.num_replicas == 5  # advance() grew the fleet
        down = control.advance(plans[4])
        assert down.epoch == 3
        control.retire_through(1, shrink_dispatcher=True)
        # epoch 2 (5 nodes) is still draining: no shrink yet
        assert dispatcher.num_replicas == 5
        control.retire_through(2, shrink_dispatcher=True)
        assert dispatcher.num_replicas == 4


class TestDispatcherCarryOver:
    def test_breaker_state_survives_epoch_change(self, plans):
        # Trip node 1's breaker under epoch 0; after advancing to a
        # 5-node epoch the same breaker must still be open — a plan
        # change does not heal a sick node — and the new replica joins
        # the rotation healthy.
        dispatcher = ResilientDispatcher(num_replicas=4,
                                         breaker_config=TRIPPY)
        control = EpochControlPlane(PlanEpoch.create(0, plans[4]),
                                    dispatcher=dispatcher)
        dispatcher.record_failure(1, 0.0)
        dispatcher.record_failure(1, 0.0)
        assert dispatcher.admitted(0.0) == [0, 2, 3]

        control.advance(plans[5])
        assert dispatcher.num_replicas == 5
        assert dispatcher.admitted(0.0) == [0, 2, 3, 4]

    def test_route_skips_downed_replica_in_both_epochs(self, plans):
        dispatcher = ResilientDispatcher(num_replicas=4,
                                         breaker_config=TRIPPY)
        control = EpochControlPlane(PlanEpoch.create(0, plans[4],
                                                     replication=2),
                                    dispatcher=dispatcher)
        control.advance(plans[5])
        victim = control.epoch(0).owners(0)[0]
        dispatcher.mark_down(victim, until_seconds=1e6, now_seconds=0.0)
        for epoch_id in (0, 1):
            routed, unroutable = control.epoch(epoch_id).router.assignment(
                NUM_TABLES, 0.0, dispatcher)
            assert unroutable == []
            assert victim not in routed
            assert any(0 in tables for tables in routed.values())
