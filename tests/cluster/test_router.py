"""ShardRouter: consistent hashing, replication, and failover routing."""

import pytest

from repro.cluster.placement import ShardPlanner
from repro.cluster.router import ShardRouter, replica_table_sets, ring_hash
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.resilience.dispatch import ResilientDispatcher

from .conftest import DIM

SIZES = TERABYTE_SPEC.table_sizes
NUM_TABLES = len(SIZES)


class TestRingHash:
    def test_deterministic(self):
        assert ring_hash("table-3") == ring_hash("table-3")

    def test_spreads_keys(self):
        assert len({ring_hash(f"table-{i}") for i in range(100)}) == 100


class TestOwnership:
    def test_replica_sets_are_distinct_nodes(self):
        router = ShardRouter(4, replication=3)
        for table_id in range(NUM_TABLES):
            owners = router.owners(table_id)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_replication_cannot_exceed_nodes(self):
        with pytest.raises(ValueError, match="exceeds num_nodes"):
            ShardRouter(2, replication=3)

    def test_plan_primary_leads_owner_set(self, thresholds, config):
        plan = ShardPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(4, replication=2, plan=plan)
        for table_id in range(NUM_TABLES):
            assert router.owners(table_id)[0] == plan.node_of(table_id)

    def test_plan_node_count_mismatch(self, thresholds, config):
        plan = ShardPlanner(2, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        with pytest.raises(ValueError, match="plan places onto"):
            ShardRouter(4, replication=2, plan=plan)

    def test_consistent_hashing_is_incremental(self):
        # Adding a node must only remap tables onto the new node, never
        # shuffle tables between surviving nodes.
        before = ShardRouter(4, replication=1)
        after = ShardRouter(5, replication=1)
        moved = 0
        for table_id in range(NUM_TABLES):
            old, new = before.owners(table_id)[0], after.owners(table_id)[0]
            if old != new:
                moved += 1
                assert new == 4
        assert moved < NUM_TABLES


class TestRouting:
    def test_routes_to_primary_without_dispatcher(self):
        router = ShardRouter(4, replication=2)
        routed, _ = router.assignment(NUM_TABLES)
        for table_id in range(NUM_TABLES):
            assert table_id in routed[router.owners(table_id)[0]]

    def test_fails_over_to_replica_when_primary_down(self):
        router = ShardRouter(4, replication=2)
        dispatcher = ResilientDispatcher(num_replicas=4)
        victim = router.owners(0)[0]
        dispatcher.mark_down(victim, until_seconds=1e9, now_seconds=0.0)
        routed, _ = router.assignment(NUM_TABLES, 0.0, dispatcher)
        assert 0 in routed[router.owners(0)[1]]
        assert victim not in routed

    def test_route_none_when_all_owners_down(self):
        router = ShardRouter(2, replication=2)
        dispatcher = ResilientDispatcher(num_replicas=2)
        for node in range(2):
            dispatcher.mark_down(node, until_seconds=1e9, now_seconds=0.0)
        routed, unroutable = router.assignment(NUM_TABLES, 0.0, dispatcher)
        assert routed == {}
        assert unroutable == list(range(NUM_TABLES))

    def test_assignment_partitions_routable_tables(self):
        router = ShardRouter(4, replication=2)
        routed, unroutable = router.assignment(NUM_TABLES)
        assert unroutable == []
        flat = sorted(t for tables in routed.values() for t in tables)
        assert flat == list(range(NUM_TABLES))

    def test_assignment_with_one_node_down_loses_nothing(self):
        router = ShardRouter(4, replication=2)
        dispatcher = ResilientDispatcher(num_replicas=4)
        dispatcher.mark_down(0, until_seconds=1e9, now_seconds=0.0)
        routed, unroutable = router.assignment(NUM_TABLES, 0.0, dispatcher)
        assert unroutable == []
        assert 0 not in routed
        flat = sorted(t for tables in routed.values() for t in tables)
        assert flat == list(range(NUM_TABLES))


class TestProvisioning:
    def test_replica_table_sets_cover_replication_factor(self):
        router = ShardRouter(4, replication=2)
        holdings = replica_table_sets(router, SIZES)
        total = sum(len(tables) for tables in holdings.values())
        assert total == 2 * NUM_TABLES

    def test_ownership_counts_match_holdings(self):
        router = ShardRouter(4, replication=2)
        holdings = replica_table_sets(router, SIZES)
        counts = router.ownership_counts(NUM_TABLES)
        assert [len(holdings[node]) for node in range(4)] == counts

    def test_to_dict_includes_owner_map(self):
        digest = ShardRouter(2, replication=2).to_dict(num_tables=4)
        assert digest["replication"] == 2
        assert len(digest["owners"]) == 4


class TestOwnersMemoisation:
    def test_memoized_owners_match_ring_walk(self):
        # the cache must be a pure speedup: every table's memoized owner
        # set equals the unmemoized ring walk
        router = ShardRouter(4, replication=2)
        for table_id in range(NUM_TABLES):
            assert router.owners(table_id) == router._compute_owners(table_id)

    def test_memoized_owners_match_with_plan_primary(self, thresholds,
                                                     config):
        plan = ShardPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(4, replication=2, plan=plan)
        for table_id in range(NUM_TABLES):
            assert router.owners(table_id) == router._compute_owners(table_id)

    def test_cache_fills_once_per_table(self):
        router = ShardRouter(4, replication=2)
        for _ in range(3):
            for table_id in range(NUM_TABLES):
                router.owners(table_id)
        assert len(router._owners_cache) == NUM_TABLES

    def test_owners_alias_resolves_to_memoized_path(self):
        # one spelling: owners() fills the memo the walk and the
        # provisioning view both read
        router = ShardRouter(4, replication=2)
        assert router.owners(7) == router._compute_owners(7)
        assert 7 in router._owners_cache
        assert router.assignment(NUM_TABLES)[1] == []
        assert len(router._owners_cache) == NUM_TABLES
