"""ShardPlanner: static placement, capacity, and the leakage gate."""

import pytest

from repro.cluster.placement import (
    PLACEMENT_REGION,
    FrequencyKeyedPlanner,
    PlacementError,
    ShardPlanner,
    placement_subject,
)
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.oblivious.trace import MemoryTracer
from repro.telemetry.audit import (
    LeakageAuditor,
    LeakageError,
    contrasting_secrets,
)

from .conftest import DIM

SIZES = TERABYTE_SPEC.table_sizes


def make_planner(thresholds, nodes=4, **kwargs):
    return ShardPlanner(nodes, thresholds, DIM,
                        uniform_shape=DLRM_DHE_UNIFORM_64, **kwargs)


class TestShardPlan:
    def test_every_table_placed_exactly_once(self, thresholds, config):
        plan = make_planner(thresholds).plan(SIZES, config)
        placed = sorted(p.table_id for p in plan.placements)
        assert placed == list(range(len(SIZES)))
        for table_id in range(len(SIZES)):
            assert 0 <= plan.node_of(table_id) < 4

    def test_latency_loads_are_balanced(self, thresholds, config):
        # LPT on per-table latency: max/mean load should be close to 1.
        plan = make_planner(thresholds).plan(SIZES, config)
        assert plan.latency_imbalance() < 1.5

    def test_plan_is_deterministic(self, thresholds, config):
        planner = make_planner(thresholds)
        a = planner.plan(SIZES, config)
        b = planner.plan(SIZES, config)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_roundtrips_key_fields(self, thresholds, config):
        digest = make_planner(thresholds).plan(SIZES, config).to_dict()
        assert digest["num_nodes"] == 4
        assert len(digest["placements"]) == len(SIZES)
        assert len(digest["node_latency_seconds"]) == 4


class TestCapacity:
    def test_capacity_violation_raises(self, thresholds, config):
        planner = make_planner(thresholds, nodes=2, node_capacity_bytes=1)
        with pytest.raises(PlacementError, match="fits no node"):
            planner.plan(SIZES, config)

    def test_ample_capacity_places_everything(self, thresholds, config):
        planner = make_planner(thresholds, nodes=2,
                               node_capacity_bytes=10**12)
        plan = planner.plan(SIZES, config)
        assert len(plan.placements) == len(SIZES)


class TestObliviousnessInvariant:
    def test_workload_does_not_move_placement(self, thresholds, config):
        planner = make_planner(thresholds)
        digests = set()
        for workload in contrasting_secrets(len(SIZES), 64):
            plan = planner.plan(SIZES, config, workload=workload)
            digests.add(str(plan.to_dict()))
        assert len(digests) == 1

    def test_placement_trace_recorded(self, thresholds, config):
        tracer = MemoryTracer()
        make_planner(thresholds).plan(SIZES, config, tracer=tracer)
        assert len(tracer.addresses(PLACEMENT_REGION)) == len(SIZES)

    def test_frequency_keyed_planner_is_caught(self, thresholds, config):
        """The negative test the issue demands: a deliberately
        frequency-keyed placement must fail the gate loudly."""
        leaky = FrequencyKeyedPlanner(4, thresholds, DIM,
                                      uniform_shape=DLRM_DHE_UNIFORM_64)
        with pytest.raises(LeakageError, match="side channel"):
            LeakageAuditor().require(placement_subject(leaky, SIZES, config))

    def test_frequency_keyed_audit_finding(self, thresholds, config):
        leaky = FrequencyKeyedPlanner(4, thresholds, DIM,
                                      uniform_shape=DLRM_DHE_UNIFORM_64)
        finding = LeakageAuditor().audit(placement_subject(
            leaky, SIZES, config, expect_oblivious=False))
        assert finding.leak_detected
        assert finding.passed  # expectation (leaky) matched reality


class TestRingPlanner:
    def test_primaries_follow_the_ring(self, thresholds, config):
        from repro.cluster.placement import RingPlanner
        from repro.cluster.router import ShardRouter

        plan = RingPlanner(4, thresholds, DIM,
                           uniform_shape=DLRM_DHE_UNIFORM_64
                           ).plan(SIZES, config)
        ring = ShardRouter(4)
        for table_id in range(len(SIZES)):
            assert plan.node_of(table_id) == ring.owners(table_id)[0]

    def test_ring_placement_passes_the_audit(self, thresholds, config):
        from repro.cluster.placement import RingPlanner

        planner = RingPlanner(4, thresholds, DIM,
                              uniform_shape=DLRM_DHE_UNIFORM_64)
        finding = LeakageAuditor().require(
            placement_subject(planner, SIZES, config))
        assert finding.passed
        assert not finding.leak_detected

    def test_for_nodes_keeps_the_subclass(self, thresholds):
        from repro.cluster.placement import RingPlanner

        clone = RingPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64).for_nodes(5)
        assert isinstance(clone, RingPlanner)
        assert clone.num_nodes == 5

    def test_replans_are_incremental(self, thresholds, config):
        # the property the epoch control plane leans on: replanning for
        # one more node must move only ~1/5 of the primaries
        from repro.cluster.placement import RingPlanner

        planner = RingPlanner(4, thresholds, DIM,
                              uniform_shape=DLRM_DHE_UNIFORM_64)
        before = planner.plan(SIZES, config)
        after = planner.for_nodes(5).plan(SIZES, config)
        moved = sum(before.node_of(t) != after.node_of(t)
                    for t in range(len(SIZES)))
        assert 0 < moved <= len(SIZES) // 5 + 3
