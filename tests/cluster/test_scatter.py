"""ScatterGatherEngine: cross-shard joins, deadlines, and failover."""

import numpy as np
import pytest

from repro.cluster.placement import ShardPlanner
from repro.cluster.router import ShardRouter
from repro.cluster.scatter import (
    GATHER_OVERHEAD_SECONDS,
    ClusterUnavailableError,
    ScatterGatherEngine,
)
from repro.costmodel.latency import DLRM_DHE_UNIFORM_64, MLP_OVERHEAD_SECONDS
from repro.data import TERABYTE_SPEC
from repro.resilience.dispatch import ResilientDispatcher
from repro.resilience.retry import RetryPolicy
from repro.serving import BatchingPolicy, ExecutionEngine
from repro.serving.requests import RequestQueue

from .conftest import BATCH, DIM

SIZES = TERABYTE_SPEC.table_sizes


def make_engine(thresholds, config, nodes=4, replication=2, **kwargs):
    plan = ShardPlanner(nodes, thresholds, DIM,
                        uniform_shape=DLRM_DHE_UNIFORM_64
                        ).plan(SIZES, config)
    router = ShardRouter(nodes, replication=replication, plan=plan)
    return ScatterGatherEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds,
                               router, retry=RetryPolicy(
                                   deadline_seconds=0.500), **kwargs)


@pytest.fixture
def arrivals():
    return RequestQueue.poisson(128, 2000.0, rng=3)


@pytest.fixture
def policy():
    return BatchingPolicy(max_batch_size=BATCH, max_wait_seconds=0.002)


class TestGather:
    def test_every_request_answered_once(self, thresholds, config, arrivals,
                                         policy):
        result = make_engine(thresholds, config).serve(config, arrivals,
                                                       policy)
        assert result.num_requests == len(arrivals)
        assert result.report.latencies.shape == (len(arrivals),)
        assert result.shed_requests == 0
        assert result.availability == 1.0

    def test_latency_is_slowest_shard_plus_front_end(self, thresholds,
                                                     config, arrivals,
                                                     policy):
        engine = make_engine(thresholds, config)
        result = engine.serve(config, arrivals, policy)
        nodes = sorted(result.shard_reports)
        stacked = np.stack([result.shard_reports[n].latencies
                            for n in nodes])
        overhead = MLP_OVERHEAD_SECONDS + GATHER_OVERHEAD_SECONDS * len(nodes)
        np.testing.assert_allclose(result.report.latencies,
                                   stacked.max(axis=0) + overhead)

    def test_feature_counts_partition_the_model(self, thresholds, config,
                                                arrivals, policy):
        result = make_engine(thresholds, config).serve(config, arrivals,
                                                       policy)
        single = ExecutionEngine(SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds)
        scans, dhes = single.allocation_counts(config)
        assert result.report.scan_features == scans
        assert result.report.dhe_features == dhes

    def test_fleet_report_merges_all_shards(self, thresholds, config,
                                            arrivals, policy):
        result = make_engine(thresholds, config).serve(config, arrivals,
                                                       policy)
        assert result.fleet.num_requests == 4 * len(arrivals)
        assert result.fleet.batch_time_total == pytest.approx(
            sum(r.batch_time_total for r in result.shard_reports.values()))

    def test_sharding_beats_single_node_capacity(self, thresholds, config,
                                                 arrivals, policy):
        single = make_engine(thresholds, config, nodes=1, replication=1)
        sharded = make_engine(thresholds, config, nodes=4)
        a = single.serve(config, arrivals, policy)
        b = sharded.serve(config, arrivals, policy)
        assert b.capacity_rps > 2.0 * a.capacity_rps
        assert b.report.p99 < a.report.p99

    def test_deterministic_given_trace(self, thresholds, config, policy):
        engine = make_engine(thresholds, config)
        a = engine.serve(config, RequestQueue.poisson(64, 2000.0, rng=9),
                         policy)
        b = engine.serve(config, RequestQueue.poisson(64, 2000.0, rng=9),
                         policy)
        assert a.to_dict(sla_seconds=0.02) == b.to_dict(sla_seconds=0.02)


class TestDeadlines:
    def test_tight_deadline_sheds_and_censors(self, thresholds, config,
                                              arrivals, policy):
        plan = ShardPlanner(1, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(1, replication=1, plan=plan)
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds, router,
            retry=RetryPolicy(deadline_seconds=0.010))
        result = engine.serve(config, arrivals, policy)
        assert result.shed_requests > 0
        assert result.availability < 1.0
        assert result.report.latencies.max() <= 0.010 + 1e-12

    def test_deadline_composes_from_retry_policy(self, thresholds, config):
        engine = make_engine(thresholds, config)
        assert engine.retry.deadline_seconds == 0.500
        result = engine.serve(config,
                              RequestQueue.poisson(32, 2000.0, rng=1))
        assert result.deadline_seconds == 0.500


class TestFailover:
    def test_kill_one_node_of_r2_loses_zero_requests(self, thresholds,
                                                     config, arrivals,
                                                     policy):
        """ISSUE 4 acceptance: killing one node at replication 2 must lose
        nothing — the router fails over through the dispatcher."""
        dispatcher = ResilientDispatcher(num_replicas=4)
        dispatcher.mark_down(0, until_seconds=1e9, now_seconds=0.0)
        plan = ShardPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(4, replication=2, plan=plan)
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds, router,
            retry=RetryPolicy(deadline_seconds=0.500),
            dispatcher=dispatcher)
        result = engine.serve(config, arrivals, policy)
        assert result.unroutable_tables == ()
        assert result.shed_requests == 0
        assert result.availability == 1.0
        assert result.num_shards == 3
        assert 0 not in result.assignment

    def test_whole_fleet_down_raises(self, thresholds, config, arrivals):
        dispatcher = ResilientDispatcher(num_replicas=2)
        for node in range(2):
            dispatcher.mark_down(node, until_seconds=1e9, now_seconds=0.0)
        engine = make_engine(thresholds, config, nodes=2,
                             dispatcher=dispatcher)
        with pytest.raises(ClusterUnavailableError):
            engine.serve(config, arrivals)

    def test_unreplicated_kill_sheds_everything(self, thresholds, config,
                                                arrivals, policy):
        # R=1 and a dead node: its tables are unroutable, every request is
        # missing embeddings, and the whole trace is shed at the deadline.
        dispatcher = ResilientDispatcher(num_replicas=4)
        dispatcher.mark_down(0, until_seconds=1e9, now_seconds=0.0)
        plan = ShardPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(4, replication=1, plan=plan)
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds, router,
            retry=RetryPolicy(deadline_seconds=0.500),
            dispatcher=dispatcher)
        result = engine.serve(config, arrivals, policy)
        assert len(result.unroutable_tables) > 0
        assert result.shed_requests == result.num_requests
        assert result.availability == 0.0


class TestValidation:
    def test_empty_table_set_rejected(self, thresholds):
        router = ShardRouter(1)
        with pytest.raises(ValueError, match="at least one table"):
            ScatterGatherEngine((), DIM, DLRM_DHE_UNIFORM_64, thresholds,
                                router)

    def test_policy_validated_against_retry(self, thresholds, config,
                                            arrivals):
        engine = make_engine(thresholds, config)
        bad_policy = BatchingPolicy(max_batch_size=BATCH,
                                    max_wait_seconds=1.0)
        with pytest.raises(ValueError):
            engine.serve(config, arrivals, bad_policy)


class TestAllShedGuards:
    def _all_shed_result(self, thresholds, config):
        # a deadline far below one batch latency sheds every request
        plan = ShardPlanner(4, thresholds, DIM,
                            uniform_shape=DLRM_DHE_UNIFORM_64
                            ).plan(SIZES, config)
        router = ShardRouter(4, replication=2, plan=plan)
        engine = ScatterGatherEngine(
            SIZES, DIM, DLRM_DHE_UNIFORM_64, thresholds, router,
            retry=RetryPolicy(deadline_seconds=0.001))
        return engine.serve(config, RequestQueue.poisson(64, 2000.0, rng=2))

    def test_throughput_is_zero_when_everything_sheds(self, thresholds,
                                                      config):
        result = self._all_shed_result(thresholds, config)
        assert result.shed_requests == result.num_requests > 0
        assert result.availability == 0.0
        assert result.cluster_throughput() == 0.0
        assert result.capacity_rps > 0.0  # capacity is a property of the
        # topology, not of this (entirely shed) trace

    def test_all_shed_report_is_nan_free(self, thresholds, config):
        import json

        result = self._all_shed_result(thresholds, config)
        payload = result.to_dict(sla_seconds=0.020)
        text = json.dumps(payload, allow_nan=False)  # raises on NaN/inf
        assert "NaN" not in text
        assert payload["sla_attainment"] == 0.0
        assert payload["p99_seconds"] <= 0.001 + 1e-12


class TestZeroCapacityEdge:
    """ISSUE 8 satellite: a zero-capacity cell must never divide."""

    def _zero_capacity(self, thresholds, config, arrivals, policy):
        import dataclasses

        result = make_engine(thresholds, config).serve(config, arrivals,
                                                       policy)
        return dataclasses.replace(result, capacity_rps=0.0)

    def test_utilisation_is_zero_not_inf(self, thresholds, config, arrivals,
                                         policy):
        result = self._zero_capacity(thresholds, config, arrivals, policy)
        assert result.utilisation(8000.0) == 0.0
        assert result.utilisation(0.0) == 0.0
        assert result.utilisation(-1.0) == 0.0

    def test_to_dict_survives_allow_nan_false(self, thresholds, config,
                                              arrivals, policy):
        import json

        result = self._zero_capacity(thresholds, config, arrivals, policy)
        json.dumps(result.to_dict(sla_seconds=0.020), allow_nan=False)

    def test_infinite_deadline_serialises_as_none(self, thresholds, config,
                                                  arrivals, policy):
        import dataclasses
        import json
        import math

        result = make_engine(thresholds, config).serve(config, arrivals,
                                                       policy)
        free = dataclasses.replace(result, deadline_seconds=math.inf)
        payload = free.to_dict()
        json.dumps(payload, allow_nan=False)
        assert payload["deadline_seconds"] is None


class TestMergeCounters:
    """ISSUE 8 satellite: autoscale counters SUM under merge."""

    def _intervals(self, thresholds, config, policy, count=3):
        engine = make_engine(thresholds, config)
        return [engine.serve(config,
                             RequestQueue.poisson(32, 2000.0, rng=i),
                             policy)
                for i in range(count)]

    def test_event_counters_sum_never_average(self, thresholds, config,
                                              policy):
        from repro.cluster.scatter import ClusterServingReport

        intervals = self._intervals(thresholds, config, policy)
        intervals[0].scale_up_events = 2
        intervals[1].scale_up_events = 1
        intervals[1].scale_down_events = 1
        intervals[2].heal_events = 3
        merged = ClusterServingReport.merge(intervals)
        assert merged.scale_up_events == 3
        assert merged.scale_down_events == 1
        assert merged.heal_events == 3
        digest = merged.to_dict()
        assert digest["scale_up_events"] == 3
        assert digest["heal_events"] == 3

    def test_requests_and_sheds_sum(self, thresholds, config, policy):
        from repro.cluster.scatter import ClusterServingReport

        intervals = self._intervals(thresholds, config, policy)
        merged = ClusterServingReport.merge(intervals)
        assert merged.num_requests == sum(r.num_requests for r in intervals)
        assert merged.shed_requests == sum(r.shed_requests
                                           for r in intervals)

    def test_capacity_is_peak_and_zero_merges_cleanly(self, thresholds,
                                                      config, policy):
        import dataclasses
        import json

        from repro.cluster.scatter import ClusterServingReport

        intervals = self._intervals(thresholds, config, policy, count=2)
        dead = dataclasses.replace(intervals[0], capacity_rps=0.0)
        merged = ClusterServingReport.merge([dead, intervals[1]])
        assert merged.capacity_rps == intervals[1].capacity_rps
        json.dumps(merged.to_dict(sla_seconds=0.020), allow_nan=False)

    def test_merged_percentiles_are_union_percentiles(self, thresholds,
                                                      config, policy):
        import numpy as np

        from repro.cluster.scatter import ClusterServingReport

        intervals = self._intervals(thresholds, config, policy)
        merged = ClusterServingReport.merge(intervals)
        union = np.concatenate([r.report.latencies for r in intervals])
        assert merged.p99 == pytest.approx(
            float(np.percentile(union, 99.0)))

    def test_empty_merge_rejected(self):
        from repro.cluster.scatter import ClusterServingReport

        with pytest.raises(ValueError, match="at least one report"):
            ClusterServingReport.merge([])


class TestMergeHeterogeneousIntervals:
    """ISSUE 10 satellite: resilient intervals survive the fleet merge."""

    def _intervals(self, thresholds, config, policy, count=2):
        engine = make_engine(thresholds, config)
        return [engine.serve(config,
                             RequestQueue.poisson(32, 2000.0, rng=i),
                             policy)
                for i in range(count)]

    def test_resilient_interval_keeps_fault_counters(self, thresholds,
                                                     config, policy):
        import dataclasses

        from repro.cluster.scatter import ClusterServingReport
        from repro.resilience.report import ResilientServingReport

        intervals = self._intervals(thresholds, config, policy)
        lifted = ResilientServingReport.from_serving_report(
            intervals[0].report, attempts_total=9, retries_total=3,
            shed_requests=1)
        intervals[0] = dataclasses.replace(intervals[0], report=lifted)
        merged = ClusterServingReport.merge(intervals)
        assert isinstance(merged.report, ResilientServingReport)
        assert merged.report.attempts_total == 9
        assert merged.report.retries_total == 3
        assert merged.report.shed_requests == 1
        # the plain interval's latencies are still in the union
        assert merged.num_requests == sum(r.num_requests
                                          for r in intervals)
