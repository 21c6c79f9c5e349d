"""StagePool: per-pool scaling over the shared audited cluster machinery."""

import hashlib
import json

import pytest

from repro.cluster.autoscale import ElasticFleet
from repro.data import KAGGLE_SPEC
from repro.llm.bench import INTERVAL_SECONDS, build_pools, rate_schedule
from repro.llm.stages import LlmServingSpec
from repro.telemetry.audit import contrasting_secrets


@pytest.fixture(scope="module")
def spec():
    return LlmServingSpec()


@pytest.fixture()
def pools(spec):
    return build_pools(spec)


def drive(pool, offered_rps, ticks, start_tick=0):
    for tick in range(ticks):
        pool.tick(offered_rps=offered_rps, queue_delay_seconds=0.001,
                  now_seconds=(start_tick + tick) * 0.25)


class TestScaling:
    def test_low_utilisation_sheds_a_node(self, pools):
        pool = pools["tokenize"]  # starts at 2, min 1: overprovisioned
        assert pool.nodes == 2
        drive(pool, offered_rps=600.0, ticks=4)
        assert pool.events["scale_down_events"] >= 1
        assert pool.nodes == 1
        assert pool.control.current.epoch >= 1

    def test_high_utilisation_adds_a_node(self, pools):
        pool = pools["decode"]  # starts at 1, max 4
        capacity = pool.per_node_capacity_rps
        drive(pool, offered_rps=2.0 * capacity, ticks=4)
        assert pool.events["scale_up_events"] >= 1
        assert pool.nodes >= 2

    def test_floor_is_respected(self, pools):
        pool = pools["prefill"]  # starts at its floor of 1
        drive(pool, offered_rps=1.0, ticks=6)
        assert pool.nodes == 1
        assert pool.events["scale_down_events"] == 0


class TestAuditPath:
    def test_every_reshape_rides_the_migration_audit(self, pools):
        pool = pools["tokenize"]
        drive(pool, offered_rps=600.0, ticks=4)
        total_events = sum(pool.events.values())
        assert total_events >= 1
        assert len(pool.migration_audits) == total_events
        assert pool.migration_ok
        assert all(audit["audit_passed"]
                   for audit in pool.migration_audits)

    def test_plans_are_memoised_and_placement_audited(self, pools):
        pool = pools["decode"]
        first = pool.plans.plan_for(3)
        audits_after_first = len(pool.plans.audits)
        assert pool.plans.plan_for(3) is first
        assert len(pool.plans.audits) == audits_after_first
        assert pool.placement_ok
        assert pool.plans.audits[-1] == {
            "pool": "decode", "num_nodes": 3,
            "plan_digest": first.digest(), "audit_divergence": 0.0,
            "audit_passed": True}

    def test_pools_are_the_autoscale_fleet(self, pools):
        # One plan / reshape / heal object: a pool only adds its pricing.
        assert all(isinstance(pool, ElasticFleet) for pool in pools.values())
        assert all(pool.dead_nodes(0.0) == [] for pool in pools.values())

    def test_ramp_ledger_matches_the_pre_fleet_pools(self, spec):
        """The bench ramp's plan and migration ledger, byte for byte.

        The digest was recorded at 4f3c48d, before the pools became
        :class:`ElasticFleet` s; decisions read utilisation only, so the
        pipeline's queue delays are not needed to replay them.
        """
        pools = build_pools(spec)
        for tick, rate in enumerate(rate_schedule()):
            for pool in pools.values():
                pool.tick(offered_rps=rate, queue_delay_seconds=0.0,
                          now_seconds=tick * INTERVAL_SECONDS)
        ledger = json.dumps({name: pool.to_dict()
                             for name, pool in pools.items()},
                            sort_keys=True)
        assert (hashlib.sha256(ledger.encode("utf-8")).hexdigest()
                == "41d07e51992dfce912ed28223533f694"
                   "ae5b223cd23f7033bfbdd01d6017dd5b")

    def test_decision_timeline_replays_skew_invariantly(self, pools):
        pool = pools["decode"]
        capacity = pool.per_node_capacity_rps
        drive(pool, offered_rps=2.0 * capacity, ticks=4)
        finding = pool.scaling_audit(
            contrasting_secrets(len(KAGGLE_SPEC.table_sizes), 64))
        assert finding.passed

    def test_to_dict_is_json_stable(self, pools):
        pool = pools["prefill"]
        drive(pool, offered_rps=100.0, ticks=2)
        json.dumps(pool.to_dict(), allow_nan=False)


class TestIndependence:
    def test_pools_scale_on_their_own_signals(self, pools):
        # Starve tokenize while saturating decode: each pool must move
        # only on its own plane.
        drive(pools["tokenize"], offered_rps=600.0, ticks=4)
        decode_capacity = pools["decode"].per_node_capacity_rps
        drive(pools["decode"], offered_rps=2.0 * decode_capacity, ticks=4)
        assert pools["tokenize"].events["scale_down_events"] >= 1
        assert pools["decode"].events["scale_up_events"] >= 1
        assert pools["prefill"].events == {"scale_up_events": 0,
                                           "scale_down_events": 0}
