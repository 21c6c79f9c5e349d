"""The resilient executor end-to-end + the chaos harness contract."""

import json

import numpy as np
import pytest

from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.resilience import (
    FaultInjector,
    LatencySpikeFault,
    ReplicaCrashFault,
    ResiliencePolicy,
    ResilientServingReport,
    RetryPolicy,
    StashPressureFault,
    TransientErrorFault,
)
from repro.resilience.chaos import BENCH, main, run_chaos
from repro.resilience.degradation import DegradationLadder
from repro.serving import (
    BatchingPolicy,
    ExecutionEngine,
    RequestQueue,
    ServingConfig,
)

DIM = 64
BATCH = 32


@pytest.fixture(scope="module")
def thresholds():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    profile = profiler.profile(techniques=("scan", "dhe-varied"),
                               dims=(DIM,), batches=(BATCH,),
                               threads_list=(1,))
    return build_threshold_database(profile, dhe_technique="dhe-varied",
                                    dims=(DIM,), batches=(BATCH,),
                                    threads_list=(1,))


def make_engine(thresholds, resilience):
    return ExecutionEngine(TERABYTE_SPEC.table_sizes, DIM,
                           DLRM_DHE_UNIFORM_64, thresholds,
                           resilience=resilience)


def storm_policy(seed=0, ladder=None):
    return ResiliencePolicy(
        injector=FaultInjector(
            seed=seed,
            crash=ReplicaCrashFault(probability=0.05,
                                    downtime_seconds=0.040),
            spike=LatencySpikeFault(probability=0.15, multiplier=4.0),
            transient=TransientErrorFault(probability=0.15),
            stash=(StashPressureFault(probability=0.6)
                   if ladder is not None else None)),
        retry=RetryPolicy(deadline_seconds=0.500),
        num_replicas=3, ladder=ladder)


class TestResilientExecution:
    def test_faulty_run_reports_fault_accounting(self, thresholds):
        engine = make_engine(thresholds, storm_policy(seed=7))
        config = ServingConfig(batch_size=BATCH, threads=1)
        report = engine.serve(
            config, RequestQueue.poisson(512, 2000.0, rng=7),
            BatchingPolicy(BATCH, max_wait_seconds=0.002))
        assert isinstance(report, ResilientServingReport)
        assert report.attempts_total >= report.num_batches
        assert (report.retries_total + report.spike_events
                + report.crash_events + report.transient_faults) > 0
        assert 0.0 <= report.availability <= 1.0
        assert report.fleet_snapshot is not None

    def test_same_seed_same_run(self, thresholds):
        config = ServingConfig(batch_size=BATCH, threads=1)
        policy = BatchingPolicy(BATCH, max_wait_seconds=0.002)

        def run():
            engine = make_engine(thresholds, storm_policy(seed=11))
            return engine.serve(
                config, RequestQueue.poisson(256, 2000.0, rng=11), policy)

        first, second = run(), run()
        assert np.array_equal(first.latencies, second.latencies)
        assert first.retries_total == second.retries_total
        assert first.to_dict(0.020) == second.to_dict(0.020)

    def test_ladder_degrades_under_stash_pressure(self, thresholds):
        ladder = DegradationLadder(trigger_after=2)
        engine = make_engine(thresholds, storm_policy(seed=7, ladder=ladder))
        config = ServingConfig(batch_size=BATCH, threads=1)
        report = engine.serve(
            config, RequestQueue.poisson(512, 2000.0, rng=7),
            BatchingPolicy(BATCH, max_wait_seconds=0.002))
        assert report.degradations > 0
        for event in report.degradation_events:
            assert event.audit_passed
            assert event.to_technique != "lookup"

    def test_min_replicas_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            ResiliencePolicy(injector=FaultInjector(), num_replicas=2,
                             min_replicas=3)

    def test_report_dict_has_no_wall_clock(self, thresholds):
        engine = make_engine(thresholds, storm_policy(seed=3))
        config = ServingConfig(batch_size=BATCH, threads=1)
        report = engine.serve(
            config, RequestQueue.poisson(128, 2000.0, rng=3),
            BatchingPolicy(BATCH, max_wait_seconds=0.002))
        digest = report.to_dict(sla_seconds=0.020)
        json.dumps(digest)  # fully serialisable
        assert "sla_violations" in digest
        assert digest["availability"] == report.availability


class TestChaosHarness:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(seed=7, num_requests=256)

    def test_gates_pass_at_the_pinned_seed(self, report):
        assert report["gates"]["availability"]
        assert report["gates"]["degradation_audits"]
        assert report["gates"]["passed"]
        for scenario in report["scenarios"]:
            assert scenario["availability"] >= 0.99

    def test_identical_seed_identical_json(self, report):
        again = run_chaos(seed=7, num_requests=256)
        assert (json.dumps(report, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_degradations_stay_oblivious(self, report):
        stash = next(s for s in report["scenarios"]
                     if s["name"] == "stash-pressure")
        assert stash["degradations"], "stash scenario should degrade"
        for event in stash["degradations"]:
            assert event["to"] != "lookup"
            assert event["audit_passed"]

    def test_fault_schedule_is_embedded_and_seed_keyed(self, report):
        storm = next(s for s in report["scenarios"]
                     if s["name"] == "crash-spike-transient")
        schedule = storm["fault_schedule"]
        assert set(schedule) == {"crashes", "spikes", "transients",
                                 "stash_pressure"}
        other = run_chaos(seed=8, num_requests=256)
        other_storm = next(s for s in other["scenarios"]
                           if s["name"] == "crash-spike-transient")
        assert schedule != other_storm["fault_schedule"]

    def test_render_mentions_every_scenario(self, report):
        text = BENCH.tabulate(report).render()
        for scenario in report["scenarios"]:
            assert scenario["name"] in text

    def test_infinite_rate_rejected_before_any_serve(self):
        # An infinite rate would put every request at t = 0 and leave an
        # inf in the report; it is refused before anything is served.
        with pytest.raises(ValueError, match="rate_rps"):
            main(["--rate", "inf"])
