"""Pipeline composition: serve() parity pin + queue-delay-once accounting.

A one-stage :class:`PipelineEngine` whose stage body is
``ExecutionEngine.serve()`` must return that report bit-for-bit, and
composing multi-stage reports (:meth:`ServingReport.compose`) must count
every inter-stage wait exactly once (as the downstream stage's queueing
delay).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.resilience.report import ResilientServingReport
from repro.serving import (
    BatchingPolicy,
    ExecutionEngine,
    PipelineEngine,
    PipelineReport,
    PipelineStage,
    PricedStage,
    ServingConfig,
    ServingReport,
    StageResult,
)
from repro.serving.requests import RequestQueue

BATCHES = (1, 32)
THREADS = (1,)
DIM = 64


@pytest.fixture(scope="module")
def engine():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    profile = profiler.profile(techniques=("scan", "dhe-varied"),
                               dims=(DIM,), batches=BATCHES,
                               threads_list=THREADS)
    thresholds = build_threshold_database(profile,
                                          dhe_technique="dhe-varied",
                                          dims=(DIM,), batches=BATCHES,
                                          threads_list=THREADS)
    return ExecutionEngine(TERABYTE_SPEC.table_sizes, DIM,
                           DLRM_DHE_UNIFORM_64, thresholds)


def constant(seconds):
    return lambda batch_size: seconds


def component_report(queue, service, **overrides):
    defaults = dict(num_batches=1, scan_features=0, dhe_features=0,
                    batch_time_total=float(np.sum(service)))
    defaults.update(overrides)
    return ServingReport.from_components(
        queue_delays=np.asarray(queue, dtype=np.float64),
        service_latencies=np.asarray(service, dtype=np.float64),
        **defaults)


class _CannedStage(PipelineStage):
    """A stage that replays a pre-built report (for identity pins)."""

    def __init__(self, name, report):
        self.name = name
        self.report = report

    def serve(self, queue):
        return StageResult(name=self.name, report=self.report,
                           departures=queue.arrivals + self.report.latencies)


class _EngineServe(PipelineStage):
    """``ExecutionEngine.serve`` under a fixed config as the stage body."""

    def __init__(self, engine, config, policy=None, name="serve"):
        self.engine = engine
        self.config = config
        self.policy = policy
        self.name = name

    def serve(self, queue):
        report = self.engine.serve(self.config, queue, self.policy)
        return StageResult(name=self.name, report=report,
                           departures=report.departures)


class TestServeParityPin:
    """A one-stage pipeline over ``engine.serve()`` == ``engine.serve()``."""

    def assert_bit_identical(self, via_pipeline, direct):
        assert type(via_pipeline) is type(direct)
        np.testing.assert_array_equal(via_pipeline.latencies,
                                      direct.latencies)
        np.testing.assert_array_equal(via_pipeline.queue_delays,
                                      direct.queue_delays)
        np.testing.assert_array_equal(via_pipeline.service_latencies,
                                      direct.service_latencies)
        assert via_pipeline.num_requests == direct.num_requests
        assert via_pipeline.num_batches == direct.num_batches
        assert via_pipeline.scan_features == direct.scan_features
        assert via_pipeline.dhe_features == direct.dhe_features
        assert via_pipeline.batch_time_total == direct.batch_time_total

    def test_poisson_trace_with_explicit_policy(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        policy = BatchingPolicy(max_batch_size=32, max_wait_seconds=0.001)
        queue = RequestQueue.poisson(96, 3000.0, rng=11)
        via_pipeline = PipelineEngine(
            [_EngineServe(engine, config, policy)]).serve(queue).end_to_end
        direct = engine.serve(config, queue, policy)
        self.assert_bit_identical(via_pipeline, direct)

    def test_default_policy_resolution_unchanged(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        queue = RequestQueue.poisson(64, 2000.0, rng=5)
        via_pipeline = PipelineEngine(
            [_EngineServe(engine, config)]).serve(queue).end_to_end
        direct = engine.serve(config, queue)
        self.assert_bit_identical(via_pipeline, direct)

    def test_one_stage_report_is_the_stage_report_verbatim(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        queue = RequestQueue.poisson(48, 2000.0, rng=3)
        pipeline = PipelineEngine([_EngineServe(engine, config)])
        report = pipeline.serve(queue)
        assert report.end_to_end is report.stages[0].report

    def test_one_stage_preserves_report_subclasses(self):
        # A resilient stage's report must come back as the same object —
        # no recomposition that would flatten it to a plain ServingReport.
        lifted = ResilientServingReport.from_serving_report(
            component_report([0.0, 0.1], [1.0, 1.0]),
            attempts_total=5, retries_total=2)
        report = PipelineEngine([_CannedStage("resilient",
                                              lifted)]).serve([0.0, 0.5])
        assert report.end_to_end is lifted
        assert report.end_to_end.attempts_total == 5


class TestComposition:
    """Multi-stage accounting: waits counted once, bottleneck busy time."""

    arrivals = np.arange(12) * 0.003

    def make_pipeline(self):
        return PipelineEngine([
            PricedStage("tokenize",
                        BatchingPolicy(max_batch_size=4,
                                       max_wait_seconds=0.0),
                        constant(0.010)),
            PricedStage("prefill",
                        BatchingPolicy(max_batch_size=8,
                                       max_wait_seconds=0.002),
                        constant(0.040)),
            PricedStage("decode",
                        BatchingPolicy(max_batch_size=2,
                                       max_wait_seconds=0.0),
                        constant(0.005)),
        ])

    def test_latencies_are_final_departure_minus_arrival(self):
        report = self.make_pipeline().serve(self.arrivals)
        np.testing.assert_allclose(report.end_to_end.latencies,
                                   report.departures - self.arrivals)

    def test_inter_stage_waits_counted_exactly_once(self):
        # Summing per-stage queue delays reproduces the end-to-end queue
        # delay, and queue + service tiles the whole latency — an idle
        # interval between stages appears only as the downstream stage's
        # queueing delay, never twice.
        report = self.make_pipeline().serve(self.arrivals)
        queue_sum = np.sum([r.report.queue_delays for r in report.stages],
                           axis=0)
        service_sum = np.sum([r.report.service_latencies
                              for r in report.stages], axis=0)
        np.testing.assert_allclose(report.end_to_end.queue_delays,
                                   queue_sum)
        np.testing.assert_allclose(report.end_to_end.service_latencies,
                                   service_sum)
        np.testing.assert_allclose(queue_sum + service_sum,
                                   report.end_to_end.latencies)

    def test_busy_time_is_bottleneck_and_batches_sum(self):
        report = self.make_pipeline().serve(self.arrivals)
        assert report.end_to_end.batch_time_total == pytest.approx(
            max(r.report.batch_time_total for r in report.stages))
        assert report.end_to_end.num_batches == sum(
            r.report.num_batches for r in report.stages)

    def test_departures_are_monotone_per_stage(self):
        # Non-decreasing up to float jitter: departures are rebuilt as
        # arrival + ((start − arrival) + service), so the cancellation
        # leaves O(1e-18) rounding between same-batch neighbours.
        report = self.make_pipeline().serve(self.arrivals)
        for result in report.stages:
            assert np.all(np.diff(result.departures) >= 0)

    def test_resilient_stage_keeps_its_fault_counters(self):
        # A resilient stage's sheds and attempts survive composition the
        # way they survive merge: the end-to-end report is lifted.
        lifted = ResilientServingReport.from_serving_report(
            component_report([0.0, 0.0], [0.01, 0.01]),
            attempts_total=3, retries_total=1, shed_requests=1)
        report = PipelineEngine([
            _CannedStage("resilient", lifted),
            PricedStage("tail", BatchingPolicy(max_batch_size=2,
                                               max_wait_seconds=0.0),
                        constant(0.005))]).serve([0.0, 0.0])
        end_to_end = report.end_to_end
        assert isinstance(end_to_end, ResilientServingReport)
        assert end_to_end.shed_requests == 1
        assert end_to_end.attempts_total == 3
        assert end_to_end.retries_total == 1
        assert end_to_end.availability == 0.5

    def test_stage_lookup_by_name(self):
        report = self.make_pipeline().serve(self.arrivals)
        assert report.stage("prefill").name == "prefill"
        with pytest.raises(KeyError, match="embed"):
            report.stage("embed")

    def test_to_dict_is_json_stable(self):
        report = self.make_pipeline().serve(self.arrivals)
        digest = report.to_dict()
        assert set(digest["stages"]) == {"tokenize", "prefill", "decode"}
        assert digest["end_to_end"]["num_requests"] == self.arrivals.size
        assert digest["end_to_end"]["throughput_rps"] > 0.0
        json.dumps(digest, allow_nan=False)


class TestPricedStage:
    def test_on_batch_sees_every_scheduled_batch(self):
        sizes = []
        stage = PricedStage("t",
                            BatchingPolicy(max_batch_size=4,
                                           max_wait_seconds=0.0),
                            constant(0.01),
                            on_batch=lambda batch: sizes.append(batch.size))
        result = stage.serve(RequestQueue(np.zeros(10)))
        assert sum(sizes) == 10
        assert len(sizes) == result.report.num_batches

    def test_size_dependent_pricing_reaches_the_report(self):
        # 10 simultaneous arrivals at cap 4 form batches of 4, 4, 2; a
        # per-item price must show up per-window in the decomposition.
        stage = PricedStage("t",
                            BatchingPolicy(max_batch_size=4,
                                           max_wait_seconds=0.0),
                            lambda size: 0.001 * size)
        result = stage.serve(RequestQueue(np.zeros(10)))
        np.testing.assert_allclose(
            result.report.service_latencies,
            [0.004] * 4 + [0.004] * 4 + [0.002] * 2)

    def test_each_batch_size_is_priced_once_at_construction(self):
        priced = []

        def service_time(size):
            priced.append(size)
            return 0.001 * size

        stage = PricedStage("t", BatchingPolicy(max_batch_size=5,
                                                max_wait_seconds=0.001),
                            service_time)
        assert priced == [1, 2, 3, 4, 5]
        for seed in range(3):
            result = stage.serve(RequestQueue.poisson(200, 3000.0,
                                                      rng=seed))
            assert result.report.num_batches > 0
        assert priced == [1, 2, 3, 4, 5]

    def test_departures_equal_arrival_plus_latency(self):
        stage = PricedStage("t",
                            BatchingPolicy(max_batch_size=3,
                                           max_wait_seconds=0.0),
                            constant(0.02))
        queue = RequestQueue.poisson(20, 500.0, rng=1)
        result = stage.serve(queue)
        np.testing.assert_allclose(result.departures,
                                   queue.arrivals + result.report.latencies)
        assert result.departures is result.report.departures


class TestBatchFinishDepartures:
    """Requests that leave a stage in one batch arrive downstream together.

    Rebuilding departures per request as arrival + latency put them up to
    1 ulp apart (and sometimes out of order), so a greedy downstream stage
    refused to co-batch them: spurious splits.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([500.0, 3000.0]),
           st.sampled_from([0.0, 0.002]))
    def test_downstream_never_forms_more_batches_than_upstream(
            self, seed, rate, upstream_wait):
        # Same cap, greedy downstream: every upstream batch arrives as one
        # burst, so downstream can only merge bursts, never split one.
        pipeline = PipelineEngine([
            PricedStage("up", BatchingPolicy(8, upstream_wait),
                        lambda size: 0.0011 + 0.0003 * size),
            PricedStage("down", BatchingPolicy(8, 0.0),
                        lambda size: 0.0007 + 0.0001 * size)])
        report = pipeline.serve(RequestQueue.poisson(400, rate, rng=seed))
        up, down = report.stage("up"), report.stage("down")
        assert down.report.num_batches <= up.report.num_batches
        assert np.all(np.diff(up.departures) >= 0)
        assert len(np.unique(up.departures)) == up.report.num_batches

    def test_engine_stage_departs_at_batch_finish(self, engine):
        config = ServingConfig(batch_size=32, threads=1)
        policy = BatchingPolicy(max_batch_size=32, max_wait_seconds=0.001)
        queue = RequestQueue.poisson(200, 3000.0, rng=11)
        report = engine.serve(config, queue, policy)
        assert np.all(np.diff(report.departures) >= 0)
        assert len(np.unique(report.departures)) == report.num_batches
        np.testing.assert_allclose(report.departures,
                                   queue.arrivals + report.latencies,
                                   rtol=0, atol=1e-12)

    def test_misordered_departures_name_the_stage(self):
        with pytest.raises(ValueError, match="'a'.*not non-decreasing"):
            StageResult("a", component_report([0.0, 0.0], [2.0, 1.0]),
                        departures=np.array([2.0, 1.0]))

    def test_cached_setup_overrunning_the_next_batch_is_loud(self, engine):
        # The first batch carries the cache's one-off setup on top of its
        # executed time while the schedule reserved only the declared slot;
        # when that pushes its finish past the second batch's, the stage's
        # departures are genuinely out of order and must not be re-sorted.
        from repro.cache import DecoderWeightCache

        class SlowSetup(DecoderWeightCache):
            def serve_setup_seconds(self):
                return 10.0

        cached = ExecutionEngine(
            TERABYTE_SPEC.table_sizes, DIM, DLRM_DHE_UNIFORM_64,
            engine.thresholds, cache=SlowSetup())
        pipeline = PipelineEngine([_EngineServe(cached,
                                                ServingConfig(32, 1))])
        with pytest.raises(ValueError, match="'serve'.*not non-decreasing"):
            pipeline.serve(RequestQueue.poisson(96, 3000.0, rng=3))


class TestComposeGuards:
    def test_pipeline_needs_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            PipelineEngine([])

    def test_duplicate_stage_names_rejected(self):
        stage = PricedStage("t", BatchingPolicy(max_batch_size=1,
                                                max_wait_seconds=0.0),
                            constant(0.01))
        with pytest.raises(ValueError, match="unique"):
            PipelineEngine([stage, stage])

    def test_report_needs_its_stages_and_end_to_end(self):
        # An empty PipelineReport() used to construct and then raise
        # TypeError from every method; now it cannot be built.
        with pytest.raises(TypeError):
            PipelineReport()

    def test_compose_requires_results(self):
        with pytest.raises(ValueError, match="at least one report"):
            ServingReport.compose([])

    def test_population_mismatch_rejected(self):
        two = StageResult("a", component_report([0.0, 0.0], [1.0, 1.0]),
                          departures=np.array([1.0, 1.0]))
        one = StageResult("b", component_report([0.0], [1.0]),
                          departures=np.array([1.0]))
        with pytest.raises(ValueError, match="request population"):
            ServingReport.compose([two.report, one.report])

    def test_stage_result_departure_count_checked(self):
        with pytest.raises(ValueError, match="2 departures"):
            StageResult("a", component_report([0.0], [1.0]),
                        departures=np.array([1.0, 2.0]))

    def test_stage_result_departures_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            StageResult("a", component_report([0.0], [1.0]),
                        departures=np.zeros((1, 1)))

    def test_cache_counters_sum_across_stages(self):
        cached = StageResult("a",
                             component_report([0.0], [1.0], cache_hits=3,
                                              cache_misses=1,
                                              cache_bytes_resident=256),
                             departures=np.array([1.0]))
        plain = StageResult("b", component_report([0.0], [1.0]),
                            departures=np.array([1.0]))
        composed = ServingReport.compose([cached.report, plain.report])
        assert composed.cache_hits == 3
        assert composed.cache_misses == 1
        assert composed.cache_bytes_resident == 256
