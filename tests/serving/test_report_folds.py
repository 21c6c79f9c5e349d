"""Report folds form monoids: merge, compose and the cluster merge.

Hypothesis draws component reports with or without the queue/service
split, with or without cache counters, some lifted to
:class:`ResilientServingReport`. Per-request values are multiples of
2**-10 so every sum is exact and associativity can be checked bit for
bit rather than up to rounding.
"""

import collections
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.scatter import ClusterServingReport
from repro.resilience.degradation import DegradationEvent
from repro.resilience.report import ResilientServingReport
from repro.serving import BatchingPolicy, PipelineEngine, PricedStage
from repro.serving.report import ServingReport

FAULT_COUNTERS = ("attempts_total", "retries_total", "hedges_total",
                  "shed_requests", "crash_events", "transient_faults",
                  "spike_events")
CACHE_FIELDS = ("cache_hits", "cache_misses", "cache_bytes_resident")

dyadic = st.integers(0, 4096).map(lambda k: k / 1024)
counter = st.integers(0, 50)


@st.composite
def reports(draw, size=None):
    """One component report over ``size`` requests (drawn when None)."""
    n = draw(st.integers(0, 6)) if size is None else size
    queue = np.array(draw(st.lists(dyadic, min_size=n, max_size=n)))
    service = np.array(draw(st.lists(dyadic, min_size=n, max_size=n)))
    common = dict(num_batches=draw(counter),
                  scan_features=draw(counter), dhe_features=draw(counter),
                  batch_time_total=draw(dyadic))
    if draw(st.booleans()):
        common.update({name: draw(counter) for name in CACHE_FIELDS})
    if draw(st.booleans()):
        report = ServingReport.from_components(queue, service, **common)
    else:
        report = ServingReport(num_requests=n, latencies=queue + service,
                               **common)
    if not draw(st.booleans()):
        return report
    events = [DegradationEvent(from_technique="dhe-varied",
                               to_technique="scan", cause="audit",
                               batch_index=draw(counter), audit_passed=True,
                               audit_divergence=0.0)
              for _ in range(draw(st.integers(0, 2)))]
    return ResilientServingReport.from_serving_report(
        report, degradation_events=events,
        **{name: draw(counter) for name in FAULT_COUNTERS})


@st.composite
def populations(draw, count):
    """``count`` reports over one shared request population."""
    size = draw(st.integers(0, 6))
    return [draw(reports(size)) for _ in range(count)]


def statistics(report):
    """Everything a fold must preserve, latencies as a multiset."""
    stats = {
        "sorted_latencies": sorted(report.latencies.tolist()),
        "percentiles": (report.p50, report.p95, report.p99),
        "counters": (report.num_requests, report.num_batches,
                     report.scan_features, report.dhe_features,
                     report.batch_time_total),
        "cache": tuple(getattr(report, name) for name in CACHE_FIELDS),
        "split": report.queue_delays is not None,
        "type": type(report).__name__,
    }
    if isinstance(report, ResilientServingReport):
        stats["faults"] = tuple(getattr(report, name)
                                for name in FAULT_COUNTERS)
        stats["events"] = collections.Counter(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in report.degradation_events)
    return stats


def exact(report):
    """Every array byte for byte plus the statistics."""
    arrays = tuple(None if array is None else array.tolist()
                   for array in (report.latencies, report.queue_delays,
                                 report.service_latencies))
    return arrays, statistics(report)


def assert_shared_rules(folded, parts):
    """The three rules merge and compose share."""
    assert (folded.queue_delays is not None) == all(
        r.queue_delays is not None for r in parts)
    assert (folded.service_latencies is not None) == all(
        r.service_latencies is not None for r in parts)
    tracked = any(r.tracks_cache for r in parts)
    for name in CACHE_FIELDS:
        assert getattr(folded, name) == (
            sum(getattr(r, name) or 0 for r in parts) if tracked else None)
    resilient = [r for r in parts if isinstance(r, ResilientServingReport)]
    assert isinstance(folded, ResilientServingReport) == bool(resilient)
    for name in FAULT_COUNTERS if resilient else ():
        assert getattr(folded, name) == sum(getattr(r, name)
                                            for r in resilient)
    if resilient:
        assert len(folded.degradation_events) == sum(
            len(r.degradation_events) for r in resilient)


class TestMergeMonoid:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(reports(), min_size=3, max_size=3))
    def test_associative(self, parts):
        a, b, c = parts
        flat = ServingReport.merge([a, b, c])
        left = ServingReport.merge([ServingReport.merge([a, b]), c])
        right = ServingReport.merge([a, ServingReport.merge([b, c])])
        assert exact(left) == exact(flat) == exact(right)

    @settings(max_examples=120, deadline=None)
    @given(reports(), reports())
    def test_commutative_on_statistics(self, a, b):
        assert (statistics(ServingReport.merge([a, b]))
                == statistics(ServingReport.merge([b, a])))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(reports(), min_size=1, max_size=4))
    def test_counters_add_and_rules_hold(self, parts):
        merged = ServingReport.merge(parts)
        assert merged.num_requests == sum(r.num_requests for r in parts)
        assert merged.batch_time_total == math.fsum(
            r.batch_time_total for r in parts)
        np.testing.assert_array_equal(
            merged.latencies, np.concatenate([r.latencies for r in parts]))
        assert_shared_rules(merged, parts)


class TestComposeMonoid:
    @settings(max_examples=120, deadline=None)
    @given(populations(3))
    def test_associative(self, parts):
        a, b, c = parts
        flat = ServingReport.compose([a, b, c])
        left = ServingReport.compose([ServingReport.compose([a, b]), c])
        right = ServingReport.compose([a, ServingReport.compose([b, c])])
        assert exact(left) == exact(flat) == exact(right)

    @settings(max_examples=120, deadline=None)
    @given(populations(2))
    def test_sums_elementwise_and_rules_hold(self, parts):
        composed = ServingReport.compose(parts)
        assert composed.num_requests == parts[0].num_requests
        np.testing.assert_array_equal(
            composed.latencies, parts[0].latencies + parts[1].latencies)
        assert composed.batch_time_total == max(r.batch_time_total
                                                 for r in parts)
        assert composed.num_batches == sum(r.num_batches for r in parts)
        assert_shared_rules(composed, parts)

    @settings(max_examples=60, deadline=None)
    @given(reports())
    def test_one_report_composes_to_itself(self, report):
        assert ServingReport.compose([report]) is report

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(1, 8),
                              st.sampled_from([0.0, 0.001, 0.004]),
                              st.floats(0.0005, 0.01),
                              st.floats(0.0, 0.002)),
                    min_size=1, max_size=4))
    def test_chain_latency_is_final_departure_minus_arrival(self, seed,
                                                            shapes):
        stages = [PricedStage(f"s{k}", BatchingPolicy(cap, wait),
                              lambda size, c=fixed, v=per_item: c + v * size)
                  for k, (cap, wait, fixed, per_item) in enumerate(shapes)]
        arrivals = np.cumsum(
            np.random.default_rng(seed).exponential(0.002, size=40))
        report = PipelineEngine(stages).serve(arrivals)
        np.testing.assert_allclose(report.end_to_end.latencies,
                                   report.departures - arrivals,
                                   rtol=0, atol=1e-12)


@st.composite
def cluster_reports(draw):
    report = draw(reports())
    nodes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                          unique=True))
    return ClusterServingReport(
        report=report, fleet=draw(reports()),
        shard_reports={node: draw(reports()) for node in nodes},
        assignment={node: (node,) for node in nodes},
        unroutable_tables=(),
        shed_requests=draw(st.integers(0, report.num_requests)),
        deadline_seconds=draw(st.sampled_from([0.25, math.inf])),
        capacity_rps=draw(st.sampled_from([0.0, 100.0, 2500.0])),
        scale_up_events=draw(counter), scale_down_events=draw(counter),
        heal_events=draw(counter))


class TestClusterMerge:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(cluster_reports(), min_size=1, max_size=3))
    def test_sums_counters_and_takes_peak_capacity(self, parts):
        merged = ClusterServingReport.merge(parts)
        assert merged.num_requests == sum(r.num_requests for r in parts)
        assert merged.shed_requests == sum(r.shed_requests for r in parts)
        for name in ("scale_up_events", "scale_down_events",
                     "heal_events"):
            assert getattr(merged, name) == sum(getattr(r, name)
                                                for r in parts)
        assert merged.capacity_rps == max(r.capacity_rps for r in parts)
        assert merged.p99 == ServingReport.merge(
            [r.report for r in parts]).p99
        json.dumps(merged.to_dict(0.020), allow_nan=False)
