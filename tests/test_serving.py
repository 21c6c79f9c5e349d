"""Closed-loop ExecutionEngine: SLA accounting and configuration choice."""

import pytest

from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.data import TERABYTE_SPEC
from repro.hybrid import OfflineProfiler, build_threshold_database
from repro.serving import ExecutionEngine, ServingConfig

BATCHES = (1, 32, 128)
THREADS = (1, 8)


@pytest.fixture(scope="module")
def engine():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    profile = profiler.profile(techniques=("scan", "dhe-uniform"),
                               dims=(64,), batches=BATCHES,
                               threads_list=THREADS)
    thresholds = build_threshold_database(profile, dims=(64,),
                                          batches=BATCHES,
                                          threads_list=THREADS)
    return ExecutionEngine(TERABYTE_SPEC.table_sizes, 64,
                           DLRM_DHE_UNIFORM_64, thresholds)


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(batch_size=0)
        with pytest.raises(ValueError):
            ServingConfig(sla_seconds=0)


class TestAllocation:
    def test_allocation_covers_all_features(self, engine):
        scans, dhes = engine.allocation_counts(ServingConfig(batch_size=32,
                                                             threads=1))
        assert scans + dhes == 26
        assert scans > 0 and dhes > 0

    def test_more_threads_more_scans(self, engine):
        low, _ = engine.allocation_counts(ServingConfig(batch_size=32,
                                                        threads=1))
        high, _ = engine.allocation_counts(ServingConfig(batch_size=32,
                                                         threads=8))
        assert high >= low


class TestServe:
    def test_report_statistics(self, engine):
        report = engine.serve_closed(100, ServingConfig(batch_size=32,
                                                        threads=1))
        assert report.num_batches == 4
        assert report.latencies.shape == (100,)
        assert report.p50 == pytest.approx(report.p95)  # uniform batches
        assert 0 <= report.sla_attainment(0.020) <= 1

    def test_meets_paper_sla_at_batch32(self, engine):
        """§VI-B3: the hybrid satisfies typical (20-100 ms) SLA targets."""
        report = engine.serve_closed(256, ServingConfig(batch_size=32,
                                                        threads=1))
        assert report.sla_attainment(0.020) == 1.0

    def test_larger_batches_trade_latency_for_throughput(self, engine):
        small = engine.serve_closed(512, ServingConfig(batch_size=32,
                                                       threads=1))
        large = engine.serve_closed(512, ServingConfig(batch_size=128,
                                                       threads=1))
        assert large.p50 > small.p50
        assert large.throughput() > small.throughput()

    def test_invalid_request_count(self, engine):
        with pytest.raises(ValueError):
            engine.serve_closed(0, ServingConfig())


class TestBestConfiguration:
    def test_prefers_highest_throughput_within_sla(self, engine):
        candidates = [ServingConfig(batch_size=b, threads=1,
                                    sla_seconds=0.040)
                      for b in BATCHES]
        config, report = engine.best_configuration(candidates)
        assert report.sla_attainment(config.sla_seconds) == 1.0
        # With a generous SLA the biggest batch wins on throughput.
        assert config.batch_size == max(
            c.batch_size for c in candidates
            if engine.serve_closed(64, c).sla_attainment(c.sla_seconds) == 1.0)

    def test_raises_when_nothing_fits(self, engine):
        impossible = [ServingConfig(batch_size=128, threads=1,
                                    sla_seconds=1e-6)]
        with pytest.raises(RuntimeError):
            engine.best_configuration(impossible)

    def test_empty_candidates(self, engine):
        with pytest.raises(ValueError):
            engine.best_configuration([])
