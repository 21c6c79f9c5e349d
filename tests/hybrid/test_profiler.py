"""Offline profiler tests (Algorithm 2 step 1)."""

import pytest

from repro.costmodel.latency import DLRM_DHE_UNIFORM_64
from repro.hybrid.profiler import DEFAULT_SIZE_GRID, OfflineProfiler


@pytest.fixture(scope="module")
def profile():
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
    return profiler.profile(techniques=("scan", "dhe-uniform", "dhe-varied",
                                        "circuit-oram"),
                            sizes=(100, 10_000, 1_000_000),
                            dims=(64,), batches=(32,), threads_list=(1,))


class TestProfileDatabase:
    def test_latency_lookup(self, profile):
        latency = profile.latency("scan", 100, 64, 32, 1)
        assert latency > 0

    def test_missing_configuration_raises(self, profile):
        with pytest.raises(KeyError):
            profile.latency("scan", 12345, 64, 32, 1)

    def test_curve_ordered_by_size(self, profile):
        curve = profile.curve("scan", 64, 32, 1, (100, 10_000, 1_000_000))
        assert curve == sorted(curve)

    def test_profiled_sizes(self, profile):
        sizes = profile.profiled_sizes("scan", 64, 32, 1)
        assert sizes == [100, 10_000, 1_000_000]

    def test_dhe_uniform_flat_across_sizes(self, profile):
        curve = profile.curve("dhe-uniform", 64, 32, 1,
                              (100, 10_000, 1_000_000))
        assert max(curve) == pytest.approx(min(curve))

    def test_dhe_varied_cheaper_than_uniform_below_base_size(self, profile):
        # k floors at 128 for tables <= 1e6, so the curve is flat there but
        # strictly below the Uniform stack's cost.
        varied = profile.curve("dhe-varied", 64, 32, 1,
                               (100, 10_000, 1_000_000))
        uniform = profile.curve("dhe-uniform", 64, 32, 1,
                                (100, 10_000, 1_000_000))
        assert all(v < u for v, u in zip(varied, uniform))


class TestBackends:
    def test_unknown_technique(self):
        profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64)
        with pytest.raises(ValueError):
            profiler.profile(techniques=("quantum",), sizes=(100,),
                             dims=(64,))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            OfflineProfiler(DLRM_DHE_UNIFORM_64, backend="guess")

    def test_measured_backend_runs(self):
        from repro.costmodel.latency import DheShape

        profiler = OfflineProfiler(DheShape(k=16, fc_sizes=(16,), out_dim=8),
                                   backend="measured")
        profile = profiler.profile(techniques=("scan", "dhe-uniform"),
                                   sizes=(64, 65_536), dims=(8,), batches=(4,),
                                   threads_list=(1,))
        assert profile.latency("scan", 64, 8, 4, 1) > 0
        assert profile.latency("dhe-uniform", 64, 8, 4, 1) > 0
        # Measured shape property: scanning 1000x more rows costs more
        # (tiny sizes are dispatch-noise dominated, so compare far apart).
        assert profile.latency("scan", 65_536, 8, 4, 1) > \
            profile.latency("scan", 64, 8, 4, 1)

    def test_backend_instance_passthrough(self):
        from repro.serving.backends import ModelledBackend

        class Marked(ModelledBackend):
            def technique_latency(self, *args, **kwargs):
                return 0.125

        profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64,
                                   backend=Marked(DLRM_DHE_UNIFORM_64))
        assert profiler.backend == "modelled"
        profile = profiler.profile(techniques=("scan",), sizes=(10_000,),
                                   dims=(64,), batches=(32,),
                                   threads_list=(1,))
        assert profile.latency("scan", 10_000, 64, 32, 1) == 0.125

    def test_shares_engine_latency_seam(self):
        """Profiler entries equal the backend's answers — one accounting."""
        from repro.serving.backends import ModelledBackend

        backend = ModelledBackend(DLRM_DHE_UNIFORM_64)
        profiler = OfflineProfiler(DLRM_DHE_UNIFORM_64, backend=backend)
        profile = profiler.profile(techniques=("scan",), sizes=(10_000,),
                                   dims=(64,), batches=(32,),
                                   threads_list=(1,))
        assert profile.latency("scan", 10_000, 64, 32, 1) == \
            backend.technique_latency("scan", 10_000, 64, 32, 1)

    def test_default_grid_spans_dlrm_range(self):
        assert min(DEFAULT_SIZE_GRID) == 100
        assert max(DEFAULT_SIZE_GRID) >= 10**7
