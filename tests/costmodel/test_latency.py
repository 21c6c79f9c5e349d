"""Latency-model tests: asymptotics, calibration anchors, DHE shapes."""


import pytest

from repro.costmodel.latency import (
    DLRM_DHE_UNIFORM_16,
    DLRM_DHE_UNIFORM_64,
    LLM_DHE_GPT2_MEDIUM,
    DheShape,
    dhe_latency,
    dhe_table_shape,
    dhe_varied_shape,
    linear_scan_latency,
    lookup_latency,
    oram_access_bytes,
    oram_latency,
    varied_scale_factor,
    zerotrace_variant_factor,
)


class TestDheShape:
    def test_flops_formula(self):
        shape = DheShape(k=4, fc_sizes=(3,), out_dim=2)
        assert shape.flops_per_embedding() == 2 * (4 * 3 + 3 * 2)

    def test_parameter_count_includes_biases(self):
        shape = DheShape(k=4, fc_sizes=(3,), out_dim=2)
        assert shape.parameter_count() == (4 * 3 + 3) + (3 * 2 + 2)

    def test_paper_uniform_kaggle_memory(self):
        # Table VI: DHE Uniform Kaggle = 68.2 MB over 26 tables => ~2.6 MB.
        per_table_mb = DLRM_DHE_UNIFORM_16.parameter_bytes() / 2**20
        assert 2.2 < per_table_mb < 3.0

    def test_paper_llm_dhe_memory(self):
        # §VI-D3: DHE adds 56 MB to GPT-2 medium.
        mb = LLM_DHE_GPT2_MEDIUM.parameter_bytes() / 2**20
        assert 50 < mb < 62

    def test_scaled_reduces_parameters(self):
        shape = DheShape(k=1024, fc_sizes=(512, 256), out_dim=64)
        smaller = shape.scaled(0.25)
        assert smaller.parameter_count() < shape.parameter_count()

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            DLRM_DHE_UNIFORM_64.scaled(0.0)


class TestVariedScaling:
    def test_factor_one_at_base(self):
        assert varied_scale_factor(10**7) == 1.0
        assert varied_scale_factor(10**8) == 1.0

    def test_factor_eighth_per_decade(self):
        assert varied_scale_factor(10**6) == pytest.approx(0.125)
        assert varied_scale_factor(10**5) == pytest.approx(0.125 ** 2)

    def test_varied_shape_scales_k_only(self):
        varied = dhe_varied_shape(10**5, DLRM_DHE_UNIFORM_64)
        assert varied.fc_sizes == DLRM_DHE_UNIFORM_64.fc_sizes
        assert varied.k < DLRM_DHE_UNIFORM_64.k

    def test_k_floor(self):
        varied = dhe_varied_shape(10, DLRM_DHE_UNIFORM_64)
        assert varied.k == 128

    def test_monotone_in_table_size(self):
        ks = [dhe_varied_shape(n, DLRM_DHE_UNIFORM_64).k
              for n in (10**3, 10**5, 10**6, 10**7)]
        assert ks == sorted(ks)

    def test_table_shape_is_varied_or_uniform(self):
        assert dhe_table_shape(10**5, 64, DLRM_DHE_UNIFORM_64) \
            == dhe_varied_shape(10**5, DLRM_DHE_UNIFORM_64)
        assert dhe_table_shape(10**5, 64, DLRM_DHE_UNIFORM_64,
                               varied=False) is DLRM_DHE_UNIFORM_64

    @pytest.mark.parametrize("varied", [True, False])
    def test_table_shape_needs_a_matching_uniform_shape(self, varied):
        with pytest.raises(ValueError, match="no DHE uniform shape"):
            dhe_table_shape(10**5, 64, None, varied)
        with pytest.raises(ValueError, match="out_dim 16"):
            dhe_table_shape(10**5, 64, DLRM_DHE_UNIFORM_16, varied)


class TestScanLatency:
    def test_linear_in_table_size(self):
        small = linear_scan_latency(10**6, 64, 32)
        large = linear_scan_latency(2 * 10**6, 64, 32)
        assert large == pytest.approx(2 * small, rel=0.01)

    def test_linear_in_batch(self):
        assert linear_scan_latency(10**6, 64, 64) == pytest.approx(
            2 * linear_scan_latency(10**6, 64, 32))

    def test_llc_to_dram_knee(self):
        # Crossing the LLC boundary slows the per-byte rate.
        per_byte_small = linear_scan_latency(10**4, 64, 1) / 10**4
        per_byte_large = linear_scan_latency(10**7, 64, 1) / 10**7
        assert per_byte_large > 2 * per_byte_small


class TestOramLatency:
    def test_grows_slowly_with_table_size(self):
        ratio = (oram_latency("circuit", 10**7, 64, 1)
                 / oram_latency("circuit", 10**4, 64, 1))
        assert 1.0 < ratio < 10.0  # polylog, not linear

    def test_path_slower_than_circuit(self):
        for n in (10**4, 10**6):
            assert oram_latency("path", n, 64, 1) > \
                oram_latency("circuit", n, 64, 1)

    def test_sequential_in_batch(self):
        assert oram_latency("circuit", 10**5, 64, 32) == pytest.approx(
            32 * oram_latency("circuit", 10**5, 64, 1))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            oram_access_bytes("square", 100, 64)

    def test_recursion_adds_bytes(self):
        without = oram_access_bytes("circuit", 1 << 12, 64)
        with_recursion = oram_access_bytes("circuit", 1 << 13, 64)
        assert with_recursion > without


class TestCalibrationAnchors:
    """Spot checks against the paper's measured values."""

    def test_dhe_uniform_34us_per_embedding(self):
        per_embedding = dhe_latency(DLRM_DHE_UNIFORM_64, 32) / 32
        assert 25e-6 < per_embedding < 45e-6  # paper: ~34 us

    def test_circuit_1e7_access_near_45us(self):
        per_access = oram_latency("circuit", 10**7, 64, 1)
        assert 30e-6 < per_access < 90e-6

    def test_path_1e7_access_near_1ms(self):
        per_access = oram_latency("path", 10**7, 64, 1)
        assert 0.5e-3 < per_access < 2.5e-3

    def test_fig4_orderings_at_extremes(self):
        # Small table: scan beats everything.
        n = 100
        scan = linear_scan_latency(n, 64, 32)
        assert scan < oram_latency("circuit", n, 64, 32)
        assert scan < dhe_latency(DLRM_DHE_UNIFORM_64, 32)
        # Large table: scan is by far the worst; DHE beats Circuit.
        n = 10**7
        assert linear_scan_latency(n, 64, 32) > \
            100 * oram_latency("circuit", n, 64, 32)
        assert dhe_latency(DLRM_DHE_UNIFORM_64, 32) < \
            oram_latency("circuit", n, 64, 32)


class TestZeroTraceVariants:
    def test_opt_is_reference(self):
        assert zerotrace_variant_factor("path", "zt-gramine-opt") == 1.0

    def test_paper_reduction_chain(self):
        original = zerotrace_variant_factor("circuit", "zt-original")
        gramine = zerotrace_variant_factor("circuit", "zt-gramine")
        # Gramine = 60% reduction from original.
        assert gramine / original == pytest.approx(0.40, rel=1e-6)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            zerotrace_variant_factor("path", "zt-fast")


class TestLookupLatency:
    def test_far_below_secure_methods(self):
        assert lookup_latency(10**6, 64, 32) < \
            0.01 * linear_scan_latency(10**6, 64, 32)
