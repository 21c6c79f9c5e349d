"""Execution backends: modelled/measured resolution through the one seam."""

import pytest

from repro.costmodel.latency import (
    DLRM_DHE_UNIFORM_16,
    dhe_latency,
    dhe_varied_shape,
    linear_scan_latency,
    lookup_latency,
    oram_latency,
)
from repro.serving.backends import (
    BACKEND_TECHNIQUES,
    MeasuredBackend,
    ModelledBackend,
    resolve_backend,
)


class TestModelledBackend:
    def test_matches_cost_model_directly(self):
        backend = ModelledBackend(DLRM_DHE_UNIFORM_16)
        size, dim, batch, threads = 5000, 16, 32, 2
        assert backend.technique_latency("lookup", size, dim, batch, threads) \
            == lookup_latency(size, dim, batch, threads)
        assert backend.technique_latency("scan", size, dim, batch, threads) \
            == linear_scan_latency(size, dim, batch, threads)
        assert backend.technique_latency("dhe-uniform", size, dim, batch,
                                         threads) \
            == dhe_latency(DLRM_DHE_UNIFORM_16, batch, threads)
        assert backend.technique_latency("dhe-varied", size, dim, batch,
                                         threads) \
            == dhe_latency(dhe_varied_shape(size, DLRM_DHE_UNIFORM_16),
                           batch, threads)
        assert backend.technique_latency("path-oram", size, dim, batch,
                                         threads) \
            == oram_latency("path", size, dim, batch, threads)
        assert backend.technique_latency("circuit-oram", size, dim, batch,
                                         threads) \
            == oram_latency("circuit", size, dim, batch, threads)

    def test_all_declared_techniques_resolve(self):
        backend = ModelledBackend(DLRM_DHE_UNIFORM_16)
        for technique in BACKEND_TECHNIQUES:
            assert backend.technique_latency(technique, 1000, 16, 32) > 0

    def test_unknown_technique(self):
        with pytest.raises(ValueError, match="unknown technique"):
            ModelledBackend(DLRM_DHE_UNIFORM_16).technique_latency(
                "quantum", 1000, 16, 32)

    def test_dhe_needs_uniform_shape(self):
        backend = ModelledBackend()  # no shape
        assert backend.technique_latency("scan", 1000, 16, 32) > 0
        with pytest.raises(ValueError, match="uniform shape"):
            backend.technique_latency("dhe-uniform", 1000, 16, 32)


class TestMeasuredBackend:
    def test_times_real_generators(self):
        backend = MeasuredBackend(DLRM_DHE_UNIFORM_16, repeats=1)
        for technique in ("lookup", "scan"):
            assert backend.technique_latency(technique, 64, 8, 4) > 0

    def test_generator_cache_reuses_objects(self):
        backend = MeasuredBackend(DLRM_DHE_UNIFORM_16, repeats=1)
        backend.technique_latency("scan", 64, 8, 4)
        first = backend._generators[("scan", 64, 8)]
        backend.technique_latency("scan", 64, 8, 8)
        assert backend._generators[("scan", 64, 8)] is first

    def test_unknown_technique(self):
        with pytest.raises(ValueError, match="unknown technique"):
            MeasuredBackend(DLRM_DHE_UNIFORM_16).technique_latency(
                "quantum", 64, 8, 4)

    def test_generator_left_in_original_mode(self):
        backend = MeasuredBackend(DLRM_DHE_UNIFORM_16, repeats=1)
        backend.technique_latency("dhe-uniform", 64, 16, batch=4)
        generator = backend._generator("dhe-uniform", 64, 16)
        assert generator.training  # restored to the default training mode
        generator.eval()
        backend.generator_latency(generator, batch=4)
        assert not generator.training

    @pytest.mark.parametrize("technique", ["scan", "dhe-varied"])
    def test_times_eval_forwards(self, technique):
        """No autograd graph is built inside the timed region."""
        backend = MeasuredBackend(DLRM_DHE_UNIFORM_16, repeats=1)
        generator = backend._generator(technique, 64, 16)
        modes = []
        forward = generator.forward

        def spy(indices):
            out = forward(indices)
            modes.append((generator.training, bool(out._parents)))
            return out

        generator.forward = spy
        backend.generator_latency(generator, batch=4)
        assert modes and set(modes) == {(False, False)}


@pytest.mark.parametrize("backend_cls", [ModelledBackend, MeasuredBackend])
@pytest.mark.parametrize("technique", ["dhe-uniform", "dhe-varied"])
def test_dhe_width_must_match_the_uniform_shape(backend_cls, technique):
    """A 64-wide table has no 16-wide DHE stack: neither backend prices a
    stack other than the one the table would be built with."""
    backend = backend_cls(DLRM_DHE_UNIFORM_16)
    with pytest.raises(ValueError, match="out_dim 16"):
        backend.technique_latency(technique, 1000, 64, 32)


class TestResolveBackend:
    def test_names(self):
        from repro.serving.backends import BACKEND_NAMES

        assert BACKEND_NAMES == ("modelled", "measured")
        assert isinstance(resolve_backend("modelled"), ModelledBackend)
        assert isinstance(resolve_backend("measured"), MeasuredBackend)

    def test_instance_passthrough(self):
        backend = ModelledBackend(DLRM_DHE_UNIFORM_16)
        assert resolve_backend(backend) is backend

    def test_duck_typed_passthrough(self):
        class Fake:
            def technique_latency(self, *args):
                return 1.0

            def generator_latency(self, *args):
                return 1.0

        fake = Fake()
        assert resolve_backend(fake) is fake

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("guess")

    def test_unknown_name_lists_every_valid_backend(self):
        from repro.serving.backends import BACKEND_NAMES

        with pytest.raises(ValueError) as excinfo:
            resolve_backend("measured-lzay")
        message = str(excinfo.value)
        assert "'measured-lzay'" in message
        for name in BACKEND_NAMES:
            assert repr(name) in message

    def test_registry_names_all_resolve(self):
        from repro.serving.backends import BACKEND_NAMES

        for name in BACKEND_NAMES:
            assert resolve_backend(name).name == name

    def test_not_a_backend(self):
        with pytest.raises(TypeError):
            resolve_backend(42)
