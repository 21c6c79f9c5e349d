"""One traced path per generator: ``generate_traced`` is the eval-mode
``forward`` with a tracer bound, and each ``forward`` declares its own
accesses while one is bound (and nothing otherwise)."""

import numpy as np
import pytest

from repro.embedding import (
    CircuitOramEmbedding,
    DHEEmbedding,
    EmbeddingGenerator,
    HybridEmbedding,
    LinearScanEmbedding,
    PathOramEmbedding,
    TableEmbedding,
)
from repro.oblivious.trace import READ, AccessEvent, MemoryTracer
from repro.training import OnlineOramEmbedding
from tests.conftest import tracer_bindings

N, D = 24, 6
IDS = np.array([[3, 0], [23, 3]])

TRACED = {
    "scan": lambda: LinearScanEmbedding(N, D, rng=0),
    "table": lambda: TableEmbedding(N, D, rng=0),
    "dhe": lambda: DHEEmbedding(N, D, k=8, fc_sizes=(8,), rng=0),
}
ORAMS = {
    "path-oram": lambda **kw: PathOramEmbedding(N, D, rng=0, **kw),
    "circuit-oram": lambda **kw: CircuitOramEmbedding(N, D, rng=0, **kw),
    "oram-online": lambda **kw: OnlineOramEmbedding(N, D, rng=0, **kw),
}


def traced(generator, ids):
    """(output, recorded events) of one traced run."""
    tracer = MemoryTracer()
    out = generator.generate_traced(ids, tracer)
    return out, list(tracer)


def state(generator):
    """Every submodule's mode and every generator's binding."""
    return [(module.training, getattr(module, "_tracer", None))
            for module in generator.modules()]


@pytest.mark.parametrize("technique", sorted(TRACED))
class TestTracedRunIsTheEvalForward:
    @pytest.mark.parametrize("training", [True, False])
    def test_bytes_equal_eval_generate(self, technique, training):
        generator = TRACED[technique]().train(training)
        out, events = traced(generator, IDS)
        reference = TRACED[technique]().eval().generate(IDS.reshape(-1))
        assert events
        assert out.dtype == reference.dtype
        assert out.shape == (IDS.size, D)
        assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_mode_and_binding_restored(self, technique, training):
        generator = TRACED[technique]().train(training)
        before = state(generator)
        traced(generator, IDS)
        assert state(generator) == before

    def test_restored_after_a_raise_with_no_event(self, technique):
        generator = TRACED[technique]()
        before = state(generator)
        tracer = MemoryTracer()
        with pytest.raises(IndexError):
            generator.generate_traced(np.array([1, N]), tracer)
        assert len(tracer) == 0
        assert state(generator) == before
        for bad in (np.array([1.5]), [True, 2], [[True, 2]]):
            with pytest.raises(TypeError, match="integers"):
                generator.generate_traced(bad, tracer)
        assert len(tracer) == 0
        assert state(generator) == before

    def test_untraced_forward_declares_nothing(self, technique):
        generator = TRACED[technique]()
        tracer = MemoryTracer()
        generator.generate_traced(IDS, tracer)
        recorded = len(tracer)
        generator.generate(IDS)
        generator.eval().generate(IDS)
        assert len(tracer) == recorded


class TestDeclaredPatterns:
    def test_scan_sweeps_the_table_once_per_query(self):
        _, events = traced(TRACED["scan"](), IDS)
        assert events == [AccessEvent(READ, "scan.table", row)
                          for _ in range(IDS.size) for row in range(N)]

    def test_table_reads_each_id(self):
        _, events = traced(TRACED["table"](), IDS)
        assert events == [AccessEvent(READ, "table", int(index))
                          for index in IDS.reshape(-1)]

    def test_dhe_sweeps_every_decoder_parameter_in_order(self):
        dhe = TRACED["dhe"]()
        _, events = traced(dhe, IDS)
        assert events == [AccessEvent(READ, f"dhe.{name}", row)
                          for name, param in dhe.decoder.named_parameters()
                          for row in range(len(param.data))]


class TestHybridTracesItsActiveTechnique:
    def test_dhe_then_scan(self):
        hybrid = HybridEmbedding(TRACED["dhe"]())
        out, events = traced(hybrid, IDS)
        dhe_out, dhe_events = traced(TRACED["dhe"](), IDS)
        assert out.tobytes() == dhe_out.tobytes()
        assert events == dhe_events

        hybrid.select("scan")
        before = state(hybrid)
        out, events = traced(hybrid, IDS)
        scan_out, scan_events = traced(
            LinearScanEmbedding(N, D, weight=hybrid.dhe.materialize_table()),
            IDS)
        assert out.tobytes() == scan_out.tobytes()
        assert events == scan_events
        assert state(hybrid) == before


@pytest.mark.parametrize("technique", sorted(ORAMS))
def test_oram_generators_trace_their_generate(technique):
    """The traced run returns ``generate``'s rows and records what the
    generator's controller records when bound by hand and replayed."""
    tracer = MemoryTracer()
    out = ORAMS[technique]().generate_traced(IDS, tracer)
    reference = ORAMS[technique]().eval().generate(IDS.reshape(-1))
    assert out.tobytes() == reference.tobytes()

    oram, replay = ORAMS[technique]().oram, MemoryTracer()
    oram.tracer = replay
    if technique == "oram-online":
        oram.access_batch([int(index) for index in IDS.reshape(-1)])
    else:
        for index in IDS.reshape(-1):
            oram.read(int(index))
    assert len(tracer)
    assert tracer.digest() == replay.digest()


@pytest.mark.parametrize("technique", sorted(ORAMS))
def test_oram_generators_restore_every_level_binding(technique):
    generator = ORAMS[technique](recursion_cutoff=8)
    assert hasattr(generator.oram.position_map, "_child")
    outer = MemoryTracer()
    generator.oram.tracer = outer
    before = state(generator)
    tracer = MemoryTracer()
    generator.generate_traced(IDS, tracer)
    assert len(tracer)
    assert all(held is outer for held in tracer_bindings(generator.oram))
    assert state(generator) == before

    recorded = len(tracer)
    with pytest.raises(IndexError):
        generator.generate_traced(np.array([1, N]), tracer)
    assert len(tracer) == recorded
    assert all(held is outer for held in tracer_bindings(generator.oram))
    assert state(generator) == before
    assert len(outer) == 0


def test_every_generator_is_covered_here():
    """No generator inherits a traced run that silently records nothing:
    each concrete one is above, declaring its events."""
    concrete, pending = set(), [EmbeddingGenerator]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if (subclass.__module__.startswith(("repro.embedding.",
                                                 "repro.training."))
                    and not subclass.__name__.startswith("_")):
                concrete.add(subclass)
    covered = {type(make()) for make in [*TRACED.values(), *ORAMS.values()]}
    assert concrete == covered | {HybridEmbedding}
