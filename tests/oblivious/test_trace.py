"""MemoryTracer / TracedArray behaviour."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oblivious.trace import (
    READ,
    WRITE,
    AccessEvent,
    MemoryTracer,
    Trace,
    TracedArray,
    traces_equal,
)
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    _first_divergence,
    address_histograms,
    trace_structure,
)


class TestMemoryTracer:
    def test_records_in_order(self):
        tracer = MemoryTracer()
        tracer.record(READ, "t", 3)
        tracer.record(WRITE, "t", 5)
        assert [str(e) for e in tracer] == ["R t[3]", "W t[5]"]

    @pytest.mark.parametrize("ops", [READ, WRITE, READ + WRITE])
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_record_sweep_is_the_nested_record_loop(self, ops, count):
        swept, looped = MemoryTracer(), MemoryTracer()
        swept.record(WRITE, "other", 9)
        looped.record(WRITE, "other", 9)
        swept.record_sweep("t", count, ops)
        for address in range(count):
            for op in ops:
                looped.record(op, "t", address)
        assert swept.snapshot() == looped.snapshot()
        assert swept.digest() == looped.digest()
        assert len(swept) == 1 + count * len(ops)

    def test_record_sweep_defaults_to_a_read_scan(self):
        tracer = MemoryTracer()
        tracer.record_sweep("t", 2)
        assert [str(e) for e in tracer] == ["R t[0]", "R t[1]"]

    @pytest.mark.parametrize("ops", ["read", "r", "RX", "", "W R"])
    @pytest.mark.parametrize("buffered", [True, False])
    def test_run_calls_take_only_r_and_w_op_characters(self, ops, buffered):
        # each character of a run call's ops is one op: a multi-character
        # op name would be split into one event per letter; a refused call
        # leaves a buffered record where it was
        tracer = MemoryTracer()
        if buffered:
            tracer.record(READ, "t", 7)
        with pytest.raises(ValueError, match="ops must be"):
            tracer.record_sweep("t", 1, ops)
        with pytest.raises(ValueError, match="ops must be"):
            tracer.record_each("t", [0, 1], ops)
        assert [str(e) for e in tracer] == (["R t[7]"] if buffered else [])

    def test_digest_distinguishes_traces(self):
        a, b = MemoryTracer(), MemoryTracer()
        a.record(READ, "t", 1)
        b.record(READ, "t", 2)
        assert a.digest() != b.digest()

    def test_digest_is_the_per_event_text_at_any_address_width(self):
        # the digest is built from the columns (one prefix per distinct op
        # and region, the addresses written out as one array); its bytes
        # are still "{op}|{region}|{address};" per event, across regions,
        # signs, digit counts and hashing chunks
        tracer = MemoryTracer()
        tracer.record_each("région", [np.iinfo(np.int64).min, -10, -1, 0, 9,
                                      10, 99, 100, np.iinfo(np.int64).max],
                           READ + WRITE)
        rng = np.random.default_rng(0)
        for region, ops in (("a", READ), ("tree.level0", WRITE),
                            ("a", READ + WRITE)):
            tracer.record_each(region, rng.integers(-(1 << 62), 1 << 62, 30_000)
                               >> rng.integers(0, 63, 30_000), ops)
        trace = tracer.snapshot()
        assert len(trace) > 65_536
        assert trace.digest() == model_digest(list(trace))
        assert trace[:1].digest() == model_digest([trace[0]])

    def test_digest_of_an_empty_trace_hashes_no_bytes(self):
        empty = hashlib.sha256().hexdigest()
        assert MemoryTracer().digest() == empty
        assert Trace.of([]).digest() == model_digest([]) == empty

    def test_digest_stable(self):
        a, b = MemoryTracer(), MemoryTracer()
        for t in (a, b):
            t.record(READ, "t", 1)
            t.record(WRITE, "u", 2)
        assert a.digest() == b.digest()

    def test_addresses_filter_by_region(self):
        tracer = MemoryTracer()
        tracer.record(READ, "a", 1)
        tracer.record(READ, "b", 2)
        assert tracer.addresses("a") == [1]
        assert tracer.addresses() == [1, 2]

    def test_clear(self):
        tracer = MemoryTracer()
        tracer.record(READ, "t", 1)
        tracer.clear()
        assert len(tracer) == 0


class TestTracedArray:
    def test_read_reports_and_copies(self, rng):
        tracer = MemoryTracer()
        data = rng.normal(size=(4, 3))
        arr = TracedArray(data, "t", tracer)
        row = arr.read(2)
        np.testing.assert_allclose(row, data[2])
        row[0] = 999.0
        assert data[2, 0] != 999.0
        assert list(tracer) == [AccessEvent(READ, "t", 2)]

    def test_write_reports(self, rng):
        tracer = MemoryTracer()
        arr = TracedArray(np.zeros((4, 3)), "t", tracer)
        arr.write(1, np.ones(3))
        np.testing.assert_allclose(arr.data[1], np.ones(3))
        assert list(tracer) == [AccessEvent(WRITE, "t", 1)]

    def test_1d_promoted_to_column(self):
        arr = TracedArray(np.arange(5.0), "t")
        assert arr.shape == (5, 1)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            TracedArray(np.zeros((2, 2, 2)), "t")

    def test_bounds_checked(self):
        arr = TracedArray(np.zeros((3, 2)), "t")
        with pytest.raises(IndexError):
            arr.read(3)
        with pytest.raises(IndexError):
            arr.write(-1, np.zeros(2))

    @pytest.mark.parametrize("index", [1.7, True, np.float64(2.9),
                                       np.bool_(False), 0.0, [True, 2],
                                       [[True, 2]]])
    def test_read_rejects_non_integer_rows(self, index):
        tracer = MemoryTracer()
        arr = TracedArray(np.arange(12.0).reshape(4, 3), "t", tracer)
        with pytest.raises(TypeError, match="integers"):
            arr.read(index)
        assert len(tracer) == 0

    @pytest.mark.parametrize("index", [0.5, False, np.float32(1.0)])
    def test_write_rejects_non_integer_rows(self, index):
        tracer = MemoryTracer()
        arr = TracedArray(np.zeros((4, 3)), "t", tracer)
        with pytest.raises(TypeError):
            arr.write(index, np.ones(3))
        np.testing.assert_array_equal(arr.data, np.zeros((4, 3)))
        assert len(tracer) == 0

    def test_integer_rows_of_any_integer_type_accepted(self):
        arr = TracedArray(np.arange(12.0).reshape(4, 3), "t")
        for index in (2, np.int32(2), np.int64(2), np.uint8(2)):
            np.testing.assert_array_equal(arr.read(index), [6.0, 7.0, 8.0])

    def test_none_tracer_ok(self):
        arr = TracedArray(np.zeros((3, 2)), "t", tracer=None)
        arr.read(0)
        arr.write(0, np.ones(2))


class TestTracesEqual:
    def test_equal(self):
        a = [AccessEvent(READ, "t", 1)]
        b = [AccessEvent(READ, "t", 1)]
        assert traces_equal(a, b)

    def test_length_mismatch(self):
        assert not traces_equal([AccessEvent(READ, "t", 1)], [])

    def test_content_mismatch(self):
        assert not traces_equal([AccessEvent(READ, "t", 1)],
                                [AccessEvent(WRITE, "t", 1)])


# ----------------------------------------------------------------------
# The columnar tracer against a plain list-of-events model
# ----------------------------------------------------------------------
REGION_NAMES = ("model.a", "model.b", "model.c")
regions = st.sampled_from(REGION_NAMES)
sweep_ops = st.sampled_from([READ, WRITE, READ + WRITE])
tracer_steps = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from([READ, WRITE]), regions,
              st.integers(0, 9)),
    st.tuples(st.just("sweep"), regions, st.integers(0, 5), sweep_ops),
    st.tuples(st.just("each"), regions,
              st.lists(st.integers(0, 9), max_size=5), sweep_ops),
    st.tuples(st.just("clear")),
    st.tuples(st.just("snapshot")),
), max_size=30)


def replay(tracer, steps):
    """Run ``steps`` on ``tracer`` and on a list model; returns the model
    and every mid-stream (snapshot, model copy) pair."""
    model, snapshots = [], []
    for step in steps:
        kind = step[0]
        if kind == "record":
            _, op, region, address = step
            tracer.record(op, region, address)
            model.append(AccessEvent(op, region, address))
        elif kind == "sweep":
            _, region, count, ops = step
            tracer.record_sweep(region, count, ops)
            model += [AccessEvent(op, region, address)
                      for address in range(count) for op in ops]
        elif kind == "each":
            _, region, addresses, ops = step
            tracer.record_each(region, addresses, ops)
            model += [AccessEvent(op, region, address)
                      for address in addresses for op in ops]
        elif kind == "clear":
            tracer.clear()
            model = []
        else:
            snapshots.append((tracer.snapshot(), list(model)))
    return model, snapshots


def model_digest(events):
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(f"{event.op}|{event.region}|{event.address};".encode())
    return hasher.hexdigest()


def model_histograms(events):
    histograms = {}
    for event in events:
        region = histograms.setdefault(event.region, {})
        region[event.address] = region.get(event.address, 0) + 1
    return histograms


def assert_matches(trace, model):
    assert len(trace) == len(model)
    assert list(trace) == model
    assert [trace[i] for i in range(-len(model), len(model))] == model + model
    assert list(trace[1:-1:2]) == model[1:-1:2]
    assert trace.digest() == model_digest(model)
    assert traces_equal(trace, model) and traces_equal(model, trace)
    assert trace == Trace.of(model)
    assert trace_structure(trace) == [(e.op, e.region) for e in model]
    # equal as dicts *and* in insertion order, region by region
    histograms, expected = address_histograms(trace), model_histograms(model)
    assert [(region, list(counts.items()))
            for region, counts in histograms.items()] == [
        (region, list(counts.items())) for region, counts in expected.items()]


class TestColumnarTracerModel:
    @settings(max_examples=60, deadline=None)
    @given(steps=tracer_steps)
    def test_tracer_agrees_with_the_event_list(self, steps):
        tracer = MemoryTracer()
        model, snapshots = replay(tracer, steps)
        assert len(tracer) == len(model)
        assert list(tracer) == model
        assert tracer.digest() == model_digest(model)
        for region in (None,) + REGION_NAMES:
            assert tracer.addresses(region) == [
                e.address for e in model if region in (None, e.region)]
        assert_matches(tracer.snapshot(), model)
        # a snapshot is immutable: later records leave it as it was
        for snapshot, then in snapshots:
            assert_matches(snapshot, then)

    @settings(max_examples=30, deadline=None)
    @given(steps=tracer_steps)
    def test_two_tracers_compare_equal_whatever_names_they_met_first(
            self, steps):
        first, second = MemoryTracer(), MemoryTracer()
        for tracer, order in ((first, REGION_NAMES),
                              (second, REGION_NAMES[::-1])):
            for region in order + ("model.only-" + order[0],):
                tracer.record(WRITE, region, 0)
            tracer.clear()
        replay(first, steps)
        replay(second, steps)
        assert first.snapshot() == second.snapshot()
        assert traces_equal(first.snapshot(), second.snapshot())
        assert first.digest() == second.digest()
        assert (trace_structure(first.snapshot())
                == trace_structure(second.snapshot()))
        assert (address_histograms(first.snapshot())
                == address_histograms(second.snapshot()))

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(tracer_steps, min_size=2, max_size=3),
           mode=st.sampled_from([MODE_EXACT, MODE_STRUCTURAL]))
    def test_first_divergence_is_the_first_unequal_event(self, steps, mode):
        traces, models = [], []
        for secret_steps in steps:
            tracer = MemoryTracer()
            models.append(replay(tracer, secret_steps)[0])
            traces.append(tracer.snapshot())
        width = 3 if mode == MODE_EXACT else 2

        def at(model, ordinal):
            if ordinal >= len(model):
                return None
            event = model[ordinal]
            return (event.op, event.region, event.address)[:width]

        expected = None
        for secret, model in enumerate(models[1:], start=1):
            for ordinal in range(max(len(models[0]), len(model))):
                if at(models[0], ordinal) != at(model, ordinal):
                    expected = (secret, ordinal, at(models[0], ordinal),
                                at(model, ordinal))
                    break
            if expected is not None:
                break
        found = _first_divergence(traces, mode)
        assert (None if found is None else tuple(found)) == expected

    def test_buffered_records_keep_their_place_across_flushes(self):
        tracer, model = MemoryTracer(), []
        for address in range(5000):  # more than one record buffer's worth
            tracer.record(READ, "model.a", address)
            model.append(AccessEvent(READ, "model.a", address))
            if address == 4500:
                tracer.record_sweep("model.b", 2, READ + WRITE)
                model += [AccessEvent(op, "model.b", row)
                          for row in range(2) for op in READ + WRITE]
        assert len(tracer) == len(model)
        assert_matches(tracer.snapshot(), model)

    def test_unknown_region_has_no_addresses(self):
        tracer = MemoryTracer()
        tracer.record(READ, "model.a", 1)
        assert tracer.addresses("model.never-recorded") == []

    def test_snapshot_columns_are_read_only(self):
        tracer = MemoryTracer()
        tracer.record_sweep("model.a", 3)
        trace = tracer.snapshot()
        with pytest.raises(ValueError):
            trace.addresses[0] = 7
