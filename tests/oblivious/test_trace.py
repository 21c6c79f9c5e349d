"""MemoryTracer / TracedArray behaviour."""

import numpy as np
import pytest

from repro.oblivious.trace import (
    READ,
    WRITE,
    AccessEvent,
    MemoryTracer,
    TracedArray,
    traces_equal,
)


class TestMemoryTracer:
    def test_records_in_order(self):
        tracer = MemoryTracer()
        tracer.record(READ, "t", 3)
        tracer.record(WRITE, "t", 5)
        assert [str(e) for e in tracer] == ["R t[3]", "W t[5]"]

    def test_disabled_records_nothing(self):
        tracer = MemoryTracer(enabled=False)
        tracer.record(READ, "t", 1)
        tracer.record_sweep("t", 4, READ + WRITE)
        assert len(tracer) == 0

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

    def test_digest_distinguishes_traces(self):
        a, b = MemoryTracer(), MemoryTracer()
        a.record(READ, "t", 1)
        b.record(READ, "t", 2)
        assert a.digest() != b.digest()

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
        assert tracer.events == [AccessEvent(READ, "t", 2)]

    def test_write_reports(self, rng):
        tracer = MemoryTracer()
        arr = TracedArray(np.zeros((4, 3)), "t", tracer)
        arr.write(1, np.ones(3))
        np.testing.assert_allclose(arr.data[1], np.ones(3))
        assert tracer.events == [AccessEvent(WRITE, "t", 1)]

    def test_read_all_sequential(self):
        tracer = MemoryTracer()
        arr = TracedArray(np.zeros((3, 2)), "t", tracer)
        arr.read_all()
        assert tracer.addresses("t") == [0, 1, 2]

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
