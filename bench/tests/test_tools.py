"""Unit tests of the span arithmetic and of ``bench.compare``."""

from __future__ import annotations

import pytest

from bench import compare
from bench.trace import (
    SpanRecorder,
    calls_by_name,
    inclusive_seconds,
    is_wrapped,
    self_by_name,
)


class _Layered:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return self.outer(depth - 1) if depth else 0


def test_recorder_wraps_one_instance_and_tiles_self_time():
    traced, untouched = _Layered(), _Layered()
    rec = SpanRecorder()
    rec.wrap(traced, "outer", "layer.outer")
    rec.wrap(traced, "inner", "layer.inner")
    assert rec.run_op(0, "op", traced.outer, 2) == 3
    assert is_wrapped(traced, "outer") and not is_wrapped(untouched, "outer")
    assert _Layered.outer is type(untouched).outer

    spans = rec.select(0, 1)
    assert calls_by_name(spans) == {"op": 1, "layer.outer": 3,
                                    "layer.inner": 3}
    root = spans[0]
    assert sum(self_by_name(spans).values()) == pytest.approx(
        root[2] - root[1])
    # Nested same-name spans are counted once, by the outermost.
    assert inclusive_seconds(spans, "layer.outer") <= root[2] - root[1]
    assert rec.select(1, 2) == []


def test_recorder_closes_spans_when_the_call_raises():
    class Failing:
        def call(self):
            raise ValueError("boom")

    obj, rec = Failing(), SpanRecorder()
    rec.wrap(obj, "call", "failing")
    with pytest.raises(ValueError):
        rec.run_op(0, "op", obj.call)
    assert all(span[2] >= span[1] > 0.0 for span in rec.spans)
    assert rec.op == -1


@pytest.mark.parametrize("a, b, better, verdict", [
    ([100, 101, 99, 100], [104, 105, 103, 104], "lower", "ok"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "REGRESSION"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "ok"),
    ([100, 140, 60, 100], [105, 150, 70, 110], "lower", "unresolved"),
    ([100, 140, 60, 100], [50, 55, 45, 50], "lower", "better"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "REGRESSION"),
    ([100.0], [100.0], "lower", "ok"),
])
def test_judge(a, b, better, verdict):
    assert compare.judge(a, b, better, 0.10)[0] == verdict


def _run(workload, trace, seed, metrics, failed=0):
    return {"workload": workload, "trace": trace, "seed": seed,
            "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()}}


def test_compare_flags_regressions_failures_and_count_changes():
    benchmark = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower",
                        "bound": 0.1}],
        "per_layer": [{"name": "tree.bucket_reads", "unit": "count",
                       "better": "lower"}],
    }
    parent = [_run("w", 0, 0, {"op_ms_p50": 10.0}),
              _run("w", 1, 0, {"tree.bucket_reads": 7.0})]
    same = [_run("w", 0, 0, {"op_ms_p50": 10.5}),
            _run("w", 1, 0, {"tree.bucket_reads": 7.0})]
    worse = [_run("w", 0, 0, {"op_ms_p50": 12.0}, failed=1),
             _run("w", 1, 0, {"tree.bucket_reads": 9.0})]
    lines, regressions = compare.compare(parent, same, benchmark)
    assert regressions == 0 and "0 differ" in lines[-1]
    lines, regressions = compare.compare(parent, worse, benchmark)
    assert regressions == 2
    assert any("tree.bucket_reads 7 -> 9" in line for line in lines)


def test_compare_main_accepts_the_committed_results_against_themselves(capsys):
    path = str(compare.ROOT / "bench" / "results" / "BENCH_11.json")
    assert compare.main([path, path]) == 0
    out = capsys.readouterr().out
    assert "0 differ" in out and "0 regression(s)" in out
    assert "REGRESSION" not in out and "unresolved" not in out
