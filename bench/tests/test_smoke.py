"""Smoke tests of the benchmark itself (``python -m pytest bench/tests -q``).

Not under the repo's ``testpaths``: tier-1 time is unchanged. Every
workload runs at smoke sizes (``quick``: one set-up, a one-second loop,
two traced ops, short probes), so the numbers mean nothing; the schema,
the span arithmetic and the determinism contracts are what is checked.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from bench.compare import EXACT_UNITS
from bench.trace import (
    END,
    NAME,
    PARENT,
    START,
    SpanRecorder,
    is_wrapped,
    self_seconds,
)
from bench.worker import RESULTS_DIR, run_workload
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(ROOT / "BENCHMARK.json") as _handle:
    BENCHMARK = json.load(_handle)


@lru_cache(maxsize=None)
def _run(name: str, seed: int, trace: bool, repeat: int = 0):
    """One quick run; ``repeat`` only distinguishes cache entries."""
    return run_workload(name, seed, 1.0, trace, quick=True)


def test_benchmark_json_names_the_five_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "dlrm_hybrid_infer", "llm_oram_generate", "train_oram_online",
        "sim_fleet_replay", "audit_trace_replay"]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_result_has_exactly_the_declared_metrics(name, trace):
    result, detail = _run(name, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert detail["errors"] == []
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", NAMES)
def test_span_trees_tile_each_op(name):
    _, detail = _run(name, 0, True)
    with open(RESULTS_DIR / f"trace_{name}.json") as handle:
        trace = json.load(handle)
    spans = [[trace["names"][n], s, e, p, op] for n, s, e, p, op in zip(
        trace["name"], trace["start_s"], trace["end_s"], trace["parent"],
        trace["op"])]
    roots = [i for i, span in enumerate(spans)
             if span[NAME] == "op" and span[PARENT] == -1 and span[4] >= 0]
    assert len(roots) == detail["traced_ops"]
    own = self_seconds(spans)
    # Timestamps are rounded to a nanosecond when the trace is written.
    assert min(own) > -1e-6
    for root in roots:
        total = sum(own[i] for i, span in enumerate(spans)
                    if span[4] == spans[root][4])
        duration = spans[root][END] - spans[root][START]
        assert total == pytest.approx(duration, rel=0.01)
    for span in spans:
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] + 1e-8
            assert span[END] <= parent[END] + 1e-8


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_busy_times_add_up_to_the_op(name):
    result, _ = _run(name, 0, True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    from bench.workloads.base import SPAN_METRIC

    busy = set(SPAN_METRIC.values()) | {
        k for k in values if k.startswith("audit.subject_ms.")}
    op_ms = values["op.self_ms"] / (1.0 - values["trace.attributed_share"])
    assert sum(values[k] for k in busy) == pytest.approx(op_ms, rel=0.01)
    assert values["trace.attributed_share"] >= 0.95


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_inputs_and_exact_counts(name):
    first, first_detail = _run(name, 0, True)
    again, again_detail = _run(name, 0, True, repeat=1)
    _, other_detail = _run(name, 1, False)
    assert first_detail["inputs_sha256"] == again_detail["inputs_sha256"]
    assert first_detail["inputs_sha256"] != other_detail["inputs_sha256"]
    exact = [m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in EXACT_UNITS]
    assert exact
    for metric in exact:
        assert (first["metrics"][metric]["value"]
                == again["metrics"][metric]["value"]), metric


class _DryRecorder(SpanRecorder):
    """Lists what ``instrument`` would wrap without installing anything."""

    def wrap(self, obj, attribute, name, label=None):
        self.wrapped.append((obj, attribute))


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_exist_only_after_instrumenting(name):
    workload = WORKLOADS[name](0)
    workload.make_inputs()
    workload.setup()
    item = workload.pool[0]
    assert workload.after_op(0, item, workload.op(item))

    dry = _DryRecorder()
    workload.instrument(dry)
    assert dry.wrapped
    for obj, attribute in dry.wrapped:
        assert not is_wrapped(obj, attribute)
        if attribute not in vars(obj):
            # Still the class's own function, bound to this instance.
            assert (getattr(obj, attribute).__func__
                    is getattr(type(obj), attribute))

    rec = SpanRecorder()
    workload.instrument(rec)
    targets = list(rec.wrapped)
    assert all(is_wrapped(obj, attribute) for obj, attribute in targets)
    out = rec.run_op(0, "op", workload.op, item)
    assert workload.after_op(0, item, out)
    assert len(rec.spans) > 1

    rec.uninstall()
    assert not any(is_wrapped(obj, attribute) for obj, attribute in targets)
    spans = len(rec.spans)
    assert workload.after_op(0, item, workload.op(item))
    assert len(rec.spans) == spans


def test_command_line_contract(tmp_path):
    command = BENCHMARK["command"] + [
        "--workload", "sim_fleet_replay", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--quick"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == [
        m["name"] for m in BENCHMARK["end_to_end"]]

    # Without the program under test the command fails and prints no result.
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
