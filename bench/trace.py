"""Span recording from outside the program.

The traced run wraps public methods of the live objects a workload built
(the wrapper is set as an *instance* attribute, so the class and every
other instance keep the original function) and records one span per call:
``(name, start, end, parent, op)``. Spans stay in memory and are written
out once, when the run ends. Nothing in ``repro.*`` is edited, and the
untraced run never imports this module's wrappers into a call path.

A layer's *self time* is its span's duration minus the part its child
spans cover; self times of all spans under one root add up to the root's
duration exactly, so per-layer busy times tile the op.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: span record layout
NAME, START, END, PARENT, OP = range(5)
_MISSING = object()


class SpanRecorder:
    """In-memory span log with instance-attribute method wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: id of the op (root span) currently running; -1 between ops
        self.op = -1
        #: every (object, attribute) a wrapper was installed on, and what
        #: the instance held there before (``_MISSING``: the class's method)
        self.wrapped: List[Tuple[object, str]] = []
        self._originals: List[object] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def run_op(self, op: int, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of op number ``op``."""
        self.op = op
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)
            self.op = -1

    def wrap(self, obj: object, attribute: str, name: str,
             label: Optional[Callable[..., str]] = None) -> None:
        """Record a span around every ``obj.attribute(...)`` call.

        ``label(*args)``, when given, is appended to the span name (the
        audit workload names each subject's span this way).
        """
        inner = getattr(obj, attribute)
        begin, end = self.begin, self.end

        if label is None:
            def traced(*args, **kwargs):
                index = begin(name)
                try:
                    return inner(*args, **kwargs)
                finally:
                    end(index)
        else:
            def traced(*args, **kwargs):
                index = begin(f"{name}.{label(*args, **kwargs)}")
                try:
                    return inner(*args, **kwargs)
                finally:
                    end(index)

        traced.__bench_span__ = name
        self._originals.append(vars(obj).get(attribute, _MISSING))
        setattr(obj, attribute, traced)
        self.wrapped.append((obj, attribute))

    def wrap_all(self, obj: object, attributes: Iterable[str],
                 name: str) -> None:
        for attribute in attributes:
            self.wrap(obj, attribute, name)

    def uninstall(self) -> None:
        """Remove every wrapper; the objects are as they were before."""
        for (obj, attribute), original in zip(self.wrapped, self._originals):
            if original is _MISSING:
                delattr(obj, attribute)
            else:
                setattr(obj, attribute, original)
        self.wrapped, self._originals = [], []

    # ------------------------------------------------------------------
    def select(self, first_op: int, last_op: int) -> List[list]:
        """Spans of ops ``first_op <= op < last_op``, parents re-indexed."""
        keep = {}
        out = []
        for index, span in enumerate(self.spans):
            if first_op <= span[OP] < last_op:
                keep[index] = len(out)
                out.append(list(span))
        for span in out:
            span[PARENT] = keep.get(span[PARENT], -1)
        return out

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span as column arrays (times in seconds from the
        first span's start)."""
        names: Dict[str, int] = {}
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "meta": meta,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": [names.setdefault(s[NAME], len(names))
                     for s in self.spans],
            "start_s": [round(s[START] - origin, 9) for s in self.spans],
            "end_s": [round(s[END] - origin, 9) for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "op": [s[OP] for s in self.spans],
        }
        payload["names"] = list(names)
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Span arithmetic (pure functions over a span list)
# ----------------------------------------------------------------------
def self_seconds(spans: List[list]) -> List[float]:
    """Per span: duration minus the part its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def self_by_name(spans: List[list]) -> Dict[str, float]:
    """Total self seconds per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_seconds(spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def calls_by_name(spans: List[list]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[NAME]] = counts.get(span[NAME], 0) + 1
    return counts


def durations(spans: List[list], name: str) -> List[float]:
    """Durations (children included) of every span called ``name``."""
    return [span[END] - span[START] for span in spans if span[NAME] == name]


def inclusive_seconds(spans: List[list], name: str) -> float:
    """Total duration of the outermost spans called ``name`` (a span
    nested under another of the same name is already counted by it)."""
    total = 0.0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total


def is_wrapped(obj: object, attribute: str) -> bool:
    return hasattr(vars(obj).get(attribute), "__bench_span__")
