"""Span-based tracing: decompose one request into its pipeline stages.

A span is a named, timed region of execution opened as a context manager
(``with registry.span("oram.access"): ...``). Spans nest: the collector
keeps a per-thread stack so a ``serve`` span naturally contains the
``serve.schedule`` span, which contains the per-batch and per-generator
spans, down to ORAM bucket I/O. Each record carries its parent id, depth,
start offset, duration, and free-form attributes, so an exported trace can
be reassembled into the queue-wait -> batch -> generator -> bucket-I/O tree.

The collector is bounded (``max_spans``): once full, new records are
counted as dropped instead of growing without limit, which is what lets
instrumentation stay on in long-running serving processes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: identity, position in the tree, timing, tags."""

    # The collector keeps up to ``max_spans`` of these alive; without a
    # per-record ``__dict__`` each one is about a third smaller.
    __slots__ = ("span_id", "parent_id", "name", "depth", "start_seconds",
                 "duration_seconds", "attributes")

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    start_seconds: float        # offset from the collector's origin
    duration_seconds: float
    attributes: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }

    def __str__(self) -> str:
        return (f"{'  ' * self.depth}{self.name} "
                f"[{self.duration_seconds * 1e3:.3f} ms]")


class Span:
    """An open span; use as a context manager (returned by ``span(...)``)."""

    __slots__ = ("_collector", "name", "attributes", "span_id", "parent_id",
                 "depth", "_start", "_on_close")

    def __init__(self, collector: "SpanCollector", name: str,
                 attributes: Dict[str, object],
                 on_close: Optional[Callable[[SpanRecord], None]] = None) -> None:
        self._collector = collector
        self.name = name
        self.attributes = attributes
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self._start = 0.0
        self._on_close = on_close

    def set_attribute(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        collector = self._collector
        stack = collector._stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        self.span_id = collector._next_id()
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start
        collector = self._collector
        stack = collector._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:            # defensive: unwind past this span
            del stack[stack.index(self):]
        record = SpanRecord(span_id=self.span_id, parent_id=self.parent_id,
                            name=self.name, depth=self.depth,
                            start_seconds=self._start - collector.origin,
                            duration_seconds=duration,
                            attributes=self.attributes)
        collector._record(record)
        if self._on_close is not None:
            self._on_close(record)


class NullSpan:
    """A reusable do-nothing span for disabled telemetry."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = NullSpan()


class SpanCollector:
    """Bounded store of completed spans with a per-thread open-span stack."""

    def __init__(self, max_spans: int = 100_000) -> None:
        # repro.utils imports telemetry (timing histograms), so the
        # validation helpers are off-limits here — inline the check.
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.max_spans = max_spans
        self.records: List[SpanRecord] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._id_lock = threading.Lock()
        self._ids = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            span_id = self._ids
            self._ids += 1
        return span_id

    def _record(self, record: SpanRecord) -> None:
        if len(self.records) >= self.max_spans:
            self.dropped += 1
            return
        self.records.append(record)

    # ------------------------------------------------------------------
    def start(self, name: str, attributes: Dict[str, object],
              on_close: Optional[Callable[[SpanRecord], None]] = None) -> Span:
        return Span(self, name, attributes, on_close=on_close)

    def by_name(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def children(self, span_id: int) -> List[SpanRecord]:
        return [r for r in self.records if r.parent_id == span_id]

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
        self.origin = time.perf_counter()

    def __len__(self) -> int:
        return len(self.records)

    def to_dicts(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        records = self.records if limit is None else self.records[:limit]
        return [r.to_dict() for r in records]

    def duration_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (count, summed duration seconds)."""
        totals: Dict[str, Tuple[int, float]] = {}
        for record in self.records:
            count, total = totals.get(record.name, (0, 0.0))
            totals[record.name] = (count + 1,
                                   total + record.duration_seconds)
        return totals
