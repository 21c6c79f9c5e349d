"""Memory-access tracing: the measurement tool behind every security claim.

On real hardware the paper's threat model is an attacker observing the
*addresses* a victim touches (cache sets, pages, DRAM rows). In this
reproduction we make that observer explicit: a :class:`MemoryTracer` records
every (operation, region, address) event issued against a
:class:`TracedArray`. Security tests then assert **trace equivalence**: a
data-oblivious implementation must produce the identical event sequence for
every secret input.

This is deliberately stronger than timing measurements — any single
divergent address is caught deterministically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class AccessEvent:
    """One observed memory access: R/W of ``region`` at row ``address``."""

    op: str
    region: str
    address: int

    def __str__(self) -> str:
        return f"{self.op} {self.region}[{self.address}]"


class MemoryTracer:
    """Records the sequence of memory accesses issued by traced code."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[AccessEvent] = []

    def record(self, op: str, region: str, address: int) -> None:
        if self.enabled:
            self.events.append(AccessEvent(op, region, int(address)))

    def record_sweep(self, region: str, count: int, ops: str = READ) -> None:
        """Declare a full scan: every op of ``ops`` at each address
        ``0..count-1`` in address order (``R0 W0 R1 W1 …`` for ``"RW"``) —
        the events the nested :meth:`record` loop would append."""
        if self.enabled:
            self.events.extend(AccessEvent(op, region, address)
                               for address in range(count) for op in ops)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.events)

    def addresses(self, region: Optional[str] = None) -> List[int]:
        """The address sequence, optionally restricted to one region."""
        return [e.address for e in self.events
                if region is None or e.region == region]

    def digest(self) -> str:
        """A stable hash of the full event sequence (for compact comparison)."""
        hasher = hashlib.sha256()
        for event in self.events:
            hasher.update(f"{event.op}|{event.region}|{event.address};".encode())
        return hasher.hexdigest()

    def snapshot(self) -> Tuple[AccessEvent, ...]:
        return tuple(self.events)


class TracedArray:
    """A 2-D array whose row accesses are reported to a :class:`MemoryTracer`.

    Rows model the paper's observable granularity: every real embedding-table
    entry spans at least a cache line, so a row index is what the LLC
    attacker learns. ``tracer=None`` disables tracing with near-zero cost,
    which the benchmarks use.
    """

    def __init__(self, data: np.ndarray, name: str,
                 tracer: Optional[MemoryTracer] = None) -> None:
        data = np.asarray(data)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2:
            raise ValueError(f"TracedArray requires 1-D or 2-D data, got ndim={data.ndim}")
        self.data = data
        self.name = name
        self.tracer = tracer

    @property
    def num_rows(self) -> int:
        return self.data.shape[0]

    @property
    def row_width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row {index} out of range for {self.name}[{self.num_rows}]")
        return index

    def read(self, index: int) -> np.ndarray:
        """Read one row (a copy), reporting the access."""
        index = self._check(index)
        if self.tracer is not None:
            self.tracer.record(READ, self.name, index)
        return self.data[index].copy()

    def write(self, index: int, value: np.ndarray) -> None:
        """Write one row, reporting the access."""
        index = self._check(index)
        if self.tracer is not None:
            self.tracer.record(WRITE, self.name, index)
        self.data[index] = value

    def read_all(self) -> np.ndarray:
        """Sequentially read every row (the linear-scan access pattern)."""
        if self.tracer is not None:
            self.tracer.record_sweep(self.name, self.num_rows)
        return self.data.copy()


def traces_equal(a: Sequence[AccessEvent], b: Sequence[AccessEvent]) -> bool:
    """True when two event sequences are identical."""
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))
