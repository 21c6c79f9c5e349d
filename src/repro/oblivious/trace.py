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

A trace is three columns — an op code (uint8), a region id and an address
(int64) — so a full scan is one array append and comparing two traces is
one array comparison per column. Op and region names are interned in one
module-level table each, so the columns of any two tracers compare
directly, whatever order they first met their names in.
:class:`AccessEvent` is only what iterating or indexing a trace yields.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import integer_indices

READ = "R"
WRITE = "W"

#: events per :meth:`Trace.digest` hashing chunk (bounds its text buffer)
_DIGEST_CHUNK = 1 << 16
#: :meth:`MemoryTracer.record` events buffered before they become columns
_FLUSH_AT = 4096


@dataclass(frozen=True)
class AccessEvent:
    """One observed memory access: R/W of ``region`` at row ``address``."""

    op: str
    region: str
    address: int

    def __str__(self) -> str:
        return f"{self.op} {self.region}[{self.address}]"


class _Names:
    """An append-only interned name table: name <-> small integer code."""

    def __init__(self, dtype, *names: str) -> None:
        self.dtype = np.dtype(dtype)
        self.names: List[str] = []
        self.codes: Dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = len(self.names)
            if code > np.iinfo(self.dtype).max:
                raise OverflowError(
                    f"more than {code} distinct names in a {self.dtype} "
                    "column")
            self.names.append(name)
            self.codes[name] = code
        return code

    def encode(self, names: Iterable[str]) -> np.ndarray:
        codes = self.codes
        try:
            return np.array([codes[name] for name in names],
                            dtype=self.dtype)
        except KeyError:
            return np.array([self.intern(name) for name in names],
                            dtype=self.dtype)


#: the one op table and the one region table every trace codes into
OPS = _Names(np.uint8, READ, WRITE)
REGIONS = _Names(np.int32)

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY: Columns = (np.empty(0, OPS.dtype), np.empty(0, REGIONS.dtype),
                   np.empty(0, np.int64))


class Trace:
    """An immutable event sequence held as ``ops``/``regions``/``addresses``
    columns (codes into :data:`OPS` and :data:`REGIONS`).

    Behaves as the tuple of :class:`AccessEvent` it stands for: ``len``,
    iteration, integer indexing, slicing (a :class:`Trace`) and ``==``.
    """

    __slots__ = ("ops", "regions", "addresses")

    def __init__(self, ops: np.ndarray, regions: np.ndarray,
                 addresses: np.ndarray) -> None:
        for column in (ops, regions, addresses):
            column.flags.writeable = False
        self.ops = ops
        self.regions = regions
        self.addresses = addresses

    @classmethod
    def of(cls, events: Union["Trace", Iterable[AccessEvent]]) -> "Trace":
        """``events`` as a trace: itself, or its :class:`AccessEvent`
        sequence encoded into columns."""
        if isinstance(events, Trace):
            return events
        events = list(events)
        return cls(OPS.encode([event.op for event in events]),
                   REGIONS.encode([event.region for event in events]),
                   np.array([event.address for event in events],
                            dtype=np.int64))

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[AccessEvent]:
        ops, regions = OPS.names, REGIONS.names
        for op, region, address in zip(self.ops.tolist(),
                                       self.regions.tolist(),
                                       self.addresses.tolist()):
            yield AccessEvent(ops[op], regions[region], address)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.ops[index], self.regions[index],
                         self.addresses[index])
        index = operator.index(index)
        return AccessEvent(OPS.names[self.ops[index]],
                           REGIONS.names[self.regions[index]],
                           int(self.addresses[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (np.array_equal(self.ops, other.ops)
                and np.array_equal(self.regions, other.regions)
                and np.array_equal(self.addresses, other.addresses))

    def __repr__(self) -> str:
        return f"Trace({len(self)} events)"

    def touched_regions(self) -> List[int]:
        """The region codes this trace touches, in first-touch order."""
        codes, first = np.unique(self.regions, return_index=True)
        return codes[np.argsort(first)].tolist()

    def digest(self) -> str:
        """sha256 of ``"{op}|{region}|{address};"`` for every event in
        order (for compact comparison).

        The text is built from the columns: each distinct ``"{op}|{region}|"``
        prefix is formatted once and the addresses are written out as one
        array, then every event's bytes are gathered in order.
        """
        hasher = hashlib.sha256()
        width = len(REGIONS.names)
        for start in range(0, len(self), _DIGEST_CHUNK):
            chunk = slice(start, start + _DIGEST_CHUNK)
            pairs = self.ops[chunk].astype(np.int64) * width \
                + self.regions[chunk]
            distinct, inverse = np.unique(pairs, return_inverse=True)
            words = [f"{OPS.names[pair // width]}|"
                     f"{REGIONS.names[pair % width]}|".encode()
                     for pair in distinct.tolist()]
            # zero-padded rows; each word ends in "|", so none is cut short
            prefix = np.array(words).view(np.uint8).reshape(len(words), -1)
            prefix_used = (np.arange(prefix.shape[1])
                           < np.array([len(word) for word in words])[:, None])
            number, number_used = _decimal_rows(self.addresses[chunk])
            end = np.full((len(inverse), 1), ord(";"), np.uint8)
            text = np.hstack([prefix[inverse], number, end])
            used = np.hstack([prefix_used[inverse], number_used,
                              np.ones(end.shape, bool)])
            hasher.update(text[used].tobytes())
        return hasher.hexdigest()


def _decimal_rows(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The decimal text of int64 ``values`` as a right-aligned ASCII byte
    matrix (sign column first) and the mask of each row's own bytes."""
    magnitude = np.abs(values).astype(np.uint64)  # |int64 min| is exact
    digits, used = [], []
    while True:  # least significant digit first; it is always written
        used.append(magnitude > 0 if digits else np.ones(len(values), bool))
        magnitude, digit = np.divmod(magnitude, np.uint64(10))
        digits.append(digit.astype(np.uint8) + np.uint8(ord("0")))
        if not magnitude.any():
            break
    digits.append(np.full(len(values), ord("-"), np.uint8))
    used.append(values < 0)
    return np.stack(digits[::-1], axis=1), np.stack(used[::-1], axis=1)


class MemoryTracer:
    """Records the sequence of memory accesses issued by traced code.

    :meth:`record_each` appends a whole run of events as columns;
    :meth:`record` buffers single events and folds them into the columns
    in batches. :meth:`snapshot` is the recorded :class:`Trace`.
    """

    def __init__(self) -> None:
        self.clear()

    def record(self, op: str, region: str, address: int) -> None:
        pending = self._pending
        pending.append((op, region, int(address)))
        if len(pending) >= _FLUSH_AT:
            self._flush()

    def record_each(self, region: str, addresses, ops: str = READ) -> None:
        """Declare every op of ``ops`` at each of ``addresses`` in turn
        (``R a0 W a0 R a1 W a1 …`` for ``"RW"``) in one columnar append —
        the events the nested :meth:`record` loop would append. Each
        character of ``ops`` is one op, so it must be ``R`` or ``W``
        (``ValueError`` otherwise)."""
        if not ops or ops.strip(READ + WRITE):
            raise ValueError(
                f"ops must be a string of {READ!r}/{WRITE!r}, got {ops!r}")
        addresses = integer_indices(addresses).astype(
            np.int64, copy=False).reshape(-1)
        op_column = np.empty((len(addresses), len(ops)), OPS.dtype)
        op_column[:] = OPS.encode(ops)
        region_column = np.empty(op_column.size, REGIONS.dtype)
        region_column.fill(REGIONS.intern(region))
        self._flush()
        self._chunks.append((op_column.reshape(-1), region_column,
                             addresses.repeat(len(ops))))
        self._length += op_column.size

    def record_sweep(self, region: str, count: int, ops: str = READ) -> None:
        """Declare a full scan: :meth:`record_each` over ``0..count-1``."""
        self.record_each(region, np.arange(count), ops)

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            ops, regions, addresses = zip(*pending)
            self._chunks.append((OPS.encode(ops), REGIONS.encode(regions),
                                 np.array(addresses, dtype=np.int64)))
            self._length += len(pending)
            pending.clear()

    def clear(self) -> None:
        self._chunks: List[Columns] = []
        self._pending: List[Tuple[str, str, int]] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length + len(self._pending)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self.snapshot())

    def addresses(self, region: Optional[str] = None) -> List[int]:
        """The address sequence, optionally restricted to one region."""
        trace = self.snapshot()
        if region is None:
            return trace.addresses.tolist()
        return trace.addresses[
            trace.regions == REGIONS.codes.get(region, -1)].tolist()

    def digest(self) -> str:
        """A stable hash of the full event sequence (for compact comparison)."""
        return self.snapshot().digest()

    def snapshot(self) -> Trace:
        """The events recorded so far, as an immutable :class:`Trace`."""
        self._flush()
        chunks = self._chunks
        if len(chunks) != 1:
            merged = (tuple(np.concatenate(column) for column in zip(*chunks))
                      if chunks else _EMPTY)
            self._chunks = chunks = [merged]
        return Trace(*chunks[0])


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
        """``index`` as a row; ``TypeError`` for a float or bool (never
        truncated to a row), ``IndexError`` out of range."""
        index = int(integer_indices(index))
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


def traces_equal(a: Union[Trace, Iterable[AccessEvent]],
                 b: Union[Trace, Iterable[AccessEvent]]) -> bool:
    """True when two event sequences are identical."""
    return Trace.of(a) == Trace.of(b)
