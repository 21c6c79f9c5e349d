"""The ORAM stash: a small client-side buffer scanned obliviously.

ZeroTrace hardens its stash with ``cmov``-based full scans; we reproduce the
same discipline — every lookup touches all capacity slots (reported to the
tracer under region ``"stash"``), so stash traffic is independent of content.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.tree import DUMMY
from repro.utils.validation import check_positive


class StashOverflowError(RuntimeError):
    """Raised when more real blocks are resident than the stash can hold."""


class Stash:
    """Fixed-capacity block buffer with oblivious full-scan semantics."""

    def __init__(self, capacity: int, block_width: int,
                 tracer: Optional[MemoryTracer] = None,
                 region: str = "stash") -> None:
        check_positive("capacity", capacity)
        check_positive("block_width", block_width)
        self.capacity = capacity
        self.block_width = block_width
        self.tracer = tracer
        self.region = region
        self.ids = np.full(capacity, DUMMY, dtype=np.int64)
        self.leaves = np.zeros(capacity, dtype=np.int64)
        self.payloads = np.zeros((capacity, block_width))
        self.peak_occupancy = 0

    def _scan_trace(self, op: str, sweeps: int = 1) -> None:
        """Declare ``sweeps`` full scans of every slot, one after another."""
        if self.tracer is not None:
            self.tracer.record_each(
                self.region, np.arange(sweeps * self.capacity) % self.capacity,
                op)

    def _slot_of(self, block_id: int) -> Optional[int]:
        """First slot holding ``block_id`` (``DUMMY``: first free slot)."""
        matches = np.nonzero(self.ids == block_id)[0]
        return int(matches[0]) if matches.size else None

    def _block(self, slot: int) -> Tuple[int, int, np.ndarray]:
        return (int(self.ids[slot]), int(self.leaves[slot]),
                self.payloads[slot].copy())

    @property
    def occupancy(self) -> int:
        return int((self.ids != DUMMY).sum())

    def _note_occupancy(self) -> None:
        occ = self.occupancy
        if occ > self.peak_occupancy:
            self.peak_occupancy = occ

    # ------------------------------------------------------------------
    def add(self, block_id: int, leaf: int, payload: np.ndarray) -> None:
        """Insert a real block into the first free slot (oblivious scan)."""
        self._scan_trace(WRITE)
        self._place([block_id], [leaf], payload)

    def _place(self, ids, leaves, payloads) -> None:
        """Put blocks (arrays, in order) into the first free slots — the
        slots one :meth:`add` each would pick. Nothing moves unless all
        fit. Records no scan: the caller declares one per slot it touched.
        """
        free = (self.ids == DUMMY).nonzero()[0][:len(ids)]
        if free.size < len(ids):
            raise StashOverflowError(
                f"stash capacity {self.capacity} exceeded adding "
                f"{len(ids)} block(s) to {self.occupancy} resident")
        self.ids[free] = ids
        self.leaves[free] = leaves
        self.payloads[free] = payloads
        self._note_occupancy()

    def remove(self, block_id: int) -> Optional[Tuple[int, np.ndarray]]:
        """Remove and return (leaf, payload) of ``block_id``; None if absent."""
        self._scan_trace(READ)
        slot = self._slot_of(block_id)
        if slot is None:
            return None
        found = self._block(slot)[1:]
        self.ids[slot] = DUMMY
        return found

    def peek(self, block_id: int) -> Optional[Tuple[int, np.ndarray]]:
        """Read a block without removing it (oblivious scan)."""
        self._scan_trace(READ)
        slot = self._slot_of(block_id)
        return None if slot is None else self._block(slot)[1:]

    def update(self, block_id: int, leaf: Optional[int] = None,
               payload: Optional[np.ndarray] = None) -> bool:
        """Update an existing block in place; returns False if absent."""
        self._scan_trace(WRITE)
        slot = self._slot_of(block_id)
        if slot is None:
            return False
        if leaf is not None:
            self.leaves[slot] = leaf
        if payload is not None:
            self.payloads[slot] = payload
        return True

    # ------------------------------------------------------------------
    def resident_blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All real blocks as (ids, leaves, payloads) arrays in slot order
        — a full scan."""
        self._scan_trace(READ)
        slots = (self.ids != DUMMY).nonzero()[0]
        return self.ids[slots], self.leaves[slots], self.payloads[slots]

    def evict_matching(self, predicate) -> Tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
        """Remove and return every block matching ``predicate``."""
        return self.take_matching(predicate, self.capacity)

    def take_matching(self, predicate, limit: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove up to ``limit`` blocks, first slots first, for which the
        mask ``predicate(leaves)`` over the whole leaf array holds; returns
        their (ids, leaves, payloads) arrays.

        One oblivious scan regardless of how many blocks match — the
        write-backs use this so their stash traffic is bucket-count
        constant (``evict_matching`` + per-block re-add would leak the
        overflow count through extra scans).
        """
        check_positive("limit", limit)
        self._scan_trace(WRITE)
        slots = ((self.ids != DUMMY)
                 & predicate(self.leaves)).nonzero()[0][:limit]
        taken = self.ids[slots], self.leaves[slots], self.payloads[slots]
        self.ids[slots] = DUMMY
        return taken

    def grow(self, new_capacity: int) -> None:
        """Extend the physical buffer to ``new_capacity`` slots.

        Sizing is a *public* decision (batch size and tree depth, never
        block identity): batched lookahead fetches transiently hold more
        than one path's worth of blocks, so the buffer is grown up front
        rather than overflowing mid-fetch.
        """
        check_positive("new_capacity", new_capacity)
        if new_capacity <= self.capacity:
            return
        extra = new_capacity - self.capacity
        self.ids = np.concatenate(
            [self.ids, np.full(extra, DUMMY, dtype=np.int64)])
        self.leaves = np.concatenate(
            [self.leaves, np.zeros(extra, dtype=np.int64)])
        self.payloads = np.concatenate(
            [self.payloads,
             np.zeros((extra, self.block_width), dtype=self.payloads.dtype)])
        self.capacity = new_capacity
