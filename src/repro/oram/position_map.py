"""Position maps: flat (oblivious linear scan) and recursive (ORAM-backed).

ZeroTrace protects its position map either by scanning it linearly with
``cmov`` (small maps) or, above a recursion cutoff, by storing it inside a
smaller ORAM whose own map recurses again — with a 16x compression factor
per level (each recursive block packs 16 leaf labels), as in §V-A1.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.oblivious.primitives import ct_eq
from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.utils.validation import check_positive

POSMAP_COMPRESSION = 16


def _check_batch(block_ids: Sequence[int],
                 new_leaves: Sequence[int]) -> List[int]:
    ids = [int(block_id) for block_id in block_ids]
    if len(ids) != len(new_leaves):
        raise ValueError(
            f"{len(ids)} block ids but {len(new_leaves)} new leaves")
    if len(set(ids)) != len(ids):
        raise ValueError("batched position-map lookups take *unique* block "
                         "ids; deduplicate duplicates first (the lookahead "
                         "planner does)")
    return ids


class PositionMap:
    """Interface: look up a block's leaf while installing its new leaf."""

    def lookup_and_update(self, block_id: int, new_leaf: int) -> int:
        raise NotImplementedError

    def refresh(self, block_id: int) -> None:
        """A dummy lookup: touch the map exactly like a real lookup while
        reinstalling the block's current leaf. Batched modes use this to
        pad per-lookup implementations to a public lookup count."""
        raise NotImplementedError

    def work_ops(self) -> int:
        """Memory operations spent inside the map so far (the amortization
        metric batched lookahead access reduces)."""
        raise NotImplementedError

    def lookup_and_update_batch(self, block_ids: Sequence[int],
                                new_leaves: Sequence[int],
                                pad_to: int = 0) -> List[int]:
        """Look up/update a whole batch of *unique* block ids at once.

        Returns the old leaves in batch order. The map traffic depends only
        on the public batch size (``pad_to`` lookups on a per-lookup map),
        never on how many ids were distinct.
        """
        raise NotImplementedError


class FlatPositionMap(PositionMap):
    """Leaf array protected by an oblivious full scan per lookup.

    Every lookup reads *and rewrites* all entries, blending the update in
    with a branch-free mask, so the touched addresses never depend on the
    queried block id.
    """

    def __init__(self, initial_leaves: np.ndarray,
                 region: str = "posmap") -> None:
        self.leaves = np.asarray(initial_leaves, dtype=np.int64).copy()
        check_positive("num_blocks", self.leaves.size)
        self.num_blocks = self.leaves.size
        #: bound by the owning controller's ``tracer`` setter
        self.tracer: Optional[MemoryTracer] = None
        self.region = region
        self.ops = 0

    def _sweep(self, block_ids, new_leaves=None,
               ops: str = READ + WRITE) -> np.ndarray:
        """The one oblivious pass every public method is an instance of.

        Touches all entries with ``ops`` in index order whatever
        ``block_ids`` holds, returns the current leaf of each queried id
        and, given ``new_leaves``, blends them in with a branch-free mask.
        Ids must be unique (the batch entry point checks), so every mask
        row selects at most one target and the int64 blend is exact.
        """
        ids = np.asarray(block_ids, dtype=np.int64).reshape(-1)
        for block_id in ids:
            if not 0 <= block_id < self.num_blocks:
                raise IndexError(f"block {block_id} out of range")
        if self.tracer is not None:
            self.tracer.record_sweep(self.region, self.num_blocks, ops)
        self.ops += len(ops) * self.num_blocks
        match = ct_eq(np.arange(self.num_blocks)[:, None], ids[None, :])
        old = (match * self.leaves[:, None]).sum(axis=0)
        if new_leaves is not None:
            targets = np.asarray(new_leaves, dtype=np.int64).reshape(-1)
            self.leaves = (self.leaves * (1 - match.sum(axis=1))
                           + match @ targets)
        return old

    def lookup_and_update(self, block_id: int, new_leaf: int) -> int:
        return int(self._sweep([block_id], [new_leaf])[0])

    def refresh(self, block_id: int) -> None:
        """Dummy lookup: the same full read+rewrite scan, values unchanged."""
        self._sweep([block_id])

    def lookup(self, block_id: int) -> int:
        """Read a block's entry without changing it — same full R+W scan
        trace as :meth:`lookup_and_update`, so a scheme whose positions
        only change at shuffle time (square-root ORAM) stays trace-
        indistinguishable from one that remaps per access."""
        return int(self._sweep([block_id])[0])

    def rewrite(self, new_leaves: np.ndarray) -> None:
        """Install a whole new mapping in one data-independent write sweep
        (square-root ORAM's reshuffle replaces every entry at once)."""
        new_leaves = np.asarray(new_leaves, dtype=np.int64)
        if new_leaves.shape != (self.num_blocks,):
            raise ValueError(
                f"rewrite needs {self.num_blocks} entries, "
                f"got shape {new_leaves.shape}")
        self._sweep((), ops=WRITE)
        self.leaves = new_leaves.copy()

    def work_ops(self) -> int:
        return self.ops

    def lookup_and_update_batch(self, block_ids: Sequence[int],
                                new_leaves: Sequence[int],
                                pad_to: int = 0) -> List[int]:
        """One oblivious pass for the whole batch (the LAORAM amortization).

        Every entry is read and rewritten exactly once no matter how many
        ids are queried, so a batch of B lookups costs ``2 * num_blocks``
        entry touches instead of ``2 * num_blocks * B`` — and the scan is
        already count-independent, so ``pad_to`` needs no extra traffic.
        """
        del pad_to
        ids = _check_batch(block_ids, new_leaves)
        return [int(leaf) for leaf in self._sweep(ids, new_leaves)]


class OramPositionMap(PositionMap):
    """Recursive position map: leaf labels packed 16-per-block in a child ORAM.

    ``oram_factory(num_blocks, block_width, initial_payloads)`` builds the
    child ORAM preloaded with the packed labels. The caller passes the same
    ORAM class, so Path ORAM recurses into Path ORAM and Circuit into
    Circuit, matching ZeroTrace's construction.
    """

    def __init__(self, initial_leaves: np.ndarray,
                 oram_factory: Callable[[int, int, np.ndarray], "object"]
                 ) -> None:
        initial_leaves = np.asarray(initial_leaves, dtype=np.int64)
        check_positive("num_blocks", initial_leaves.size)
        self.num_blocks = initial_leaves.size

        num_chunks = ((self.num_blocks + POSMAP_COMPRESSION - 1)
                      // POSMAP_COMPRESSION)
        chunks = np.zeros((num_chunks, POSMAP_COMPRESSION), dtype=np.float64)
        chunks.reshape(-1)[: self.num_blocks] = initial_leaves.astype(np.float64)
        self._child = oram_factory(num_chunks, POSMAP_COMPRESSION, chunks)

    def _locate(self, block_id: int):
        """(chunk id, lane) holding ``block_id``'s leaf label."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block {block_id} out of range")
        return divmod(block_id, POSMAP_COMPRESSION)

    def _blend(self, lane: int, new_leaf: int, old_leaves: list, slot: int):
        """The child ``update_fn`` installing ``new_leaf`` in ``lane`` of a
        chunk and leaving the lane's old label in ``old_leaves[slot]``.
        Oblivious in-chunk select/update: every lane participates."""
        def update(chunk: np.ndarray) -> np.ndarray:
            match = ct_eq(np.arange(POSMAP_COMPRESSION), lane)
            old_leaves[slot] = int((match * chunk).sum())
            return float(new_leaf) * match + chunk * (1 - match)
        return update

    def lookup_and_update(self, block_id: int, new_leaf: int) -> int:
        chunk_id, lane = self._locate(block_id)
        old_leaf = [None]
        self._child.access(chunk_id, self._blend(lane, new_leaf, old_leaf, 0))
        return old_leaf[0]

    def refresh(self, block_id: int) -> None:
        """Dummy lookup: one child-ORAM access with an identity update."""
        self._child.access(self._locate(block_id)[0], lambda chunk: chunk)

    def lookup_and_update_batch(self, block_ids: Sequence[int],
                                new_leaves: Sequence[int],
                                pad_to: int = 0) -> List[int]:
        """One child ``access_batch`` for the whole batch.

        The child batch has exactly ``max(pad_to, len(block_ids))`` slots:
        one in-chunk blend per id — ids sharing a chunk are served in
        arrival order by the child's duplicate chaining, each seeing the
        lanes the earlier ones installed — then identity updates as
        padding. The child's traffic is therefore a function of the public
        batch size only, and its own position map recurses the same way.
        """
        ids = _check_batch(block_ids, new_leaves)
        old_leaves: List[int] = [0] * len(ids)
        chunk_ids, update_fns = [], []
        for slot, (block_id, new_leaf) in enumerate(zip(ids, new_leaves)):
            chunk_id, lane = self._locate(block_id)
            chunk_ids.append(chunk_id)
            update_fns.append(self._blend(lane, int(new_leaf), old_leaves,
                                          slot))
        padding = max(0, pad_to - len(ids))
        chunk_ids += [chunk_ids[0] if ids else 0] * padding
        update_fns += [None] * padding
        if chunk_ids:
            self._child.access_batch(chunk_ids, update_fns)
        return old_leaves

    def work_ops(self) -> int:
        """Bucket I/O of the child ORAM — the map's memory operations."""
        return int(self._child.stats.bucket_reads
                   + self._child.stats.bucket_writes)
