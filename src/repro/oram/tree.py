"""Binary-tree bucket storage shared by Path ORAM and Circuit ORAM.

The tree is a complete binary tree of buckets in heap order (root at index
0, children of ``i`` at ``2i+1``/``2i+2``); each bucket holds ``Z`` block
slots. A slot stores a block id (``DUMMY`` when empty), the block's assigned
leaf, and its payload row. Bucket-granularity reads/writes are reported to a
:class:`~repro.oblivious.trace.MemoryTracer` under the region name given at
construction — these are exactly the addresses an attacker observes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.utils.validation import check_positive

DUMMY = -1


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value`` (reverse-lex eviction order)."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def tree_levels_for(num_blocks: int) -> int:
    """Number of levels L such that the tree has ``2**L >= num_blocks`` leaves.

    This matches the usual Path ORAM sizing where the leaf count is at least
    the block count (so each leaf path is lightly loaded).
    """
    check_positive("num_blocks", num_blocks)
    levels = 0
    while (1 << levels) < num_blocks:
        levels += 1
    return levels


class BucketTree:
    """Array-backed complete binary tree of Z-slot buckets."""

    def __init__(self, num_blocks: int, block_width: int, bucket_size: int = 4,
                 tracer: Optional[MemoryTracer] = None,
                 region: str = "tree") -> None:
        check_positive("block_width", block_width)
        check_positive("bucket_size", bucket_size)
        self.levels = tree_levels_for(num_blocks)  # leaf level index
        self.num_leaves = 1 << self.levels
        self.num_buckets = (1 << (self.levels + 1)) - 1
        self.bucket_size = bucket_size
        self.block_width = block_width
        self.tracer = tracer
        self.region = region
        self.ids = np.full((self.num_buckets, bucket_size), DUMMY, dtype=np.int64)
        self.leaves = np.zeros((self.num_buckets, bucket_size), dtype=np.int64)
        self.payloads = np.zeros((self.num_buckets, bucket_size, block_width))

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def bucket_at(self, leaf: int, level: int) -> int:
        """Heap index of the level-``level`` bucket on the path to ``leaf``."""
        return (1 << level) - 1 + (leaf >> (self.levels - level))

    def path_indices(self, leaf: int) -> List[int]:
        """Bucket heap-indices from root to the bucket of ``leaf``."""
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(f"leaf {leaf} out of range (< {self.num_leaves})")
        return [self.bucket_at(leaf, level)
                for level in range(self.levels + 1)]

    def common_depth(self, leaf_a, leaf_b):
        """Deepest level (0..levels) shared by the paths to two leaves;
        element-wise when either is an int64 array."""
        diff = leaf_a ^ leaf_b
        if isinstance(diff, np.ndarray):
            # frexp's exponent is the bit length (exact below 2**53)
            return self.levels - np.frexp(diff)[1]
        return self.levels - int(diff).bit_length()

    # ------------------------------------------------------------------
    # Traced bucket access
    # ------------------------------------------------------------------
    def read_bucket(self, bucket: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read a bucket's (ids, leaves, payloads) as copies."""
        if self.tracer is not None:
            self.tracer.record(READ, self.region, bucket)
        return (self.ids[bucket].copy(), self.leaves[bucket].copy(),
                self.payloads[bucket].copy())

    def write_bucket(self, bucket: int, ids: np.ndarray, leaves: np.ndarray,
                     payloads: np.ndarray) -> None:
        if self.tracer is not None:
            self.tracer.record(WRITE, self.region, bucket)
        self.ids[bucket] = ids
        self.leaves[bucket] = leaves
        self.payloads[bucket] = payloads

    def write_blocks(self, bucket: int, ids: np.ndarray, leaves: np.ndarray,
                     payloads: np.ndarray) -> None:
        """Write ``bucket`` holding the given blocks — arrays of at most
        ``bucket_size`` rows — in its first slots, dummies after."""
        count = len(ids)
        slot_ids = np.full(self.bucket_size, DUMMY, dtype=np.int64)
        slot_leaves = np.zeros(self.bucket_size, dtype=np.int64)
        slot_payloads = np.zeros((self.bucket_size, self.block_width))
        slot_ids[:count] = ids
        slot_leaves[:count] = leaves
        slot_payloads[:count] = payloads
        self.write_bucket(bucket, slot_ids, slot_leaves, slot_payloads)

    def read_bucket_metadata(self, bucket: int) -> Tuple[np.ndarray, np.ndarray]:
        """Metadata-only read (ids, leaves) — Circuit ORAM's scan passes."""
        if self.tracer is not None:
            self.tracer.record(READ, self.region, bucket)
        return self.ids[bucket].copy(), self.leaves[bucket].copy()

    def read_slot(self, bucket: int, slot: int) -> np.ndarray:
        """Read one payload slot of ``bucket`` — Ring ORAM's ReadPath."""
        if self.tracer is not None:
            self.tracer.record(READ, self.region, bucket)
        return self.payloads[bucket, slot].copy()

    # ------------------------------------------------------------------
    # Multi-bucket access: one gather / scatter, events declared apart
    # ------------------------------------------------------------------
    def read_buckets(self, buckets) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """(ids, leaves, payloads) of ``buckets`` as copies, bucket-major.

        Neither this nor :meth:`write_buckets` records an event: the block
        movers interleave tree and stash touches bucket by bucket, so they
        declare each bucket's events with :meth:`_trace` in the order the
        bucket-at-a-time protocol issues them.
        """
        buckets = np.asarray(buckets, dtype=np.int64)
        return self.ids[buckets], self.leaves[buckets], self.payloads[buckets]

    def write_buckets(self, buckets, ids: np.ndarray, leaves: np.ndarray,
                      payloads: np.ndarray) -> None:
        """Install whole ``buckets`` (distinct) from bucket-major arrays."""
        buckets = np.asarray(buckets, dtype=np.int64)
        self.ids[buckets] = ids
        self.leaves[buckets] = leaves
        self.payloads[buckets] = payloads

    def _trace(self, ops: str, buckets) -> None:
        """Declare every op of ``ops`` at each of ``buckets`` in turn
        (``R b0 W b0 R b1 W b1 …`` for ``"RW"``) in one columnar append."""
        if self.tracer is not None:
            self.tracer.record_each(self.region, buckets, ops)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total real (non-dummy) blocks stored in the tree."""
        return int((self.ids != DUMMY).sum())

    def find_slot(self, bucket: int, usable: Optional[int] = None) -> Optional[int]:
        """Index of a free slot among the first ``usable`` (default: all)
        slots of ``bucket``, or ``None`` when they are full."""
        free = np.nonzero(self.ids[bucket, :usable] == DUMMY)[0]
        return int(free[0]) if free.size else None

    def place_initial(self, block_id: int, leaf: int, payload: np.ndarray,
                      usable: Optional[int] = None) -> bool:
        """Offline placement used at build time: deepest free slot on the path.

        Initialization happens before any secret-dependent access, so direct
        placement leaks nothing. Only the first ``usable`` slots of a bucket
        take blocks (Ring ORAM keeps the rest as dummies). Returns False when
        the whole path is full (the caller then parks the block in the stash).
        """
        for bucket in reversed(self.path_indices(leaf)):
            slot = self.find_slot(bucket, usable)
            if slot is not None:
                self.ids[bucket, slot] = block_id
                self.leaves[bucket, slot] = leaf
                self.payloads[bucket, slot] = payload
                return True
        return False
