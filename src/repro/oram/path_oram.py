"""Path ORAM (Stefanov et al.), as configured by ZeroTrace/§V-A1.

Every access fetches the whole path assigned to the block into the stash,
returns the block (remapped to a fresh random leaf), then writes the path
back greedily from the leaf upward, pushing stash blocks as deep as their
assigned leaves allow.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.oblivious.trace import WRITE
from repro.oram import lookahead
from repro.oram.controller import OramController, UpdateFn
from repro.oram.tree import DUMMY


class PathORAM(OramController):
    """Tree ORAM with full-path read/writeback per access."""

    DEFAULT_STASH = 150           # paper: stash size 150 for Path ORAM
    DEFAULT_RECURSION_CUTOFF = 1 << 16  # paper: recursion beyond 2^16 blocks
    SUPPORTS_LOOKAHEAD = True

    def _access_impl(self, block_id: int, old_leaf: int, new_leaf: int,
                     update_fn: Optional[UpdateFn]) -> np.ndarray:
        path = self.tree.path_indices(old_leaf)

        # 1. Fetch the entire path into the stash.
        self._fetch_path_into_stash(path)

        # 2. The requested block must now be in the stash.
        found = self.stash.remove(block_id)
        if found is None:
            raise KeyError(f"block {block_id} not found — ORAM invariant broken")
        _, payload = found
        result = payload.copy()
        if update_fn is not None:
            payload = np.asarray(update_fn(payload), dtype=np.float64)
        self.stash.add(block_id, new_leaf, payload)

        # 3. Write the path back greedily.
        self._writeback_path(path, old_leaf)

        self._check_stash_bound()
        return result

    # ------------------------------------------------------------------
    # Path fetch / writeback (shared by access and background eviction)
    # ------------------------------------------------------------------
    def _fetch_path_into_stash(self, path: Sequence[int]) -> None:
        """Pull every block on ``path`` into the stash, emptying the buckets.

        Every slot is processed (dummies included) so stash traffic is
        slot-count constant.
        """
        for bucket in path:
            ids, leaves, payloads = self.tree.read_bucket(bucket)
            self.stats.bucket_reads += 1
            for slot in range(self.bucket_size):
                slot_id = int(ids[slot])
                if slot_id != DUMMY:
                    self.stash.add(slot_id, int(leaves[slot]), payloads[slot])
                else:
                    # Dummy slot: same oblivious scan, no insertion.
                    self.stash._scan_trace(WRITE)
            # Bucket is now logically empty; writeback repopulates it.
            self.tree.write_blocks(bucket, ())
            self.stats.bucket_writes += 1

    def _writeback_path(self, path: Sequence[int], anchor_leaf: int) -> None:
        """Write ``path`` back, deepest bucket first, greedily draining the
        stash of blocks whose assigned path intersects each level."""
        for depth in range(self.tree.levels, -1, -1):
            bucket = path[depth]
            # One scan per bucket however many blocks are eligible: taking
            # all and re-adding the overflow would make the trace length
            # follow the (secret-dependent) overflow count.
            chosen = self.stash.take_matching(
                lambda leaf, d=depth:
                self.tree.common_depth(leaf, anchor_leaf) >= d,
                self.bucket_size)
            self.tree.write_blocks(bucket, chosen)
            self.stats.bucket_writes += 1

    # ------------------------------------------------------------------
    # Batched lookahead hooks (see repro.oram.lookahead)
    # ------------------------------------------------------------------
    def _lookahead_reserve(self, plan) -> None:
        # The shared fetch empties every scheduled bucket into the stash,
        # so the physical buffer must transiently hold a whole batch's
        # union of paths — a pure function of batch size and tree depth.
        self.stash.grow(self.persistent_stash_capacity
                        + self.bucket_size * plan.num_fetched_buckets)

    def _lookahead_fetch(self, plan) -> None:
        # Same discipline as a single-path fetch, over the level-padded
        # union schedule: every scheduled bucket is read exactly once.
        self._fetch_path_into_stash(
            [bucket for level in plan.schedule for bucket in level])

    def _lookahead_writeback(self, plan) -> int:
        """Fused greedy write-back: one deepest-first sweep over the
        schedule, each bucket written exactly once, one stash scan per
        bucket (:meth:`~repro.oram.stash.Stash.take_matching` keeps the
        scan count overflow-independent)."""
        levels = self.tree.levels
        for level in range(levels, -1, -1):
            for bucket in plan.schedule[level]:
                chosen = self.stash.take_matching(
                    lambda leaf, lvl=level, target=bucket:
                    lookahead.bucket_at(leaf, lvl, levels) == target,
                    self.bucket_size)
                self.tree.write_blocks(bucket, chosen)
                self.stats.bucket_writes += 1
        return plan.num_fetched_buckets

    # ------------------------------------------------------------------
    # Background eviction (stash-pressure recovery)
    # ------------------------------------------------------------------
    def _background_evict_pass(self, leaf: int) -> None:
        """Fetch + greedily write back one random path, no block served.

        The same fetch/writeback discipline as an access, minus the block
        removal and remap: stash blocks whose paths intersect the eviction
        path sink back into the tree, relieving stash pressure.
        """
        path = self.tree.path_indices(leaf)
        self._fetch_path_into_stash(path)
        self._writeback_path(path, leaf)
