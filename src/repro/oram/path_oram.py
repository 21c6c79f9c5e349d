"""Path ORAM (Stefanov et al.), as configured by ZeroTrace/§V-A1.

Every access fetches the whole path assigned to the block into the stash,
returns the block (remapped to a fresh random leaf), then writes the path
back greedily from the leaf upward, pushing stash blocks as deep as their
assigned leaves allow.
"""

from __future__ import annotations

import numpy as np

from repro.oram.controller import OramController


class PathORAM(OramController):
    """Tree ORAM with full-path read/writeback per access."""

    DEFAULT_STASH = 150           # paper: stash size 150 for Path ORAM
    DEFAULT_RECURSION_CUTOFF = 1 << 16  # paper: recursion beyond 2^16 blocks
    SUPPORTS_LOOKAHEAD = True

    def _fetch(self, block_id: int, old_leaf: int) -> np.ndarray:
        # The entire path goes into the stash; the block must then be there.
        self._pull(self.tree.path_indices(old_leaf))
        found = self.stash.remove(block_id)
        if found is None:
            raise KeyError(f"block {block_id} not found — ORAM invariant broken")
        return found[1]

    def _settle(self, old_leaf: int) -> None:
        # Write the path back greedily.
        self._drain([[bucket] for bucket in self.tree.path_indices(old_leaf)])

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
        self._pull([bucket for level in plan.schedule for bucket in level])

    def _lookahead_writeback(self, plan) -> int:
        """Fused greedy write-back: one deepest-first sweep over the
        schedule, each bucket written exactly once."""
        self._drain(plan.schedule)
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
        self._pull(self.tree.path_indices(leaf))
        self._settle(leaf)
