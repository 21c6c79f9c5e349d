"""Circuit ORAM (Wang, Chan, Shi), as configured by ZeroTrace/§V-A1.

Differences from Path ORAM that the paper leans on:

* the read path contributes only the *requested* block to the stash (not the
  whole path), so the stash stays ~15x smaller;
* eviction is metadata-driven: two deterministic reverse-lexicographic paths
  per access, each processed with the PrepareDeepest / PrepareTarget /
  EvictOnceFast single-sweep discipline, moving at most one block per level.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.oblivious.trace import READ
from repro.oram.controller import OramController, UpdateFn
from repro.oram.tree import DUMMY

_NONE = -10**9  # sentinel for "no level" in the eviction metadata passes


class CircuitORAM(OramController):
    """Tree ORAM with single-block reads and two-pass linear eviction."""

    DEFAULT_STASH = 10            # paper: stash size 10 for Circuit ORAM
    DEFAULT_RECURSION_CUTOFF = 1 << 12  # paper: recursion beyond 2^12 blocks
    SUPPORTS_LOOKAHEAD = True
    scheme = "circuit"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _access_impl(self, block_id: int, old_leaf: int, new_leaf: int,
                     update_fn: Optional[UpdateFn]) -> np.ndarray:
        payload = self._read_and_remove(block_id, old_leaf)
        result = payload.copy()
        self.stash.add(block_id, new_leaf, self._updated(update_fn, payload))

        # Two deterministic evictions per access (reverse-lexicographic).
        for _ in range(2):
            self._deterministic_evict_pass()

        self._check_stash_bound()
        return result

    def _deterministic_evict_pass(self) -> None:
        """One reverse-lexicographic eviction pass (the per-access schedule)."""
        self._evict_once(self._next_eviction_leaf())
        self.stats.eviction_passes += 1

    def _background_evict_pass(self, leaf: int) -> None:
        """Request-free stash drain: continue the reverse-lex schedule.

        Circuit ORAM's eviction is metadata-driven and moves at most one
        block per level, so recovery from stash pressure simply runs extra
        passes of the same deterministic schedule (``leaf`` is ignored —
        the schedule, not randomness, picks the path; the base class does
        the ``eviction_passes`` accounting).
        """
        del leaf
        self._evict_once(self._next_eviction_leaf())

    def _read_and_remove(self, block_id: int, old_leaf: int) -> np.ndarray:
        """Sweep the read path once, extracting the requested block.

        Every bucket on the path is read and written back regardless of
        where the block actually lives (it may also be in the stash). Not
        ``_pull``: the one extracted block bypasses the stash, so there is
        no per-slot stash touch, and adding one would change the trace.
        """
        payload: Optional[np.ndarray] = None
        stash_hit = self.stash.remove(block_id)
        if stash_hit is not None:
            payload = stash_hit[1]
        for bucket in self.tree.path_indices(old_leaf):
            ids, leaves, payloads = self.tree.read_bucket(bucket)
            self.stats.bucket_reads += 1
            matches = np.nonzero(ids == block_id)[0]
            if matches.size:
                slot = int(matches[0])
                payload = payloads[slot].copy()
                ids[slot] = DUMMY
            self.tree.write_bucket(bucket, ids, leaves, payloads)
            self.stats.bucket_writes += 1
        if payload is None:
            raise KeyError(f"block {block_id} not found — ORAM invariant broken")
        return payload

    # ------------------------------------------------------------------
    # Batched lookahead hooks (see repro.oram.lookahead)
    # ------------------------------------------------------------------
    def _lookahead_reserve(self, plan) -> None:
        # The extracting fetch adds at most one block per unique id on top
        # of the usual transient path allowance.
        self.stash.grow(self.persistent_stash_capacity
                        + self.bucket_size * (self.tree.levels + 1)
                        + plan.batch_size)

    def _lookahead_fetch(self, plan) -> None:
        """One read+write sweep per scheduled bucket, extracting every
        requested block (and only those) into the stash."""
        self._pull([bucket for level in plan.schedule for bucket in level],
                   wanted=set(plan.unique_ids))

    def _lookahead_writeback(self, plan) -> int:
        """The per-access eviction budget, fused: two deterministic
        reverse-lexicographic passes per batched access, all run after the
        whole batch has been served."""
        passes = 2 * plan.batch_size
        for _ in range(passes):
            self._deterministic_evict_pass()
        return passes

    # ------------------------------------------------------------------
    # Eviction (PrepareDeepest / PrepareTarget / EvictOnceFast)
    # ------------------------------------------------------------------
    def _legal_depth(self, block_leaf: int, eviction_leaf: int) -> int:
        """Deepest tree level where a block with ``block_leaf`` may live."""
        return self.tree.common_depth(block_leaf, eviction_leaf)

    def _evict_once(self, eviction_leaf: int) -> None:
        # Not ``_pull``/``_drain``: the metadata scan reads no payloads and
        # the write sweep moves at most one block per level past the stash
        # — routing either through the stash would change the trace.
        path = self.tree.path_indices(eviction_leaf)
        depth_levels = len(path)            # tree levels 0..L
        total = depth_levels + 1            # +1: index 0 is the stash

        # -- metadata scan (one read sweep) --------------------------------
        # For each position i (0 = stash, i>=1 = tree level i-1): the deepest
        # legal level-index any resident block can reach on this path.
        bucket_meta: List[tuple] = []
        deepest_block_goal = [_NONE] * total
        stash_blocks = self.stash.resident_blocks()
        if stash_blocks:
            deepest_block_goal[0] = max(
                self._legal_depth(leaf, eviction_leaf) + 1
                for _, leaf, _ in stash_blocks)
        for i in range(1, total):
            ids, leaves = self.tree.read_bucket_metadata(path[i - 1])
            self.stats.bucket_reads += 1
            bucket_meta.append((ids, leaves))
            real = np.nonzero(ids != DUMMY)[0]
            if real.size:
                deepest_block_goal[i] = max(
                    self._legal_depth(int(leaves[slot]), eviction_leaf) + 1
                    for slot in real)

        # -- PrepareDeepest -------------------------------------------------
        deepest = [_NONE] * total  # deepest[i]: source position feeding level i
        src, goal = _NONE, _NONE
        if deepest_block_goal[0] != _NONE:
            src, goal = 0, deepest_block_goal[0]
        for i in range(1, total):
            if goal >= i:
                deepest[i] = src
            if deepest_block_goal[i] > goal:
                goal = deepest_block_goal[i]
                src = i

        # -- PrepareTarget ----------------------------------------------
        target = [_NONE] * total
        dest, src = _NONE, _NONE
        for i in range(total - 1, -1, -1):
            if i == src:
                target[i] = dest
                dest, src = _NONE, _NONE
            has_empty = (i >= 1 and
                         bool((bucket_meta[i - 1][0] == DUMMY).any()))
            if ((dest == _NONE and has_empty) or target[i] != _NONE) \
                    and deepest[i] != _NONE:
                src = deepest[i]
                dest = i

        # -- EvictOnceFast (one write sweep) ------------------------------
        hold_block = None   # (id, leaf, payload)
        hold_dest = _NONE
        for i in range(total):
            to_write = None
            if hold_block is not None and i == hold_dest:
                to_write = hold_block
                hold_block, hold_dest = None, _NONE
            if i == 0:
                if target[0] != _NONE:
                    hold_block = self._take_deepest_from_stash(eviction_leaf)
                    hold_dest = target[0]
                else:
                    # Dummy take: the same two oblivious scans as a real
                    # take, so the eviction's stash traffic is pass-count
                    # constant regardless of whether the stash feeds the
                    # path this round.
                    self.stash._scan_trace(READ)
                    self.stash._scan_trace(READ)
                continue
            bucket = path[i - 1]
            ids, leaves, payloads = self.tree.read_bucket(bucket)
            self.stats.bucket_reads += 1
            if target[i] != _NONE:
                slot = self._deepest_slot(ids, leaves, eviction_leaf)
                hold_block = (int(ids[slot]), int(leaves[slot]),
                              payloads[slot].copy())
                hold_dest = target[i]
                ids[slot] = DUMMY
            if to_write is not None:
                free = np.nonzero(ids == DUMMY)[0]
                slot = int(free[0])
                ids[slot], leaves[slot] = to_write[0], to_write[1]
                payloads[slot] = to_write[2]
            self.tree.write_bucket(bucket, ids, leaves, payloads)
            self.stats.bucket_writes += 1

    def _take_deepest_from_stash(self, eviction_leaf: int):
        """Remove the stash block that can sink deepest on the eviction path."""
        blocks = self.stash.resident_blocks()
        best = max(blocks,
                   key=lambda blk: self._legal_depth(blk[1], eviction_leaf))
        self.stash.remove(best[0])
        return best

    def _deepest_slot(self, ids: np.ndarray, leaves: np.ndarray,
                      eviction_leaf: int) -> int:
        """Slot index of the bucket block that can sink deepest."""
        real = np.nonzero(ids != DUMMY)[0]
        return int(max(real, key=lambda slot: self._legal_depth(
            int(leaves[slot]), eviction_leaf)))
