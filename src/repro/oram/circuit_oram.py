"""Circuit ORAM (Wang, Chan, Shi), as configured by ZeroTrace/§V-A1.

Differences from Path ORAM that the paper leans on:

* the read path contributes only the *requested* block to the stash (not the
  whole path), so the stash stays ~15x smaller;
* eviction is metadata-driven: two deterministic reverse-lexicographic paths
  per access, each processed with the PrepareDeepest / PrepareTarget /
  EvictOnceFast single-sweep discipline, moving at most one block per level.
"""

from __future__ import annotations

import numpy as np

from repro.oblivious.trace import READ, WRITE
from repro.oram.controller import OramController
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
    def _settle(self, old_leaf: int) -> None:
        # Two deterministic evictions per access (reverse-lexicographic).
        del old_leaf
        for _ in range(2):
            self._deterministic_evict_pass()

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

    def _fetch(self, block_id: int, old_leaf: int) -> np.ndarray:
        """Sweep the read path once, extracting the requested block.

        Every bucket on the path is read and written back regardless of
        where the block actually lives (it may also be in the stash). Not
        ``_pull``: the one extracted block bypasses the stash, so there is
        no per-slot stash touch, and adding one would change the trace.
        """
        stash_hit = self.stash.remove(block_id)
        path = self.tree.path_indices(old_leaf)
        ids, leaves, payloads = self.tree.read_buckets(path)
        levels, slots = np.nonzero(ids == block_id)
        if levels.size:
            payload = payloads[levels[0], slots[0]].copy()
            ids[levels[0], slots[0]] = DUMMY
        else:
            payload = None if stash_hit is None else stash_hit[1]
        self._rewrite(path, ids, leaves, payloads)
        if payload is None:
            raise KeyError(f"block {block_id} not found — ORAM invariant broken")
        return payload

    def _rewrite(self, path, ids: np.ndarray, leaves: np.ndarray,
                 payloads: np.ndarray) -> None:
        """Write a gathered ``path`` back: the sweep it stands for reads and
        rewrites one bucket after the other."""
        self.tree.write_buckets(path, ids, leaves, payloads)
        self.tree._trace(READ + WRITE, path)
        self.stats.bucket_reads += len(path)
        self.stats.bucket_writes += len(path)

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
                   wanted=plan.unique_ids)

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
    def _evict_once(self, eviction_leaf: int) -> None:
        # Not ``_pull``/``_drain``: the metadata scan reads no payloads and
        # the write sweep moves at most one block per level past the stash
        # — routing either through the stash would change the trace. The
        # path is gathered once and serves both sweeps: nothing touches it
        # in between.
        tree, stash = self.tree, self.stash
        path = tree.path_indices(eviction_leaf)
        total = len(path) + 1               # +1: index 0 is the stash

        # -- metadata scan (one read sweep) --------------------------------
        # For each position i (0 = stash, i>=1 = tree level i-1): the deepest
        # legal level-index any resident block can reach on this path, and
        # (first among equals) the block that reaches it.
        stash_ids, stash_leaves, _ = stash.resident_blocks()
        ids, leaves, payloads = tree.read_buckets(path)
        tree._trace(READ, path)
        self.stats.bucket_reads += len(path)
        real = ids != DUMMY
        depth = np.where(real, tree.common_depth(leaves, eviction_leaf), -1)
        deepest_slot = depth.argmax(axis=1)
        deepest_block_goal = [_NONE] + [
            best + 1 if best >= 0 else _NONE
            for best in depth.max(axis=1).tolist()]
        has_empty = [False] + [not full for full in real.all(axis=1).tolist()]
        if stash_ids.size:
            stash_depth = tree.common_depth(stash_leaves, eviction_leaf)
            deepest_in_stash = int(stash_depth.argmax())
            deepest_block_goal[0] = int(stash_depth[deepest_in_stash]) + 1

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
            if ((dest == _NONE and has_empty[i]) or target[i] != _NONE) \
                    and deepest[i] != _NONE:
                src = deepest[i]
                dest = i

        # -- EvictOnceFast (one write sweep) ------------------------------
        # The stash take is two oblivious scans whether or not the stash
        # feeds the path this round, so the eviction's stash traffic is
        # pass-count constant.
        stash._scan_trace(READ)
        hold_block = None   # (id, leaf, payload)
        hold_dest = _NONE
        if target[0] != _NONE:
            block_id = int(stash_ids[deepest_in_stash])
            hold_block = (block_id, *stash.remove(block_id))
            hold_dest = target[0]
        else:
            stash._scan_trace(READ)
        for i in range(1, total):
            level = i - 1
            to_write = None
            if hold_block is not None and i == hold_dest:
                to_write = hold_block
                hold_block, hold_dest = None, _NONE
            if target[i] != _NONE:
                slot = deepest_slot[level]
                hold_block = (ids[level, slot], leaves[level, slot],
                              payloads[level, slot].copy())
                hold_dest = target[i]
                ids[level, slot] = DUMMY
            if to_write is not None:
                slot = int(np.argmax(ids[level] == DUMMY))
                ids[level, slot], leaves[level, slot] = to_write[:2]
                payloads[level, slot] = to_write[2]
        self._rewrite(path, ids, leaves, payloads)
