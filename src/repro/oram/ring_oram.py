"""Ring ORAM (Ren et al.) — the bandwidth-optimised tree ORAM (extension).

The paper evaluates Path and Circuit ORAM and notes other proposals exist
(§VII). Ring ORAM is the canonical third point in that design space: reads
fetch **one slot per bucket** (instead of whole buckets) because buckets
carry ``S`` dummy slots consumed one per touch, with periodic evictions and
per-bucket early reshuffles restoring the invariant. This implementation
models that protocol faithfully enough to compare bandwidth/stash behaviour
against Path/Circuit in the ablation bench:

* each bucket holds ``Z`` real + ``S`` dummy slots and a touch counter;
* ReadPath touches exactly one payload slot per bucket (the target where it
  lives, a fresh dummy elsewhere), then invalidates it;
* every ``A`` accesses an EvictPath runs on the reverse-lexicographic path
  (read all valid reals, greedy writeback, reset counters);
* a bucket touched ``S`` times since its last write is early-reshuffled.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.oblivious.trace import WRITE
from repro.oram.controller import OramController
from repro.oram.tree import DUMMY
from repro.utils.validation import check_positive


class RingORAM(OramController):
    """Tree ORAM with single-slot bucket reads and batched evictions."""

    DEFAULT_STASH = 80
    DEFAULT_RECURSION_CUTOFF = 1 << 16
    scheme = "ring"

    def __init__(self, num_blocks: int, block_width: int,
                 initial_payloads: Optional[np.ndarray] = None,
                 bucket_reals: int = 4, bucket_dummies: int = 4,
                 evict_rate: int = 4, **kwargs) -> None:
        check_positive("bucket_reals", bucket_reals)
        check_positive("bucket_dummies", bucket_dummies)
        check_positive("evict_rate", evict_rate)
        # Only the Z real slots of a bucket take blocks, at initial
        # placement and on every write-back alike.
        self.bucket_reals = self.real_slots = bucket_reals
        self.bucket_dummies = bucket_dummies
        self.evict_rate = evict_rate
        self._access_counter = 0
        # Recursive position-map construction passes bucket_size through the
        # generic factory; Ring derives its own (Z + S), so drop it.
        kwargs.pop("bucket_size", None)
        super().__init__(num_blocks, block_width,
                         initial_payloads=initial_payloads,
                         bucket_size=bucket_reals + bucket_dummies,
                         **kwargs)
        # Per-slot validity (unconsumed since last bucket write) and
        # per-bucket touch counters — the client-side Ring metadata.
        self._valid = np.ones((self.tree.num_buckets, self.bucket_size),
                              dtype=bool)
        self._touches = np.zeros(self.tree.num_buckets, dtype=np.int64)

    # ------------------------------------------------------------------
    # Access protocol
    # ------------------------------------------------------------------
    def _settle(self, old_leaf: int) -> None:
        del old_leaf
        self._access_counter += 1
        if self._access_counter % self.evict_rate == 0:
            self._evict_path(self._next_eviction_leaf())
            self.stats.eviction_passes += 1

        # Early reshuffle any bucket whose dummies are exhausted.
        for bucket in np.nonzero(self._touches >= self.bucket_dummies)[0]:
            self._reshuffle_bucket(int(bucket))

    def _fetch(self, block_id: int, leaf: int) -> np.ndarray:
        """One payload-slot touch per bucket along the path."""
        payload: Optional[np.ndarray] = None
        stash_hit = self.stash.remove(block_id)
        if stash_hit is not None:
            payload = stash_hit[1]
        for bucket in self.tree.path_indices(leaf):
            ids, _ = self.tree.read_bucket_metadata(bucket)
            valid = self._valid[bucket]
            target_slots = np.nonzero((ids == block_id) & valid)[0]
            # Exactly one payload-slot read, whatever it held.
            if payload is None and target_slots.size:
                slot = int(target_slots[0])
                payload = self.tree.read_slot(bucket, slot)
            else:
                slot = self._fresh_dummy_slot(bucket, ids)
                self.tree.read_slot(bucket, slot)
            self.stats.bucket_reads += 1
            self._valid[bucket, slot] = False
            self._touches[bucket] += 1
        if payload is None:
            raise KeyError(f"block {block_id} not found — ORAM invariant broken")
        return payload

    def _fresh_dummy_slot(self, bucket: int, ids: np.ndarray) -> int:
        """A valid slot not holding a live real block (prefer true dummies)."""
        valid = self._valid[bucket]
        dummies = np.nonzero(valid & (ids == DUMMY))[0]
        if dummies.size:
            return int(self.rng.choice(dummies))
        self._reshuffle_bucket(bucket)
        ids = self.tree.ids[bucket]
        dummies = np.nonzero(self._valid[bucket] & (ids == DUMMY))[0]
        return int(self.rng.choice(dummies))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _read_bucket(self, bucket: int):
        """One full-bucket read: (ids, leaves, payloads, live), ``live``
        marking the slots that hold a valid real block (not a dummy or a
        consumed slot)."""
        ids, leaves, payloads = self.tree.read_bucket(bucket)
        self.stats.bucket_reads += 1
        return ids, leaves, payloads, (ids != DUMMY) & self._valid[bucket]

    def _write_bucket(self, bucket: int, ids: np.ndarray, leaves: np.ndarray,
                      payloads: np.ndarray) -> None:
        """Install up to Z real blocks, refresh dummies/validity/counter."""
        super()._write_bucket(bucket, ids, leaves, payloads)
        self._valid[bucket] = True
        self._touches[bucket] = 0

    def _reshuffle_bucket(self, bucket: int) -> None:
        """Early reshuffle: rewrite a bucket whose dummies ran out."""
        ids, leaves, payloads, live = self._read_bucket(bucket)
        self._write_bucket(bucket, ids[live], leaves[live], payloads[live])

    def _evict_path(self, leaf: int) -> None:
        """Path-ORAM-style eviction of the reverse-lex path.

        Stash traffic is a function of the path length only: one scan per
        bucket slot on the way in (dummy and consumed slots included) and
        one per bucket on the way out, however many blocks are live or
        eligible.
        """
        path = self.tree.path_indices(leaf)
        # Not ``_pull``: moving a block out is clearing its validity bit,
        # and the bucket is written once, by the drain — a write-back here
        # would add a bucket write to the trace.
        for bucket in path:
            ids, leaves, payloads, live = self._read_bucket(bucket)
            self.stash._place(ids[live], leaves[live], payloads[live])
            self.stash._scan_trace(WRITE, self.bucket_size)
            self._valid[bucket] = False  # everything moved out
        self._drain([[bucket] for bucket in path])

    # ------------------------------------------------------------------
    def total_resident_blocks(self) -> int:
        live = (self.tree.ids != DUMMY) & self._valid
        return int(live.sum()) + self.stash.occupancy
