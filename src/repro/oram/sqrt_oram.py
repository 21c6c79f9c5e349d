"""Square-root ORAM (Goldreich–Ostrovsky, OTRO-style) for small hot tables.

The tree ORAMs in this package pay a log-depth path per access; the
square-root construction instead pays a constant-size scan per access and
amortises a full reshuffle every √n accesses — the right trade for small,
extremely hot tables such as a tokenizer vocabulary (OTRO applies exactly
this scheme to close the token-boundary leak upstream of the model).

Layout: the n real blocks plus m = ⌈√n⌉ dummy blocks live in one
*permuted store*; a client-side **shelter** of m slots (the standing
:class:`~repro.oram.stash.Stash`, scanned obliviously) holds every block
touched since the last shuffle. One access is always the same five moves:

1. position-map scan (``FlatPositionMap.lookup`` — full R+W sweep);
2. shelter scan (:meth:`Stash.peek` — full read sweep);
3. exactly one store read — the block's permuted slot on a shelter miss,
   the next *unused dummy* slot on a hit;
4. one shelter write sweep (add on miss, in-place update on hit);
5. after m accesses: a full reshuffle (read sweep → fresh permutation →
   write sweep), shelter folded back in, position map rewritten.

Why this is oblivious: steps 1, 2, 4 and 5 touch fixed address sets in a
fixed order, and step 3 reveals each permuted slot **at most once per
period** — a fresh uniform sample under the secret permutation, whatever
the logical access sequence. The per-access (op, region) sequence is a
constant, so the memory trace audits in *structural* mode like the tree
schemes, while decision traces layered on top (the tokenizer's) audit
exact. ``SUPPORTS_LOOKAHEAD`` stays False: batched access falls back to
the sequential loop through the standing ``oram.lookahead`` decision
trace, value-identical to per-access calls (pinned next to Ring's
fallback test).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.controller import AccessStats, OramController, UpdateFn
from repro.oram.position_map import FlatPositionMap
from repro.oram.stash import Stash
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


class SqrtORAM(OramController):
    """Permuted store + oblivious shelter + periodic reshuffle."""

    SUPPORTS_LOOKAHEAD = False

    def __init__(self, num_blocks: int, block_width: int,
                 initial_payloads: Optional[np.ndarray] = None,
                 stash_capacity: Optional[int] = None,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None,
                 region_prefix: str = "") -> None:
        # Deliberately does NOT call the tree-based ``super().__init__``:
        # there is no bucket tree. Only the controller contract is kept —
        # stats/stash/tracer/rng attributes, ``access``'s telemetry shape,
        # and the sequential ``access_batch`` fallback.
        check_positive("num_blocks", num_blocks)
        check_positive("block_width", block_width)
        self.num_blocks = num_blocks
        self.block_width = block_width
        self.rng = new_rng(rng)
        self.tracer = tracer
        self.stats = AccessStats()

        prefix = region_prefix or "sqrtoram"
        self.store_region = f"{prefix}.store"
        #: dummy count == shelter period == ⌈√n⌉ (the classic sizing)
        self.num_dummies = int(math.ceil(math.sqrt(num_blocks)))
        self.period = self.num_dummies
        # The shelter holds at most one block per access between shuffles,
        # so ⌈√n⌉ persistent slots suffice; a caller-supplied bound only
        # ever grows it (matching the tree controllers' constructor).
        self.persistent_stash_capacity = max(self.num_dummies,
                                             stash_capacity or 0)
        self.stash = Stash(self.persistent_stash_capacity, block_width,
                           tracer=tracer, region=f"{prefix}.shelter")

        if initial_payloads is None:
            initial_payloads = np.zeros((num_blocks, block_width))
        initial_payloads = np.asarray(initial_payloads, dtype=np.float64)
        if initial_payloads.shape != (num_blocks, block_width):
            raise ValueError(
                f"initial payloads shape {initial_payloads.shape} != "
                f"({num_blocks}, {block_width})")
        total = num_blocks + self.num_dummies
        #: permutation: logical index (block id, or n+k for dummy k) → slot
        self._perm = self.rng.permutation(total).astype(np.int64)
        self._store = np.zeros((total, block_width), dtype=np.float64)
        self._store[self._perm[:num_blocks]] = initial_payloads
        self.position_map = FlatPositionMap(
            self._perm[:num_blocks], tracer=tracer,
            region=f"{prefix}.posmap")
        self._next_dummy = 0
        self._accesses_in_period = 0

    # ------------------------------------------------------------------
    # Store I/O (the addresses the attacker sees)
    # ------------------------------------------------------------------
    def _read_store(self, slot: int) -> np.ndarray:
        if self.tracer is not None:
            self.tracer.record(READ, self.store_region, slot)
        self.stats.bucket_reads += 1
        return self._store[slot].copy()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, block_id: int,
               update_fn: Optional[UpdateFn] = None) -> np.ndarray:
        """One square-root ORAM access; returns the pre-update payload."""
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block {block_id} out of range for ORAM of "
                f"{self.num_blocks} blocks")
        with self._metered("oram.access", level=0):
            return self._sqrt_access(block_id, update_fn)

    def _sqrt_access(self, block_id: int,
                     update_fn: Optional[UpdateFn]) -> np.ndarray:
        slot = self.position_map.lookup(block_id)
        held = self.stash.peek(block_id)
        if held is None:
            fetch_slot = slot
        else:
            # Already sheltered: burn the next unused dummy slot so the
            # store still sees exactly one fresh read.
            fetch_slot = int(self._perm[self.num_blocks + self._next_dummy])
            self._next_dummy += 1
        fetched = self._read_store(fetch_slot)
        value = fetched if held is None else held[1]
        result = value.copy()
        value = self._updated(update_fn, value)
        if held is None:
            self.stash.add(block_id, slot, value)
        else:
            self.stash.update(block_id, leaf=slot, payload=value)
        self.stats.accesses += 1
        self.stats.revealed_leaves.append(fetch_slot)
        self._accesses_in_period += 1
        self._check_stash_bound()
        if self._accesses_in_period >= self.period:
            self._reshuffle()
        return result

    # ------------------------------------------------------------------
    # Reshuffle (every ⌈√n⌉ accesses — a pure function of access count)
    # ------------------------------------------------------------------
    def _reshuffle(self) -> None:
        """Full read sweep → fresh permutation → full write sweep.

        The shelter's copies win over the store's stale ones; afterwards
        the shelter is empty, the dummy counter resets, and the position
        map is rewritten in one data-independent sweep.
        """
        total = self.num_blocks + self.num_dummies
        contents = np.zeros((self.num_blocks, self.block_width))
        if self.tracer is not None:
            self.tracer.record_sweep(self.store_region, total, READ)
        self.stats.bucket_reads += total
        contents[:] = self._store[self._perm[:self.num_blocks]]
        sheltered, _leaves, payloads = self.stash.evict_matching(
            lambda leaves: True)
        contents[sheltered] = payloads
        self._perm = self.rng.permutation(total).astype(np.int64)
        new_store = np.zeros_like(self._store)
        new_store[self._perm[:self.num_blocks]] = contents
        if self.tracer is not None:
            self.tracer.record_sweep(self.store_region, total, WRITE)
        self.stats.bucket_writes += total
        self._store = new_store
        self.position_map.rewrite(self._perm[:self.num_blocks])
        self._next_dummy = 0
        self._accesses_in_period = 0
        self.stats.eviction_passes += 1
        get_registry().counter("oram.reshuffles_total").inc()

    # ------------------------------------------------------------------
    # Controller-contract overrides that assumed a bucket tree
    # ------------------------------------------------------------------
    def background_evict(self, passes: int = 1) -> int:
        """Reshuffle early — the square-root analogue of an eviction pass.

        The shuffle point moves, but only as a function of *when* the
        caller asked, never of which blocks are resident, so the schedule
        stays secret-independent. One shuffle empties the shelter
        entirely; extra passes are no-ops on occupancy.
        """
        check_positive("passes", passes)
        registry = get_registry()
        with registry.span("oram.background_evict", passes=passes,
                           scheme=type(self).__name__):
            self._reshuffle()
        registry.counter("oram.background_evictions_total").inc(passes)
        registry.gauge("oram.stash_occupancy").set(self.stash.occupancy)
        return self.stash.occupancy

    def total_resident_blocks(self) -> int:
        return self.num_blocks

    def memory_blocks(self) -> int:
        """Physical slots: permuted store (n + ⌈√n⌉ dummies) + shelter."""
        return int(self._store.shape[0]) + self.stash.capacity

    @property
    def levels(self) -> int:
        """No tree: depth 0 (kept so generic introspection doesn't trip)."""
        return 0
