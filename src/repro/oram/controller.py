"""Shared controller machinery for the tree-based ORAMs (§IV-A2).

Path, Circuit and Ring ORAM subclass :class:`OramController`, which owns
the bucket tree, the stash, the (possibly recursive) position map, access
statistics, the public ``read``/``write``/``access`` API and the two block
movers between tree and stash (:meth:`_pull`, :meth:`_drain`). Subclasses
implement :meth:`_fetch` and :meth:`_settle` from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.position_map import FlatPositionMap, OramPositionMap, PositionMap
from repro.oram.stash import Stash, StashOverflowError
from repro.oram.tree import DUMMY, BucketTree, bit_reverse
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive

UpdateFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class AccessStats:
    """Counters describing the work done by the ORAM so far."""

    accesses: int = 0
    bucket_reads: int = 0
    bucket_writes: int = 0
    eviction_passes: int = 0
    stash_overflows: int = 0
    revealed_leaves: list = field(default_factory=list)

    def reset(self) -> None:
        self.accesses = 0
        self.bucket_reads = 0
        self.bucket_writes = 0
        self.eviction_passes = 0
        self.stash_overflows = 0
        self.revealed_leaves.clear()


class OramController:
    """Base class: tree + stash + position map + statistics."""

    #: subclass-specific defaults (paper §V-A1 / ZeroTrace configuration)
    DEFAULT_STASH = 150
    DEFAULT_RECURSION_CUTOFF = 1 << 16
    #: schemes with a batched lookahead mode (see repro.oram.lookahead)
    SUPPORTS_LOOKAHEAD = False
    #: the name the analytic models (repro.costmodel) price this scheme
    #: under; a scheme that sets none is priced as Path ORAM
    scheme = "path"
    #: slots per bucket that may hold real blocks (``None``: all of them)
    real_slots: Optional[int] = None

    def __init__(self, num_blocks: int, block_width: int,
                 initial_payloads: Optional[np.ndarray] = None,
                 bucket_size: int = 4,
                 stash_capacity: Optional[int] = None,
                 recursion_cutoff: Optional[int] = None,
                 pack_factor: int = 1,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None,
                 region_prefix: str = "",
                 _recursion_level: int = 0) -> None:
        check_positive("num_blocks", num_blocks)
        check_positive("block_width", block_width)
        check_positive("pack_factor", pack_factor)
        if pack_factor > bucket_size:
            raise ValueError(
                f"pack_factor {pack_factor} cannot exceed bucket_size "
                f"{bucket_size} (the tree could not hold all blocks)")
        self.num_blocks = num_blocks
        self.block_width = block_width
        self.bucket_size = bucket_size
        # pack_factor > 1 shrinks the tree toward ZeroTrace's sizing
        # (leaves ~ n/Z): smaller memory, higher utilisation, more stash
        # pressure. pack_factor = 1 is the classic one-leaf-per-block tree.
        self.pack_factor = pack_factor
        self.rng = new_rng(rng)
        self.tracer = tracer
        self.stats = AccessStats()
        self.recursion_cutoff = (recursion_cutoff if recursion_cutoff is not None
                                 else self.DEFAULT_RECURSION_CUTOFF)
        self._recursion_level = _recursion_level
        self._eviction_counter = 0

        prefix = region_prefix or self.__class__.__name__.lower()
        sized_blocks = (num_blocks + pack_factor - 1) // pack_factor
        self.tree = BucketTree(sized_blocks, block_width,
                               bucket_size=bucket_size, tracer=tracer,
                               region=f"{prefix}.tree{_recursion_level}")
        # The configured stash bound counts blocks resident *between* accesses
        # (ZeroTrace convention); during an access up to a full path of blocks
        # is transiently held as well, so the physical buffer is sized for both.
        self.persistent_stash_capacity = stash_capacity or self.DEFAULT_STASH
        transient = bucket_size * (self.tree.levels + 1)
        self.stash = Stash(self.persistent_stash_capacity + transient, block_width,
                           tracer=tracer, region=f"{prefix}.stash{_recursion_level}")

        initial_leaves = self.rng.integers(0, self.tree.num_leaves,
                                           size=num_blocks, dtype=np.int64)
        self.position_map = self._build_position_map(initial_leaves, prefix)
        self._load(initial_payloads, initial_leaves)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_position_map(self, initial_leaves: np.ndarray,
                            prefix: str) -> PositionMap:
        if self.num_blocks <= self.recursion_cutoff:
            return FlatPositionMap(
                initial_leaves, tracer=self.tracer,
                region=f"{prefix}.posmap{self._recursion_level}")

        def factory(num_chunks: int, width: int,
                    payloads: np.ndarray) -> "OramController":
            return type(self)(
                num_chunks, width, initial_payloads=payloads,
                bucket_size=self.bucket_size,
                recursion_cutoff=self.recursion_cutoff,
                rng=self.rng, tracer=self.tracer, region_prefix=prefix,
                _recursion_level=self._recursion_level + 1)

        return OramPositionMap(initial_leaves, factory)

    def _load(self, payloads: Optional[np.ndarray],
              leaves: np.ndarray) -> None:
        if payloads is None:
            payloads = np.zeros((self.num_blocks, self.block_width))
        payloads = np.asarray(payloads, dtype=np.float64)
        if payloads.shape != (self.num_blocks, self.block_width):
            raise ValueError(
                f"initial payloads shape {payloads.shape} != "
                f"({self.num_blocks}, {self.block_width})")
        for block_id in range(self.num_blocks):
            leaf = int(leaves[block_id])
            if not self.tree.place_initial(block_id, leaf, payloads[block_id],
                                           self.real_slots):
                self.stash.add(block_id, leaf, payloads[block_id])

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, block_id: int, update_fn: Optional[UpdateFn] = None) -> np.ndarray:
        """One ORAM access: fetch ``block_id``, optionally update, remap.

        Returns the payload *before* ``update_fn`` was applied.
        """
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block {block_id} out of range for ORAM of {self.num_blocks} blocks")
        with self._metered("oram.access", level=self._recursion_level):
            new_leaf = int(self.rng.integers(0, self.tree.num_leaves))
            old_leaf = self.position_map.lookup_and_update(block_id, new_leaf)
            self.stats.accesses += 1
            self.stats.revealed_leaves.append(old_leaf)
            payload = self._fetch(block_id, old_leaf)
            result = payload.copy()
            try:
                payload = self._updated(update_fn, payload)
            finally:
                # Atomic under a raising ``update_fn``: the block goes back
                # with its old payload and its remap, and the write-back
                # runs as for any access, before the error propagates.
                self.stash.add(block_id, new_leaf, payload)
                self._settle(old_leaf)
                self._check_stash_bound()
            return result

    @contextmanager
    def _metered(self, span: str, accesses: int = 1, **labels):
        """Run ``accesses`` accesses under one telemetry span.

        Work counters and stash gauges are flushed even when the body
        raises (e.g. StashOverflowError) so monitoring sees the state that
        caused the failure, not the state before it.
        """
        registry = get_registry()
        reads_before = self.stats.bucket_reads
        writes_before = self.stats.bucket_writes
        evictions_before = self.stats.eviction_passes
        try:
            with registry.span(span, scheme=type(self).__name__, **labels):
                yield
        finally:
            registry.counter("oram.accesses_total").inc(accesses)
            registry.counter("oram.bucket_reads_total").inc(
                self.stats.bucket_reads - reads_before)
            registry.counter("oram.bucket_writes_total").inc(
                self.stats.bucket_writes - writes_before)
            registry.counter("oram.eviction_passes_total").inc(
                self.stats.eviction_passes - evictions_before)
            registry.gauge("oram.stash_occupancy").set(self.stash.occupancy)
            registry.gauge("oram.stash_peak_occupancy").set_max(
                self.stash.peak_occupancy)

    def access_batch(self, block_ids, update_fns=None,
                     plan_tracer: Optional[MemoryTracer] = None
                     ) -> np.ndarray:
        """Serve a whole batch of accesses known up front (LAORAM-style).

        Value-identical to looping :meth:`access` over the batch —
        duplicates return/update in arrival order with one shared fetch.
        Schemes with ``SUPPORTS_LOOKAHEAD`` share path fetches, fuse
        write-backs, and batch the position-map pass; others fall back to
        the sequential loop (no amortization, same semantics). Returns the
        pre-update payloads, shape ``(batch, block_width)``. The
        ``oram.lookahead`` decision trace is recorded to ``plan_tracer``
        (default: the controller's tracer).
        """
        from repro.oram import lookahead

        if self.SUPPORTS_LOOKAHEAD:
            return lookahead.lookahead_access_batch(
                self, block_ids, update_fns, plan_tracer)
        ids, fns, tracer = lookahead.batch_args(
            self, block_ids, update_fns, plan_tracer)
        if not ids:
            return np.zeros((0, self.block_width))
        results = []
        for slot, block_id in enumerate(ids):
            if tracer is not None:
                tracer.record("R", lookahead.LOOKAHEAD_REGION,
                              lookahead.ADDR_FETCH + slot)
            results.append(self.access(block_id, fns[slot]))
        return np.stack(results)

    def position_map_ops(self) -> int:
        """Memory operations spent in the position map so far — the work
        the batched lookahead pass amortizes across a batch."""
        return self.position_map.work_ops()

    def read(self, block_id: int) -> np.ndarray:
        return self.access(block_id)

    def write(self, block_id: int, payload: np.ndarray) -> None:
        payload = np.asarray(payload, dtype=np.float64)
        if payload.shape != (self.block_width,):
            raise ValueError(
                f"payload shape {payload.shape} != ({self.block_width},)")
        self.access(block_id, lambda _old: payload)

    # ------------------------------------------------------------------
    # Stash-pressure handling: the overflow signal and background eviction
    # ------------------------------------------------------------------
    def _check_stash_bound(self) -> None:
        """Enforce the persistent stash bound.

        The bound counts blocks resident *between* accesses. On violation
        the overflow is counted (``stats.stash_overflows`` and the
        ``oram.stash_overflows_total`` telemetry counter) and
        StashOverflowError propagates — the caller decides between
        :meth:`background_evict` recovery and degradation.
        """
        occupancy = self.stash.occupancy
        if occupancy <= self.persistent_stash_capacity:
            return
        self.stats.stash_overflows += 1
        get_registry().counter("oram.stash_overflows_total").inc()
        raise StashOverflowError(
            f"stash occupancy {occupancy} exceeds the configured "
            f"bound {self.persistent_stash_capacity}")

    def background_evict(self, passes: int = 1) -> int:
        """Drain stash pressure without serving a request (LAORAM-style).

        Runs ``passes`` eviction passes along random paths. The paths are
        drawn from the controller's own RNG — independent of any block
        identity — so background eviction is as access-pattern-oblivious as
        a regular access. Returns the stash occupancy afterwards.
        """
        check_positive("passes", passes)
        registry = get_registry()
        with registry.span("oram.background_evict", passes=passes,
                           scheme=type(self).__name__):
            for _ in range(passes):
                leaf = int(self.rng.integers(0, self.tree.num_leaves))
                self._background_evict_pass(leaf)
                self.stats.eviction_passes += 1
        registry.counter("oram.background_evictions_total").inc(passes)
        registry.gauge("oram.stash_occupancy").set(self.stash.occupancy)
        registry.gauge("oram.stash_peak_occupancy").set_max(
            self.stash.peak_occupancy)
        return self.stash.occupancy

    def _background_evict_pass(self, leaf: int) -> None:
        """One request-free eviction pass along the path to ``leaf``."""
        raise NotImplementedError

    def _next_eviction_leaf(self) -> int:
        """Advance the deterministic reverse-lexicographic eviction order."""
        leaf = bit_reverse(self._eviction_counter % self.tree.num_leaves,
                           self.tree.levels)
        self._eviction_counter += 1
        return leaf

    # ------------------------------------------------------------------
    # Block movers: every tree <-> stash transfer of a whole bucket
    # ------------------------------------------------------------------
    def _pull(self, buckets, wanted=None) -> None:
        """Move the real blocks of ``buckets`` — only those whose id is in
        ``wanted`` when given — into the stash.

        One gather, one scatter into the stash's first free slots and one
        write-back of the buckets without the moved blocks; a stash too
        full for them raises before anything moves. The protocol this
        stands for reads a bucket, touches the stash once per slot whether
        or not it is moved (dummies included, so stash traffic is
        slot-count constant) and writes the bucket back before the next:
        the events are declared in that order.
        """
        ids, leaves, payloads = self.tree.read_buckets(buckets)
        moved = ids != DUMMY
        if wanted is not None:
            moved &= np.isin(ids, wanted)
        self.stash._place(ids[moved], leaves[moved], payloads[moved])
        ids[moved] = DUMMY
        self.tree.write_buckets(buckets, ids, leaves, payloads)
        self.stats.bucket_reads += len(buckets)
        self.stats.bucket_writes += len(buckets)
        if self.tracer is not None:
            for bucket in buckets:
                self.tree._trace(READ, (bucket,))
                self.stash._scan_trace(WRITE, self.bucket_size)
                self.tree._trace(WRITE, (bucket,))

    def _drain(self, schedule) -> None:
        """Write back ``schedule`` (the buckets to fill, per tree level),
        deepest level first, greedily draining the stash of the blocks
        whose assigned path runs through each bucket.

        One stash scan per bucket however many blocks are eligible: taking
        all and re-adding the overflow would make the trace length follow
        the (secret-dependent) overflow count.
        """
        bucket_at = self.tree.bucket_at
        limit = self.real_slots or self.bucket_size
        for level in range(len(schedule) - 1, -1, -1):
            for bucket in schedule[level]:
                self._write_bucket(bucket, *self.stash.take_matching(
                    lambda leaves: bucket_at(leaves, level) == bucket, limit))

    def _write_bucket(self, bucket: int, ids: np.ndarray, leaves: np.ndarray,
                      payloads: np.ndarray) -> None:
        """Install the given blocks as the whole content of ``bucket``."""
        self.tree.write_blocks(bucket, ids, leaves, payloads)
        self.stats.bucket_writes += 1

    def _updated(self, update_fn: Optional[UpdateFn],
                 payload: np.ndarray) -> np.ndarray:
        """``payload`` after ``update_fn`` (``None``: unchanged), still one
        block row — a result of another shape would broadcast on write."""
        if update_fn is None:
            return payload
        payload = np.asarray(update_fn(payload), dtype=np.float64)
        if payload.shape != (self.block_width,):
            raise ValueError(
                f"update_fn returned shape {payload.shape} != "
                f"({self.block_width},)")
        return payload

    # ------------------------------------------------------------------
    # Subclass hooks: the two halves of one access
    # ------------------------------------------------------------------
    def _fetch(self, block_id: int, old_leaf: int) -> np.ndarray:
        """Take ``block_id`` out of the tree or stash, reading the path to
        ``old_leaf``; returns its payload."""
        raise NotImplementedError

    def _settle(self, old_leaf: int) -> None:
        """The write-back / eviction work that closes an access, run once
        the (remapped) block is back in the stash."""
        raise NotImplementedError

    # Batched lookahead hooks (schemes with SUPPORTS_LOOKAHEAD implement
    # these; see repro.oram.lookahead for the orchestration).
    def _lookahead_reserve(self, plan) -> None:
        """Grow the physical stash for the batch (public sizing decision)."""
        raise NotImplementedError

    def _lookahead_fetch(self, plan) -> None:
        """Fetch every scheduled bucket once, staging blocks in the stash."""
        raise NotImplementedError

    def _lookahead_writeback(self, plan) -> int:
        """Fused write-back/eviction; returns the number of write-back
        units for the decision trace."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        return self.tree.levels

    def total_resident_blocks(self) -> int:
        return self.tree.occupancy() + self.stash.occupancy

    def memory_blocks(self) -> int:
        """Physical block slots allocated (tree + stash), incl. recursion."""
        own = self.tree.num_buckets * self.bucket_size + self.stash.capacity
        child = getattr(self.position_map, "_child", None)
        if child is not None:
            own += child.memory_blocks()
        return own
