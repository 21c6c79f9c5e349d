"""Lookahead/batched ORAM access (LAORAM, PAPERS.md).

Knowing a whole batch of block ids up front lets a tree ORAM do strictly
less work than a sequential ``access()`` loop while revealing strictly
less:

* **preassigned leaves** — one fresh leaf is drawn per batch slot up
  front (constant RNG consumption), so every remap is decided before any
  tree I/O happens;
* **batched position map** — all unique ids are looked up/updated in a
  single call (:meth:`~repro.oram.position_map.PositionMap.
  lookup_and_update_batch`); on a flat map that is *one* oblivious scan
  for the whole batch instead of one per access;
* **shared, level-padded path fetches** — the union of the old paths is
  fetched with exactly ``min(2^level, B)`` buckets per tree level: the
  distinct real path prefixes, padded with randomly drawn distinct
  buckets of the same level. One tree I/O per unique path, and the fetch
  schedule's *size* is a pure function of the public batch size ``B`` and
  the tree depth — duplicate-heavy batches fetch exactly as many buckets
  as all-distinct ones;
* **fused write-back** — Path ORAM drains the stash into the fetched
  buckets in one deepest-first sweep (each scheduled bucket written
  once); Circuit ORAM runs its usual two deterministic reverse-
  lexicographic eviction passes per batched access.

Every batched access additionally records a **decision trace** in the
``oram.lookahead`` region whose addresses are schedule *ordinals* (slot
numbers, fetch-sequence positions), never tree buckets. For the honest
implementation this trace is byte-identical across contrasting secret
batches of the same shape, so it is audited with
:class:`~repro.telemetry.audit.LeakageAuditor` in **exact** mode; the raw
memory trace (tree/stash/posmap regions) keeps the randomised-ORAM
convention and is audited **structurally**. The in-tree
:class:`SequentialLeakingBatcher` is the caught-by-construction negative
control: it deduplicates *without padding* — one full access per distinct
id, duplicates served from a client-side chain — so both its traces
shrink with index multiplicity and both audit modes flag it.

Duplicate semantics (pinned by regression tests): duplicate ids in one
batch share a single fetch, and slots observe/update the block in arrival
order — slot ``j`` sees the value after every earlier same-id slot's
``update_fn`` ran, exactly like the sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.telemetry.runtime import get_registry

UpdateFn = Callable[[np.ndarray], np.ndarray]

#: decision-trace region of every batched access
LOOKAHEAD_REGION = "oram.lookahead"

#: decision-trace address bands (ordinals within the batch, never buckets)
ADDR_POSMAP = 1000
ADDR_FETCH = 2000
ADDR_SERVE = 3000
ADDR_WRITEBACK = 4000


@dataclass
class BatchPlan:
    """One batch's precomputed decisions: leaves, dedup, fetch schedule."""

    block_ids: List[int]
    unique_ids: List[int]                  # arrival order
    slot_to_unique: List[int]              # per slot: index into unique_ids
    is_first: List[bool]                   # per slot: first occurrence?
    new_leaves: List[int]                  # per unique id (preassigned)
    old_leaves: List[int] = field(default_factory=list)   # per unique id
    schedule: List[List[int]] = field(default_factory=list)  # buckets/level
    padded_buckets: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.block_ids)

    @property
    def num_unique(self) -> int:
        return len(self.unique_ids)

    @property
    def num_fetched_buckets(self) -> int:
        return sum(len(level) for level in self.schedule)


def plan_batch(oram, block_ids: Sequence[int]) -> BatchPlan:
    """Dedup in arrival order and preassign one fresh leaf per slot.

    One leaf is drawn per *slot* (not per unique id) so the RNG
    consumption is batch-size constant; a unique id's new leaf is the draw
    made at its first-occurrence slot.
    """
    ids = [int(block_id) for block_id in block_ids]
    for block_id in ids:
        if not 0 <= block_id < oram.num_blocks:
            raise IndexError(
                f"block {block_id} out of range for ORAM of "
                f"{oram.num_blocks} blocks")
    draws = [int(oram.rng.integers(0, oram.tree.num_leaves)) for _ in ids]
    unique_ids: List[int] = []
    slot_to_unique: List[int] = []
    is_first: List[bool] = []
    new_leaves: List[int] = []
    position: Dict[int, int] = {}
    for slot, block_id in enumerate(ids):
        if block_id in position:
            slot_to_unique.append(position[block_id])
            is_first.append(False)
        else:
            position[block_id] = len(unique_ids)
            slot_to_unique.append(len(unique_ids))
            unique_ids.append(block_id)
            new_leaves.append(draws[slot])
            is_first.append(True)
    return BatchPlan(block_ids=ids, unique_ids=unique_ids,
                     slot_to_unique=slot_to_unique, is_first=is_first,
                     new_leaves=new_leaves)


def build_fetch_schedule(oram, plan: BatchPlan) -> None:
    """The level-padded union fetch: ``min(2^level, B)`` buckets per level.

    Real buckets are the distinct path prefixes of the unique old leaves;
    padding buckets are drawn uniformly (distinct, same level) until the
    public target count is reached, so the schedule *size* depends only on
    the batch size and the tree depth.
    """
    bucket_at = oram.tree.bucket_at
    batch = plan.batch_size
    for level in range(oram.tree.levels + 1):
        target = min(1 << level, batch)
        chosen = {bucket_at(leaf, level) for leaf in plan.old_leaves}
        while len(chosen) < target:
            leaf = int(oram.rng.integers(0, oram.tree.num_leaves))
            bucket = bucket_at(leaf, level)
            if bucket not in chosen:
                chosen.add(bucket)
                plan.padded_buckets += 1
        plan.schedule.append(sorted(chosen))


def _record(tracer: Optional[MemoryTracer], op: str, address: int) -> None:
    if tracer is not None:
        tracer.record(op, LOOKAHEAD_REGION, address)


def _record_run(tracer: Optional[MemoryTracer], op: str, base: int,
                count: int) -> None:
    """Declare ``op`` at the ``count`` ordinals from ``base``, in one
    columnar append."""
    if tracer is not None:
        tracer.record_each(LOOKAHEAD_REGION, base + np.arange(count), op)


def batch_args(oram, block_ids: Sequence[int],
               update_fns: Optional[Sequence[Optional[UpdateFn]]],
               plan_tracer: Optional[MemoryTracer]):
    """Normalise one batch call: int ids, one (possibly ``None``) update
    fn per slot, and the tracer the decision trace goes to."""
    ids = [int(block_id) for block_id in block_ids]
    fns = [None] * len(ids) if update_fns is None else list(update_fns)
    if len(fns) != len(ids):
        raise ValueError(f"{len(ids)} block ids but {len(fns)} update fns")
    tracer = plan_tracer if plan_tracer is not None else oram.tracer
    return ids, fns, tracer


def lookahead_access_batch(oram, block_ids: Sequence[int],
                           update_fns: Optional[Sequence[Optional[UpdateFn]]]
                           = None,
                           plan_tracer: Optional[MemoryTracer] = None
                           ) -> np.ndarray:
    """Serve a whole batch through one planned fetch/serve/write-back.

    Value-identical to the sequential ``access()`` loop (including
    duplicate chaining); returns the pre-update payloads, shape
    ``(batch, block_width)``. ``plan_tracer`` overrides where the
    ``oram.lookahead`` decision trace is recorded (default: the
    controller's own tracer).
    """
    ids, fns, tracer = batch_args(oram, block_ids, update_fns, plan_tracer)
    batch = len(ids)
    if batch == 0:
        return np.zeros((0, oram.block_width))
    registry = get_registry()
    try:
        with oram._metered("oram.access_batch", batch, batch=batch):
            plan = plan_batch(oram, ids)
            # Batched position-map pass: one call for all unique ids,
            # padded to the public batch size on per-lookup maps.
            plan.old_leaves = list(oram.position_map.lookup_and_update_batch(
                plan.unique_ids, plan.new_leaves, pad_to=batch))
            _record_run(tracer, WRITE, ADDR_POSMAP, batch)
            build_fetch_schedule(oram, plan)
            _record_run(tracer, READ, ADDR_FETCH, plan.num_fetched_buckets)
            oram._lookahead_reserve(plan)
            oram._lookahead_fetch(plan)
            results, error = _serve_batch(oram, plan, fns, tracer)
            _record_run(tracer, WRITE, ADDR_WRITEBACK,
                        oram._lookahead_writeback(plan))
            oram.stats.accesses += batch
            oram.stats.revealed_leaves.extend(plan.old_leaves)
            oram._check_stash_bound()
            if error is not None:
                raise error
    finally:
        registry.counter("oram.lookahead.batches_total").inc()
        registry.counter("oram.lookahead.batched_accesses_total").inc(batch)
        registry.gauge("oram.lookahead.stash_high_water").set_max(
            oram.stash.peak_occupancy)
    registry.counter("oram.lookahead.shared_fetches_total").inc(
        batch - plan.num_unique)
    registry.counter("oram.lookahead.padded_fetches_total").inc(
        plan.padded_buckets)
    return np.stack(results)


def _serve_batch(oram, plan: BatchPlan,
                 update_fns: Sequence[Optional[UpdateFn]],
                 tracer: Optional[MemoryTracer]):
    """Serve every slot from the stash in arrival order; returns the
    pre-update payloads and the first error an ``update_fn`` raised.

    Each slot costs exactly one stash peek plus one stash update —
    duplicates included — so stash traffic never reveals multiplicity.
    Duplicate slots re-install the same fresh leaf (same value, same
    traffic) and see the payload left by earlier same-id slots.

    A raising ``update_fn`` ends the batch like it ends the sequential
    loop — its slot keeps the old payload and no later update is applied —
    but every slot is still served and remapped, so the caller runs the
    usual write-back (same trace) before re-raising.
    """
    results: List[np.ndarray] = []
    error: Optional[Exception] = None
    for slot, block_id in enumerate(plan.block_ids):
        _record(tracer, READ, ADDR_SERVE + slot)
        found = oram.stash.peek(block_id)
        if found is None:
            raise KeyError(
                f"block {block_id} not found — ORAM invariant broken")
        _, payload = found
        results.append(payload.copy())
        if error is None:
            try:
                payload = oram._updated(update_fns[slot], payload)
            except Exception as raised:  # re-raised after the write-back
                error = raised
        oram.stash.update(
            block_id, leaf=plan.new_leaves[plan.slot_to_unique[slot]],
            payload=payload)
    return results, error


class SequentialLeakingBatcher:
    """Negative control: dedup *without padding* — caught by construction.

    Serves each distinct id with one full sequential ``access()`` and
    chains duplicate slots through a client-side closure, so the results
    are value-identical to the honest batch — but the number of path
    fetches (and the decision-trace length) equals the number of *unique*
    ids. A batch hammering one row produces a visibly shorter trace than
    an all-distinct batch of the same size: exact-mode and structural
    audits both flag it.
    """

    def access_batch(self, oram, block_ids: Sequence[int],
                     update_fns: Optional[Sequence[Optional[UpdateFn]]]
                     = None,
                     plan_tracer: Optional[MemoryTracer] = None
                     ) -> np.ndarray:
        ids, fns, tracer = batch_args(oram, block_ids, update_fns,
                                      plan_tracer)
        if not ids:
            return np.zeros((0, oram.block_width))
        slots_by_id: Dict[int, List[int]] = {}
        for slot, block_id in enumerate(ids):
            slots_by_id.setdefault(block_id, []).append(slot)
        results: List[Optional[np.ndarray]] = [None] * len(ids)

        for ordinal, (block_id, slots) in enumerate(slots_by_id.items()):
            _record(tracer, READ, ADDR_FETCH + ordinal)

            def chain(payload: np.ndarray,
                      slots: List[int] = slots) -> np.ndarray:
                value = np.asarray(payload, dtype=np.float64)
                for slot in slots:
                    results[slot] = value.copy()
                    if fns[slot] is not None:
                        value = np.asarray(fns[slot](value),
                                           dtype=np.float64)
                return value

            oram.access(block_id, chain)
        return np.stack([row for row in results])


# ----------------------------------------------------------------------
# Audit helpers: exact decision trace + structural memory trace
# ----------------------------------------------------------------------
def batched_decision_runner(oram_factory, batcher=None):
    """Runner capturing only the ``oram.lookahead`` decision trace.

    The ORAM is built *without* a tracer; the audit tracer is passed as
    ``plan_tracer`` only, so the captured trace contains exclusively the
    public scheduling decisions — audited in exact mode.
    """
    def run(tracer: MemoryTracer, secret: Sequence[Sequence[int]]) -> None:
        oram = oram_factory(None)
        for batch in secret:
            if batcher is None:
                oram.access_batch(list(batch), plan_tracer=tracer)
            else:
                batcher.access_batch(oram, list(batch), plan_tracer=tracer)
    return run


def batched_memory_runner(oram_factory, batcher=None):
    """Runner capturing the full memory trace (tree/stash/posmap regions).

    Initialisation traffic is dropped; the batched trace is
    count-constant by construction, so it is audited structurally (the
    randomised-ORAM convention).
    """
    def run(tracer: MemoryTracer, secret: Sequence[Sequence[int]]) -> None:
        oram = oram_factory(tracer)
        tracer.clear()
        for batch in secret:
            if batcher is None:
                oram.access_batch(list(batch))
            else:
                batcher.access_batch(oram, list(batch))
    return run


def contrasting_batches(num_blocks: int, batch_size: int = 16,
                        num_batches: int = 3) -> List[List[List[int]]]:
    """Secret workloads maximising contrast in both value and multiplicity:
    hammer the first block, hammer the last, and an all-distinct sweep."""
    sweep = [[(batch * batch_size + slot) % num_blocks
              for slot in range(batch_size)] for batch in range(num_batches)]
    return [
        [[0] * batch_size for _ in range(num_batches)],
        [[num_blocks - 1] * batch_size for _ in range(num_batches)],
        sweep,
    ]


def lookahead_subjects(num_blocks: int = 32, block_width: int = 4,
                       batch_size: int = 16, num_batches: int = 3,
                       seed: int = 0) -> List["AuditSubject"]:
    """Audit subjects for the batched path: exact decision traces and
    structural memory traces for Path + Circuit, plus the leaky control."""
    from repro.oram.circuit_oram import CircuitORAM
    from repro.oram.path_oram import PathORAM
    from repro.telemetry.audit import (
        MODE_EXACT,
        MODE_STRUCTURAL,
        AuditSubject,
    )

    secrets = contrasting_batches(num_blocks, batch_size, num_batches)

    def factory(oram_class):
        def build(tracer):
            return oram_class(num_blocks, block_width, rng=seed,
                              stash_capacity=num_blocks, tracer=tracer)
        return build

    subjects = []
    for oram_class, name in ((PathORAM, "path"), (CircuitORAM, "circuit")):
        subjects.append(AuditSubject(
            f"{name}-lookahead-plan",
            batched_decision_runner(factory(oram_class)),
            secrets, mode=MODE_EXACT))
        subjects.append(AuditSubject(
            f"{name}-lookahead-memory",
            batched_memory_runner(factory(oram_class)),
            secrets, mode=MODE_STRUCTURAL))
    subjects.append(AuditSubject(
        "sequential-leaking-batcher",
        batched_decision_runner(factory(PathORAM),
                                batcher=SequentialLeakingBatcher()),
        secrets, mode=MODE_EXACT, expect_oblivious=False))
    return subjects
