"""Secret-independent caching: admission keyed on public metadata only.

A hot-embedding cache keyed on *observed indices* is exactly the memory
side channel the paper closes — cache occupancy becomes a function of
secret inputs, so the protected baseline forgoes caching entirely and pays
full DHE/ORAM cost on every lookup. Reuse is nevertheless safe whenever
**residency is a function of public metadata only**. This module provides
the :class:`SecretIndependentCache` protocol and three admission policies
that satisfy it:

* :class:`StaticResidencyCache` — whole-table residency decided by the
  planner from static table metadata (footprint, technique) before any
  request arrives; a resident table is served from its pinned private
  copy, the same residency argument the paper already makes for the DHE
  decoder weights;
* :class:`DecoderWeightCache` — DHE decoder weights are public model
  state; share them across requests, engines and plan epochs instead of
  re-materialising them per serve;
* :class:`BatchResultCache` — batch-level result sharing whose occupancy
  depends only on public arrival metadata (batch shape, arrival epoch,
  batch sequence number), never on which indices were requested; hedged
  mirrors and replica double-serves of the *same scheduled batch* reuse
  the shared result buffer.

Every admission/eviction decision is recorded in the ``cache.admission``
:class:`~repro.oblivious.trace.MemoryTracer` region so the
:class:`~repro.telemetry.audit.LeakageAuditor` can replay a policy across
contrasting skew profiles (:mod:`repro.cache.audit`): a compliant policy
produces the identical decision trace for every workload.
:class:`IndexKeyedLRUCache` — the "natural" hot-index LRU — is kept in
tree as the caught-by-construction negative control;
:class:`~repro.serving.engine.ExecutionEngine` refuses to serve traffic
with it.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.costmodel.latency import dhe_table_shape
from repro.costmodel.memory import dhe_bytes, table_bytes
from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.embedding.hybrid import TECHNIQUE_SCAN
from repro.hybrid.allocator import allocation_latency, allocation_technique
from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive, check_positive_finite

#: tracer region every admission/eviction/lookup decision is recorded under
CACHE_REGION = "cache.admission"

#: per-decoder fixed fetch overhead (page-in + pointer swizzle), seconds
DECODER_FETCH_OVERHEAD_SECONDS = 5e-5


def _stable_address(key: Hashable) -> int:
    """Deterministic int address for a public metadata key.

    ``hash()`` is process-randomised for strings, so trace addresses go
    through SHA-256 of the key's repr — stable across runs and processes.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class CacheStats:
    """Counters of one cache instance (cumulative across serves)."""

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    bytes_resident: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Recomputed from the counters — never an average of averages."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.admissions,
                          self.evictions, self.bytes_resident)

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "bytes_resident": self.bytes_resident,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class BatchMetadata:
    """Public arrival metadata of one scheduled batch.

    This is *everything* an admission policy may key a per-batch decision
    on: the arrival epoch the batch started in, its sequence number within
    that epoch, and the padded batch shape. No field is derived from the
    requested indices.
    """

    epoch: int
    index_in_epoch: int
    size: int

    def key(self) -> Tuple[int, int, int]:
        return (self.epoch, self.index_in_epoch, self.size)


@dataclass(frozen=True)
class CachePricer:
    """Cost-model access the admission policies price decisions through.

    Wraps the engine's execution backend plus the live configuration, so
    policies ask "what does this feature cost, resident vs not?" through
    the same seam everything else prices latency with; the shard planner
    prices its tables through it too. A DHE feature is priced and sized
    with its Varied stack.
    """

    backend: object                 # any ExecutionBackend (duck-typed)
    embedding_dim: int
    batch_size: int
    threads: int = 1
    overhead_seconds: float = 0.0   # dense MLP stack per batch
    uniform_shape: Optional[object] = None

    # ------------------------------------------------------------------
    def feature_seconds(self, allocation) -> float:
        """Full (uncached) per-batch cost of one allocated feature."""
        return self.backend.technique_latency(
            allocation_technique(allocation), allocation.table_size,
            self.embedding_dim, self.batch_size, self.threads)

    def resident_seconds(self, allocation) -> float:
        """Per-batch cost of a whole-table-resident feature.

        A pinned table is served by direct row fetches from the private
        resident copy — the paper's threat model already assumes accesses
        inside the private region are unobservable (that is the entire DHE
        decoder-weight argument), so residency trades footprint for the
        scan/DHE recomputation cost.
        """
        return self.backend.technique_latency(
            "lookup", allocation.table_size, self.embedding_dim,
            self.batch_size, self.threads)

    def batch_seconds(self, allocations: Sequence) -> float:
        """Full per-batch cost of the whole allocation (incl. overhead)."""
        # The overhead is added to the summed features, not summed with
        # them: the float order is what the cache bench's bytes pin.
        return self.overhead_seconds + allocation_latency(
            allocations, self.backend, self.embedding_dim, self.batch_size,
            self.threads)

    def shared_read_seconds(self, allocations: Sequence) -> float:
        """Per-batch cost of reading an already-shared result buffer."""
        rows = max(1, self.batch_size)
        per_feature = self.backend.technique_latency(
            "lookup", rows, self.embedding_dim, self.batch_size,
            self.threads)
        return self.overhead_seconds + per_feature * max(1, len(allocations))

    # ------------------------------------------------------------------
    def footprint_bytes(self, allocation) -> int:
        """Resident footprint of one feature's chosen representation."""
        if allocation_technique(allocation) == TECHNIQUE_SCAN:
            return table_bytes(allocation.table_size, self.embedding_dim)
        return dhe_bytes(dhe_table_shape(
            allocation.table_size, self.embedding_dim, self.uniform_shape))

    def table_footprint_bytes(self, allocation) -> int:
        """Footprint of the *materialised whole table* (what pinning costs).

        Whole-table residency serves exact rows by direct fetch, so it must
        pay full table bytes even for a DHE-allocated feature — pinning
        only the (small) decoder would not make row fetches free.
        """
        return table_bytes(allocation.table_size, self.embedding_dim)

    def decoder_setup_seconds(self, allocation) -> float:
        """One-off cost of materialising one decoder's weights."""
        shape = dhe_table_shape(allocation.table_size, self.embedding_dim,
                                self.uniform_shape)
        return (dhe_bytes(shape) / DEFAULT_PLATFORM.scan_dram_bw
                + DECODER_FETCH_OVERHEAD_SECONDS)

    def result_bytes(self, num_features: int = 1) -> int:
        """Bytes of one shared full-batch result buffer."""
        return (self.batch_size * self.embedding_dim
                * DEFAULT_PLATFORM.element_bytes * num_features)


class SecretIndependentCache:
    """Protocol for admission policies whose occupancy ignores secrets.

    Lifecycle per serve: the engine calls :meth:`plan` once before any
    request is executed (static admission happens here), schedules batches
    at :meth:`schedule_seconds`, then calls :meth:`batch_seconds` once per
    executed batch with that batch's *public* metadata. ``workload`` and
    ``indices`` arguments exist so the leakage audit can *try* to influence
    a policy; a compliant policy never reads them.

    Subclasses record every admission/eviction/lookup decision through
    :meth:`_record` (the ``cache.admission`` tracer region) — that trace is
    what :func:`repro.cache.audit.cache_subject` replays across
    contrasting skew profiles.
    """

    name: str = "abstract"
    #: arrival-epoch length the engine derives :class:`BatchMetadata` from;
    #: ``inf`` collapses every batch into epoch 0.
    epoch_seconds: float = math.inf

    def __init__(self, tracer: Optional[MemoryTracer] = None) -> None:
        self.tracer = tracer
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _record(self, op: str, address: int) -> None:
        if self.tracer is not None:
            self.tracer.record(op, CACHE_REGION, address)

    def _count(self, metric: str, amount: int = 1) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(f"cache.{metric}_total").inc(amount)
            registry.gauge("cache.bytes_resident").set(
                self.stats.bytes_resident)

    # ------------------------------------------------------------------
    def plan(self, allocations: Sequence, config, pricer: CachePricer,
             workload: Optional[Sequence[int]] = None) -> None:
        """Static admission before any request arrives (traced)."""
        raise NotImplementedError

    def schedule_seconds(self) -> float:
        """Per-batch service time the batcher schedules with (constant)."""
        raise NotImplementedError

    def batch_seconds(self, meta: BatchMetadata,
                      indices: Optional[Sequence[int]] = None) -> float:
        """Executed service time of one batch; records hits/misses."""
        raise NotImplementedError

    def serve_setup_seconds(self) -> float:
        """One-off setup cost charged to the serve's first batch."""
        return 0.0

    def advance_generation(self) -> None:
        """A new arrival generation began (e.g. a plan epoch rolled).

        Policies with time-scoped occupancy evict here; the default keeps
        everything (whole-table residency and decoder weights are
        epoch-independent).
        """


class StaticResidencyCache(SecretIndependentCache):
    """Whole-table residency decided from static metadata at plan time.

    Tables are admitted smallest-footprint-first (feature index as the
    tie-break — both static quantities) until the byte budget is spent.
    Occupancy never changes while traffic flows: per-batch lookups hit the
    resident features and miss the rest, in the same proportion for every
    workload.
    """

    name = "static-residency"

    def __init__(self, budget_bytes: int,
                 tracer: Optional[MemoryTracer] = None) -> None:
        super().__init__(tracer)
        check_positive("budget_bytes", budget_bytes)
        self.budget_bytes = budget_bytes
        self._resident: Tuple[int, ...] = ()
        self._hit_features = 0
        self._miss_features = 0
        self._service_seconds = 0.0
        self._planned = False

    @property
    def resident_tables(self) -> Tuple[int, ...]:
        return self._resident

    def plan(self, allocations: Sequence, config, pricer: CachePricer,
             workload: Optional[Sequence[int]] = None) -> None:
        """Pin tables by footprint; ``workload`` is deliberately unread."""
        order = sorted(allocations,
                       key=lambda a: (pricer.table_footprint_bytes(a),
                                      a.feature_index))
        resident: List[int] = []
        spent = 0
        for allocation in order:
            footprint = pricer.table_footprint_bytes(allocation)
            admitted = spent + footprint <= self.budget_bytes
            if admitted:
                resident.append(allocation.feature_index)
                spent += footprint
            # One event per admission decision, in deterministic order:
            # the address encodes (feature, verdict).
            self._record(WRITE,
                         allocation.feature_index * 2 + int(admitted))
        self._resident = tuple(sorted(resident))
        resident_set = set(self._resident)
        service = pricer.overhead_seconds
        for allocation in allocations:
            if allocation.feature_index in resident_set:
                service += pricer.resident_seconds(allocation)
            else:
                service += pricer.feature_seconds(allocation)
        self._service_seconds = service
        self._hit_features = len(resident_set)
        self._miss_features = len(allocations) - len(resident_set)
        if not self._planned:
            self.stats.admissions += len(resident_set)
            self.stats.bytes_resident = spent
            self._count("admissions", len(resident_set))
            self._planned = True

    def schedule_seconds(self) -> float:
        return self._service_seconds

    def batch_seconds(self, meta: BatchMetadata,
                      indices: Optional[Sequence[int]] = None) -> float:
        self.stats.hits += self._hit_features
        self.stats.misses += self._miss_features
        self._count("hits", self._hit_features)
        self._count("misses", self._miss_features)
        # The per-batch lookup touches only the (public) batch metadata.
        self._record(READ, _stable_address(meta.key()))
        return self._service_seconds


class DecoderWeightCache(SecretIndependentCache):
    """DHE decoder weights shared across serves and plan epochs.

    The decoder MLP weights are public model state — identical for every
    request — so sharing one materialised copy across engines and plan
    epochs leaks nothing. Each plan fetches the decoders its allocation
    needs: a miss pays the (modelled) materialisation cost once; every
    later serve hits.
    """

    name = "decoder-reuse"

    def __init__(self, tracer: Optional[MemoryTracer] = None) -> None:
        super().__init__(tracer)
        self._decoders: Dict[Hashable, int] = {}     # key -> footprint bytes
        self._service_seconds = 0.0
        self._setup_seconds = 0.0

    def plan(self, allocations: Sequence, config, pricer: CachePricer,
             workload: Optional[Sequence[int]] = None) -> None:
        self._service_seconds = pricer.batch_seconds(allocations)
        setup = 0.0
        for allocation in allocations:
            if allocation.technique == TECHNIQUE_SCAN:
                continue
            key = ("decoder", allocation.table_size, pricer.embedding_dim)
            hit = key in self._decoders
            if hit:
                self.stats.hits += 1
                self._count("hits")
            else:
                footprint = pricer.footprint_bytes(allocation)
                self._decoders[key] = footprint
                setup += pricer.decoder_setup_seconds(allocation)
                self.stats.misses += 1
                self.stats.admissions += 1
                self.stats.bytes_resident += footprint
                self._count("misses")
                self._count("admissions")
            # Decision address encodes (decoder identity, verdict) — both
            # static metadata.
            self._record(WRITE, _stable_address(key) * 2 + int(hit))
        self._setup_seconds = setup

    def schedule_seconds(self) -> float:
        return self._service_seconds

    def batch_seconds(self, meta: BatchMetadata,
                      indices: Optional[Sequence[int]] = None) -> float:
        self._record(READ, _stable_address(meta.key()))
        return self._service_seconds

    def serve_setup_seconds(self) -> float:
        """Materialisation cost of this plan's decoder misses (one-off)."""
        return self._setup_seconds


class BatchResultCache(SecretIndependentCache):
    """Batch-level result sharing keyed on public arrival metadata.

    The first execution of a scheduled batch admits one shared result
    buffer under the key ``(generation, epoch, sequence, shape)`` — all
    public quantities fixed by the arrival trace and the configuration.
    Re-executions of the *same* scheduled batch (a hedged mirror, a
    replica double-serve during migration) hit the buffer and pay only the
    shared read. Rolling to a new generation evicts every buffer of older
    generations; which buffers exist therefore never depends on which
    indices were requested.
    """

    name = "batch-shared"

    def __init__(self, epoch_seconds: float = 0.05, keep_generations: int = 1,
                 tracer: Optional[MemoryTracer] = None) -> None:
        super().__init__(tracer)
        check_positive_finite("epoch_seconds", epoch_seconds)
        check_positive("keep_generations", keep_generations)
        self.epoch_seconds = epoch_seconds
        self.keep_generations = keep_generations
        self._generation = 0
        self._entries: "OrderedDict[Tuple, int]" = OrderedDict()
        self._service_seconds = 0.0
        self._hit_seconds = 0.0
        self._entry_bytes = 0

    def plan(self, allocations: Sequence, config, pricer: CachePricer,
             workload: Optional[Sequence[int]] = None) -> None:
        self._service_seconds = pricer.batch_seconds(allocations)
        self._hit_seconds = min(self._service_seconds,
                                pricer.shared_read_seconds(allocations))
        self._entry_bytes = pricer.result_bytes(len(allocations))

    def schedule_seconds(self) -> float:
        # Conservative: the batcher reserves the full slot; hits simply
        # return early, so queueing is never understated.
        return self._service_seconds

    def batch_seconds(self, meta: BatchMetadata,
                      indices: Optional[Sequence[int]] = None) -> float:
        key = (self._generation,) + meta.key()
        if key in self._entries:
            self.stats.hits += 1
            self._count("hits")
            self._record(READ, _stable_address(key))
            return self._hit_seconds
        self._entries[key] = self._entry_bytes
        self.stats.misses += 1
        self.stats.admissions += 1
        self.stats.bytes_resident += self._entry_bytes
        self._count("misses")
        self._count("admissions")
        self._record(WRITE, _stable_address(key))
        return self._service_seconds

    def advance_generation(self) -> None:
        """Roll the arrival generation; evict everything now out of scope."""
        self._generation += 1
        floor = self._generation - self.keep_generations
        for key in [k for k in self._entries if k[0] < floor]:
            freed = self._entries.pop(key)
            self.stats.evictions += 1
            self.stats.bytes_resident -= freed
            self._count("evictions")
            self._record(WRITE, _stable_address(key))

    def entries(self) -> int:
        return len(self._entries)


class IndexKeyedLRUCache(SecretIndependentCache):
    """The anti-pattern: a hot-embedding LRU keyed on observed indices.

    This is the "natural" cache a throughput-minded engineer reaches for —
    and it is exactly the side channel the paper closes: which rows are
    resident (and which get evicted) is a function of the secret request
    stream, so its admission trace diverges between skew profiles and the
    :class:`~repro.telemetry.audit.LeakageAuditor` flags it. Kept in tree
    only as the negative control for :mod:`repro.cache.audit` and its
    regression tests; :class:`~repro.serving.engine.ExecutionEngine`
    refuses it, so it never serves traffic.
    """

    name = "index-keyed-lru"

    def __init__(self, capacity_rows: int,
                 tracer: Optional[MemoryTracer] = None) -> None:
        super().__init__(tracer)
        check_positive("capacity_rows", capacity_rows)
        self.capacity_rows = capacity_rows
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._service_seconds = 0.0
        self._row_bytes = 0

    def plan(self, allocations: Sequence, config, pricer: CachePricer,
             workload: Optional[Sequence[int]] = None) -> None:
        self._service_seconds = pricer.batch_seconds(allocations)
        self._row_bytes = pricer.embedding_dim * DEFAULT_PLATFORM.element_bytes

    def schedule_seconds(self) -> float:
        return self._service_seconds

    def batch_seconds(self, meta: BatchMetadata,
                      indices: Optional[Sequence[int]] = None) -> float:
        if indices is None:
            return self._service_seconds
        for index in indices:
            index = int(index)
            if index in self._lru:
                self._lru.move_to_end(index)
                self.stats.hits += 1
                # The leak: the decision trace addresses *are* the secret.
                self._record(READ, index)
                continue
            self._lru[index] = None
            self.stats.misses += 1
            self.stats.admissions += 1
            self.stats.bytes_resident += self._row_bytes
            self._record(WRITE, index)
            if len(self._lru) > self.capacity_rows:
                victim, _ = self._lru.popitem(last=False)
                self.stats.evictions += 1
                self.stats.bytes_resident -= self._row_bytes
                self._record(WRITE, victim)
        return self._service_seconds
