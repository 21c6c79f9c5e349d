"""The cache-level leakage audit: residency must ignore the request stream.

Cache occupancy is observable state — which buffers exist, which decoder
weights are materialised, which tables are pinned — so a cache whose
admission or eviction decisions key on observed indices leaks exactly the
access pattern the paper's defences hide. This module enforces the
:class:`~repro.cache.policy.SecretIndependentCache` contract the same way
:mod:`repro.cluster.placement` enforces workload-oblivious sharding: every
policy records its decisions in the ``cache.admission``
:class:`~repro.oblivious.trace.MemoryTracer` region, the policy is replayed
across contrasting skew profiles (the *secret* is the observed index
trace), and the :class:`~repro.telemetry.audit.LeakageAuditor` compares the
decision traces in exact mode. A compliant policy produces the identical
trace for every profile; a workload-keyed policy — the in-tree
:class:`~repro.cache.policy.IndexKeyedLRUCache` negative control — does
not, and ``LeakageAuditor().require(cache_subject(...))`` raises
:class:`~repro.telemetry.audit.LeakageError`.

The replay streams each secret through the full cache lifecycle: a plan
(static admission, with the secret offered as the ``workload`` argument a
frequency-keyed policy would want), per-batch lookups carrying the secret's
indices, and a generation roll (eviction). Honest policies read none of it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.costmodel.latency import DLRM_DHE_UNIFORM_16
from repro.embedding.hybrid import TECHNIQUE_DHE, TECHNIQUE_SCAN
from repro.hybrid.allocator import FeatureAllocation
from repro.oblivious.trace import MemoryTracer
from repro.serving.backends import resolve_backend
from repro.serving.engine import ServingConfig
from repro.telemetry.audit import (
    MODE_EXACT,
    AuditSubject,
    contrasting_secrets,
)

from repro.cache.policy import (
    BatchMetadata,
    CachePricer,
    SecretIndependentCache,
)

CacheFactory = Callable[[Optional[MemoryTracer]], SecretIndependentCache]

#: table sizes of the fixed audit model (two scan-sized, two DHE-sized)
AUDIT_TABLE_SIZES = (64, 256, 4096, 65536)
AUDIT_SCAN_THRESHOLD = 1024
AUDIT_BATCH_SIZE = 8
#: id space and length of the observed-index secrets the replays contrast
AUDIT_NUM_ROWS = 4096
AUDIT_SECRET_LENGTH = 64


def audit_allocations(
        table_sizes: Sequence[int] = AUDIT_TABLE_SIZES,
        scan_threshold: int = AUDIT_SCAN_THRESHOLD
) -> List[FeatureAllocation]:
    """The fixed mixed scan/DHE allocation every cache replay plans against."""
    return [FeatureAllocation(index, size,
                              TECHNIQUE_SCAN if size <= scan_threshold
                              else TECHNIQUE_DHE)
            for index, size in enumerate(table_sizes)]


def audit_pricer(batch_size: int = AUDIT_BATCH_SIZE,
                 embedding_dim: int = 16) -> CachePricer:
    """A modelled-cost pricer over the fixed audit model."""
    backend = resolve_backend("modelled", DLRM_DHE_UNIFORM_16)
    return CachePricer(backend=backend, embedding_dim=embedding_dim,
                       batch_size=batch_size, threads=1,
                       overhead_seconds=0.0,
                       uniform_shape=DLRM_DHE_UNIFORM_16)


def replay_cache(cache: SecretIndependentCache, secret: Sequence[int],
                 allocations: Optional[Sequence[FeatureAllocation]] = None,
                 pricer: Optional[CachePricer] = None) -> None:
    """One full cache lifecycle against one observed-index secret.

    Plans against the fixed audit model with the secret offered as
    ``workload``, streams the secret through fixed-shape batches (indices
    exposed so a leaky policy *can* key on them), and rolls two
    generations so eviction decisions land in the trace too. Shared by
    the audit subject and the bench's skew-invariance probe.
    """
    if allocations is None:
        allocations = audit_allocations()
    if pricer is None:
        pricer = audit_pricer()
    config = ServingConfig(batch_size=pricer.batch_size)
    cache.plan(allocations, config, pricer, workload=secret)
    batch = pricer.batch_size
    for start in range(0, len(secret), batch):
        chunk = secret[start:start + batch]
        meta = BatchMetadata(epoch=start // (batch * 4),
                             index_in_epoch=(start // batch) % 4,
                             size=batch)
        cache.batch_seconds(meta, indices=chunk)
    cache.advance_generation()
    cache.advance_generation()


def cache_subject(factory: CacheFactory,
                  workloads: Optional[Sequence[Sequence[int]]] = None,
                  allocations: Optional[Sequence[FeatureAllocation]] = None,
                  pricer: Optional[CachePricer] = None,
                  name: str = "cache",
                  expect_oblivious: bool = True) -> AuditSubject:
    """Wrap a cache factory as an :class:`AuditSubject`.

    Each replay builds a fresh traced cache from ``factory``, plans it
    against the fixed audit model with the secret offered as ``workload``,
    streams the secret through fixed-shape batches (indices exposed so a
    leaky policy *can* key on them), and rolls one generation so eviction
    decisions land in the trace too.
    """
    if workloads is None:
        workloads = contrasting_secrets(AUDIT_NUM_ROWS,
                                        AUDIT_SECRET_LENGTH)

    def run(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        replay_cache(factory(tracer), secret, allocations, pricer)

    return AuditSubject(name, run, workloads, mode=MODE_EXACT,
                        expect_oblivious=expect_oblivious)
