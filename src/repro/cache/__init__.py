"""Oblivious-safe embedding caching: residency from public metadata only.

See :mod:`repro.cache.policy` for the admission policies,
:mod:`repro.cache.audit` for the leakage gate, and
``python -m repro.cache.bench`` for the gated latency bench.
"""

from repro.cache.audit import cache_subject, replay_cache
from repro.cache.policy import (
    CACHE_REGION,
    BatchMetadata,
    BatchResultCache,
    CachePricer,
    CacheStats,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    SecretIndependentCache,
    StaticResidencyCache,
)

__all__ = [
    "CACHE_REGION",
    "BatchMetadata",
    "BatchResultCache",
    "CachePricer",
    "CacheStats",
    "DecoderWeightCache",
    "IndexKeyedLRUCache",
    "SecretIndependentCache",
    "StaticResidencyCache",
    "cache_subject",
    "replay_cache",
]
