"""Secure embedding generation methods behind one interface (§IV)."""

from repro.embedding.base import EmbeddingGenerator
from repro.embedding.dhe import (
    DEFAULT_BUCKETS,
    UNIVERSAL_PRIME,
    DHEEmbedding,
    UniversalHashEncoder,
)
from repro.embedding.hybrid import (
    TECHNIQUE_DHE,
    TECHNIQUE_SCAN,
    HybridEmbedding,
)
from repro.embedding.oram_embedding import (
    CircuitOramEmbedding,
    PathOramEmbedding,
)
from repro.embedding.scan import LinearScanEmbedding
from repro.embedding.table import TableEmbedding
from repro.embedding.tensor_train import (
    TTEmbedding,
    balanced_factors,
    exact_factors,
)

__all__ = [
    "TTEmbedding",
    "balanced_factors",
    "exact_factors",
    "EmbeddingGenerator",
    "DEFAULT_BUCKETS",
    "UNIVERSAL_PRIME",
    "DHEEmbedding",
    "UniversalHashEncoder",
    "TECHNIQUE_DHE",
    "TECHNIQUE_SCAN",
    "HybridEmbedding",
    "CircuitOramEmbedding",
    "PathOramEmbedding",
    "LinearScanEmbedding",
    "TableEmbedding",
]
