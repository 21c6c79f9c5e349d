"""Hybrid embedding generation: dual representation + runtime selection.

Algorithm 2's model preparation trains every sparse feature as a DHE, then
materialises tables from the trained DHEs. At inference (Algorithm 3), each
feature uses linear scan or DHE depending only on its table size and the
execution configuration — never on the input — so the hybrid inherits the
constituents' obliviousness.
"""

from __future__ import annotations

from typing import Optional


from repro.embedding.base import EmbeddingGenerator
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.scan import LinearScanEmbedding
from repro.nn.tensor import Tensor
from repro.telemetry.runtime import get_registry

TECHNIQUE_SCAN = "scan"
TECHNIQUE_DHE = "dhe"


class HybridEmbedding(EmbeddingGenerator):
    """One sparse feature holding both a DHE and (lazily) its scan table.

    ``select(technique)`` flips the active representation; the table is
    materialised from the trained DHE on first use so both representations
    encode the *same* function (no retraining, no accuracy change).
    """

    is_oblivious = True

    def __init__(self, dhe: DHEEmbedding) -> None:
        super().__init__(dhe.num_embeddings, dhe.embedding_dim)
        self.dhe = dhe
        self._scan: Optional[LinearScanEmbedding] = None
        self._active = TECHNIQUE_DHE

    @property
    def technique(self) -> str:  # type: ignore[override]
        return f"hybrid/{self._active}"

    @property
    def active(self) -> str:
        return self._active

    # ------------------------------------------------------------------
    def select(self, technique: str) -> "HybridEmbedding":
        """Choose the active representation (Algorithm 3's online step)."""
        if technique not in (TECHNIQUE_SCAN, TECHNIQUE_DHE):
            raise ValueError(
                f"technique must be '{TECHNIQUE_SCAN}' or '{TECHNIQUE_DHE}', "
                f"got {technique!r}")
        if technique == TECHNIQUE_SCAN:
            self._ensure_table()
        self._active = technique
        get_registry().counter(
            f"embedding.hybrid.select_{technique}_total").inc()
        return self

    def _ensure_table(self) -> LinearScanEmbedding:
        if self._scan is None:
            registry = get_registry()
            with registry.span("embedding.hybrid.materialize_table",
                               rows=self.num_embeddings):
                weight = self.dhe.materialize_table()
            registry.counter("embedding.hybrid.tables_materialized_total").inc()
            self._scan = LinearScanEmbedding(self.num_embeddings,
                                             self.embedding_dim, weight=weight)
        return self._scan

    def degrade(self, cause: str = "fault") -> "HybridEmbedding":
        """Step down to the scan representation under fault pressure.

        Both representations are oblivious, so degradation trades latency
        for robustness without reopening the access-pattern channel — the
        hybrid has no raw-lookup mode to fall into. Recorded under
        ``resilience.degradations_total`` like every ladder transition.
        """
        if self._active == TECHNIQUE_SCAN:
            return self
        self.select(TECHNIQUE_SCAN)
        registry = get_registry()
        registry.counter("resilience.degradations_total").inc()
        registry.counter(
            f"embedding.hybrid.degraded_{cause}_total").inc()
        return self

    def refresh_table(self) -> None:
        """Re-materialise the scan table after the DHE was (re)trained."""
        if self._scan is not None:
            self._scan.weight.data[...] = self.dhe.materialize_table()

    # ------------------------------------------------------------------
    def forward(self, indices) -> Tensor:
        if self._active == TECHNIQUE_SCAN:
            return self._ensure_table()(indices)
        return self.dhe(indices)

    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        if self._active == TECHNIQUE_SCAN:
            return self._ensure_table().modelled_latency(batch, threads)
        return self.dhe.modelled_latency(batch, threads)

    def footprint_bytes(self) -> int:
        """Footprint of the *active* representation (Algorithm 2 ships the
        cheaper one per feature once the threshold is known)."""
        if self._active == TECHNIQUE_SCAN:
            return self._ensure_table().footprint_bytes()
        return self.dhe.footprint_bytes()
