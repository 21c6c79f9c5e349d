"""Model memory-footprint accounting (Tables VI and VIII, §VI-D3).

Computes whole-model footprints for DLRM and the GPT-2-style LLM under each
embedding representation: raw tables, tree ORAM, DHE Uniform/Varied, and the
hybrid (scan tables below the threshold, DHE above).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.costmodel.latency import DheShape, dhe_varied_shape
from repro.costmodel.memory import dhe_bytes, table_bytes, tree_oram_bytes
from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.utils.validation import check_positive

MB = 1024 * 1024


@dataclass(frozen=True)
class FootprintReport:
    """Per-representation footprint of one model, in bytes."""

    table: int
    tree_oram: int
    dhe_uniform: int
    dhe_varied: int
    hybrid_uniform: int
    hybrid_varied: int

    def as_mb(self) -> Dict[str, float]:
        return {name: value / MB for name, value in self.__dict__.items()}

    def relative_to_table(self) -> Dict[str, float]:
        return {name: value / self.table for name, value in self.__dict__.items()}


def dlrm_embedding_footprints(table_sizes: Sequence[int], dim: int,
                              uniform_shape: DheShape,
                              hybrid_threshold: int,
                              dense_bytes: int = 0,
                              scheme: str = "circuit") -> FootprintReport:
    """Footprints of a DLRM's embedding layers (+ shared dense part).

    ``hybrid_threshold``: tables at or below this size keep the raw table
    (linear scan); larger tables use DHE. The hybrid counts the *smaller* of
    the two representations per feature, as in Algorithm 2's offline step
    (DHE-trained features below threshold are materialised as tables).
    """
    check_positive("dim", dim)
    check_positive("hybrid_threshold", hybrid_threshold)
    total_table = total_oram = total_uniform = total_varied = 0
    total_hybrid_u = total_hybrid_v = 0
    for size in table_sizes:
        raw = table_bytes(size, dim)
        uniform = dhe_bytes(uniform_shape)
        varied = dhe_bytes(dhe_varied_shape(size, uniform_shape))
        total_table += raw
        total_oram += tree_oram_bytes(size, dim, scheme=scheme)
        total_uniform += uniform
        total_varied += varied
        if size <= hybrid_threshold:
            total_hybrid_u += raw
            total_hybrid_v += raw
        else:
            total_hybrid_u += uniform
            total_hybrid_v += varied
    return FootprintReport(
        table=total_table + dense_bytes,
        tree_oram=total_oram + dense_bytes,
        dhe_uniform=total_uniform + dense_bytes,
        dhe_varied=total_varied + dense_bytes,
        hybrid_uniform=total_hybrid_u + dense_bytes,
        hybrid_varied=total_hybrid_v + dense_bytes,
    )


@dataclass(frozen=True)
class LlmFootprint:
    """GPT-2-style model footprint under each token-embedding scheme."""

    base_model: int        # everything except the token-embedding table
    table: int
    oram_table: int
    dhe: int

    def total(self, scheme: str) -> int:
        extras = {"table": self.table, "oram": self.oram_table,
                  "dhe": self.table + self.dhe, "scan": self.table}
        if scheme not in extras:
            raise ValueError(f"unknown scheme {scheme!r}")
        # DHE keeps the tied output head's table for logits (§II-A weight
        # tying), so its footprint is base + table + DHE stack.
        return self.base_model + extras[scheme]


def gpt2_footprint(vocab_size: int, embed_dim: int, num_layers: int,
                   context_length: int, dhe_shape: DheShape,
                   scheme_for_oram: str = "circuit") -> LlmFootprint:
    """Footprint accounting for a GPT-2-architecture model.

    Per block: fused QKV (d x 3d), output projection (d x d), two MLP mats
    (d x 4d, 4d x d), biases, and two LayerNorms; plus learned positional
    embeddings and the final LayerNorm. The token table is counted once
    (tied with the output head).
    """
    check_positive("vocab_size", vocab_size)
    check_positive("embed_dim", embed_dim)
    d = embed_dim
    per_block = (d * 3 * d + 3 * d) + (d * d + d) + (d * 4 * d + 4 * d) \
        + (4 * d * d + d) + 4 * d
    base = num_layers * per_block + context_length * d + 2 * d
    token_table = vocab_size * d
    return LlmFootprint(
        base_model=base * DEFAULT_PLATFORM.element_bytes,
        table=token_table * DEFAULT_PLATFORM.element_bytes,
        oram_table=tree_oram_bytes(vocab_size, d, scheme=scheme_for_oram),
        dhe=dhe_bytes(dhe_shape),
    )
