"""LLM inference latency model (Fig 15, §VI-D2).

Prefill is compute-bound (dense matmuls over the whole prompt); decode is
dominated by streaming the weights once per step plus per-batch-element KV
cache traffic. Calibrated against the paper's non-secure GPT-2 medium
numbers (TTFT 183.7 ms at batch 1 / 256 tokens; TBT 37.2 ms at batch 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.latency import (
    DheShape,
    dhe_latency,
    linear_scan_latency,
    oram_latency,
    sqrt_oram_latency,
)
from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.utils.validation import check_in, check_positive

#: Effective weight-streaming bandwidth during decode (B/s): back-solved
#: from TBT = 37.2 ms for ~1.21 GB of fp32 weights.
DECODE_STREAM_BW = 35e9


@dataclass(frozen=True)
class LlmShape:
    """Sizes that drive inference cost for a decoder-only transformer."""

    vocab_size: int
    embed_dim: int
    num_layers: int
    context_length: int = 1024

    @property
    def non_embedding_params(self) -> int:
        d = self.embed_dim
        per_block = (d * 3 * d + 3 * d) + (d * d + d) \
            + (d * 4 * d + 4 * d) + (4 * d * d + d) + 4 * d
        return self.num_layers * per_block + self.context_length * d + 2 * d

    def kv_bytes_per_token(self) -> int:
        return 2 * self.num_layers * self.embed_dim * DEFAULT_PLATFORM.element_bytes

    def dhe_shape(self) -> DheShape:
        width = 2 * self.embed_dim
        return DheShape(k=width, fc_sizes=(width, width, width),
                        out_dim=self.embed_dim)


GPT2_MEDIUM = LlmShape(vocab_size=50257, embed_dim=1024, num_layers=24)


def prefill_latency(shape: LlmShape, batch: int, prompt_tokens: int,
                    threads: int = 16) -> float:
    """Transformer-only time to first token (no embedding generation)."""
    check_positive("batch", batch)
    check_positive("prompt_tokens", prompt_tokens)
    total_tokens = batch * prompt_tokens
    flops = 2 * shape.non_embedding_params * total_tokens
    # Attention score/value matmuls: 2 x (T^2 * d) MACs per layer.
    flops += batch * 4 * prompt_tokens ** 2 * shape.embed_dim * shape.num_layers
    return flops / DEFAULT_PLATFORM.flop_rate(min(total_tokens, 4096), threads)


def decode_step_latency(shape: LlmShape, batch: int, context_tokens: int,
                        threads: int = 16) -> float:
    """Transformer-only time between tokens at a given live context length."""
    check_positive("batch", batch)
    check_positive("context_tokens", context_tokens)
    weight_bytes = shape.non_embedding_params * DEFAULT_PLATFORM.element_bytes
    kv_bytes = batch * context_tokens * shape.kv_bytes_per_token()
    stream = (weight_bytes + kv_bytes) / DECODE_STREAM_BW
    flops = 2 * shape.non_embedding_params * batch
    compute = flops / DEFAULT_PLATFORM.flop_rate(batch, threads)
    return stream + compute


def embedding_stage_latency(technique: str, shape: LlmShape,
                            embedding_batch: int, threads: int = 16) -> float:
    """Embedding-generation time for one stage invocation.

    ``embedding_batch`` is batch x prompt length for prefill, batch for one
    decode step (§II-A's batch-size distinction between the stages).
    """
    check_in("technique", technique,
             ("lookup", "scan", "path", "circuit", "sqrt", "dhe"))
    if technique == "lookup":
        from repro.costmodel.latency import lookup_latency
        return lookup_latency(shape.vocab_size, shape.embed_dim,
                              embedding_batch, threads)
    if technique == "scan":
        return linear_scan_latency(shape.vocab_size, shape.embed_dim,
                                   embedding_batch, threads)
    if technique in ("path", "circuit"):
        return oram_latency(technique, shape.vocab_size, shape.embed_dim,
                            embedding_batch, threads)
    if technique == "sqrt":
        return sqrt_oram_latency(shape.vocab_size, shape.embed_dim,
                                 embedding_batch, threads)
    return dhe_latency(shape.dhe_shape(), embedding_batch, threads)


def stage_latency(technique: str, stage: str, shape: LlmShape, batch: int,
                  prompt_tokens: int = 256, threads: int = 16) -> float:
    """Total latency of one prefill (TTFT) or one decode step (TBT)."""
    check_in("stage", stage, ("prefill", "decode"))
    if stage == "prefill":
        transformer = prefill_latency(shape, batch, prompt_tokens, threads)
        embedding = embedding_stage_latency(technique, shape,
                                            batch * prompt_tokens, threads)
    else:
        transformer = decode_step_latency(shape, batch, prompt_tokens,
                                          threads)
        embedding = embedding_stage_latency(technique, shape, batch, threads)
    return transformer + embedding


def decode_latency(technique: str, shape: LlmShape, batch: int,
                   prompt_tokens: int = 256, new_tokens: int = 128,
                   threads: int = 16) -> float:
    """Decode-only latency: ``new_tokens`` steps with a growing context.

    This is what the latency-bound decode *pool* prices per batch — the
    per-token loop without the prefill term (prefill lives in its own
    pool with its own batcher). The embedding fetch does not depend on
    the context length, so it is priced once, outside the loop; each step
    still adds ``transformer + embedding``, so the sum is unchanged.
    """
    check_positive("new_tokens", new_tokens)
    embedding = embedding_stage_latency(technique, shape, batch, threads)
    total = 0.0
    for step in range(new_tokens):
        context = prompt_tokens + step
        transformer = decode_step_latency(shape, batch, context, threads)
        total += transformer + embedding
    return total


def generation_latency(technique: str, shape: LlmShape, batch: int,
                       prompt_tokens: int = 256, new_tokens: int = 128,
                       threads: int = 16) -> float:
    """End-to-end latency: one prefill + ``new_tokens`` decode steps."""
    total = stage_latency(technique, "prefill", shape, batch, prompt_tokens,
                          threads)
    return total + decode_latency(technique, shape, batch, prompt_tokens,
                                  new_tokens, threads)
