"""The three LLM pipeline stages, priced through the cost model.

Each stage is a :class:`~repro.serving.PricedStage` whose per-batch
service time comes from the analytic platform model, so the pipeline's
latency arithmetic is exactly the paper's §VI-D pricing:

* **tokenize** — one square-root ORAM access per prompt symbol
  (:func:`~repro.costmodel.sqrt_oram_latency`); cheap, so its pool runs
  overprovisioned and is the one that scales *down*;
* **prefill** — throughput-bound: batched DHE embedding generation plus
  the dense prompt matmuls
  (:func:`~repro.costmodel.llm.stage_latency` with ``stage="prefill"``),
  batched aggressively (a wait window fills the batch);
* **decode** — latency-bound: the per-token loop, one Circuit-ORAM
  embedding fetch per generated token per lane
  (:func:`~repro.costmodel.llm.decode_latency`), batched greedily at a
  small cap because TBT is the SLA.

Each stage also carries a *decision-trace* audit subject: the per-stage
schedules (which ordinal a symbol lands at, which lane a request rides,
which step of the token loop is running) are recorded as ordinals in the
``llm.prefill`` / ``llm.decode`` regions and must replay byte-identically
across contrasting prompts — content may steer values, never decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.latency import sqrt_oram_latency
from repro.costmodel.llm import LlmShape, decode_latency, stage_latency
from repro.llm.tokenizer import ObliviousTokenizer, contrasting_prompts
from repro.oblivious.trace import READ, MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.serving.batcher import BatchingPolicy
from repro.serving.pipeline import PipelineEngine, PricedStage, StageResult
from repro.serving.requests import RequestQueue
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    AuditSubject,
)
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: decision-trace regions for the two model stages
PREFILL_REGION = "llm.prefill"
DECODE_REGION = "llm.decode"

#: the bench's scaled-down decoder (keeps the sim's capacities in the
#: hundreds-to-thousands of requests per second per node)
SIM_SHAPE = LlmShape(vocab_size=512, embed_dim=64, num_layers=4,
                     context_length=128)


@dataclass(frozen=True)
class LlmServingSpec:
    """Sizes and batching caps for the three-stage pipeline."""

    shape: LlmShape = SIM_SHAPE
    prompt_tokens: int = 32
    new_tokens: int = 16
    tokenize_batch: int = 32
    prefill_batch: int = 16
    decode_batch: int = 4
    prefill_wait_seconds: float = 0.002
    threads: int = 1

    def __post_init__(self) -> None:
        check_positive("prompt_tokens", self.prompt_tokens)
        check_positive("new_tokens", self.new_tokens)
        check_positive("tokenize_batch", self.tokenize_batch)
        check_positive("prefill_batch", self.prefill_batch)
        check_positive("decode_batch", self.decode_batch)

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.shape.vocab_size,
            "embed_dim": self.shape.embed_dim,
            "num_layers": self.shape.num_layers,
            "prompt_tokens": self.prompt_tokens,
            "new_tokens": self.new_tokens,
            "tokenize_batch": self.tokenize_batch,
            "prefill_batch": self.prefill_batch,
            "decode_batch": self.decode_batch,
            "prefill_wait_seconds": self.prefill_wait_seconds,
            "threads": self.threads,
        }


# ----------------------------------------------------------------------
# Per-batch service-time functions (the cost-model pricing).
# ----------------------------------------------------------------------
def tokenize_service_time(spec: LlmServingSpec) -> Callable[[int], float]:
    """``prompt_tokens`` square-root ORAM accesses per request."""
    def price(batch_size: int) -> float:
        return sqrt_oram_latency(spec.shape.vocab_size,
                                 spec.shape.embed_dim,
                                 batch_size * spec.prompt_tokens,
                                 spec.threads)
    return price


def prefill_service_time(spec: LlmServingSpec) -> Callable[[int], float]:
    """Batched DHE embeddings + dense prompt matmuls (throughput-bound)."""
    def price(batch_size: int) -> float:
        return stage_latency("dhe", "prefill", spec.shape, batch_size,
                             spec.prompt_tokens, spec.threads)
    return price


def decode_service_time(spec: LlmServingSpec) -> Callable[[int], float]:
    """The per-token loop: ``new_tokens`` Circuit-ORAM decode steps."""
    def price(batch_size: int) -> float:
        return decode_latency("circuit", spec.shape, batch_size,
                              spec.prompt_tokens, spec.new_tokens,
                              spec.threads)
    return price


def per_node_capacity_rps(spec: LlmServingSpec, stage: str) -> float:
    """Fluid capacity of one node: full batch over its service time."""
    pricing = {
        "tokenize": (spec.tokenize_batch, tokenize_service_time),
        "prefill": (spec.prefill_batch, prefill_service_time),
        "decode": (spec.decode_batch, decode_service_time),
    }
    batch, factory = pricing[stage]
    return batch / factory(spec)(batch)


# ----------------------------------------------------------------------
# The pipeline itself.
# ----------------------------------------------------------------------
class _CountedStage(PricedStage):
    """A priced stage that adds each serve's batch and request totals to
    ``llm.stage.<name>.batches_total`` / ``.requests_total``."""

    def serve(self, queue: RequestQueue) -> StageResult:
        result = super().serve(queue)
        report = result.report
        registry = get_registry()
        if registry.enabled and report.num_batches:
            registry.counter(f"llm.stage.{self.name}.batches_total").inc(
                report.num_batches)
            registry.counter(f"llm.stage.{self.name}.requests_total").inc(
                report.num_requests)
        return result


def build_llm_pipeline(spec: LlmServingSpec = LlmServingSpec(),
                       on_decode_batch: Optional[Callable[..., None]] = None,
                       node_counts: Optional[Dict[str, int]] = None
                       ) -> PipelineEngine:
    """tokenize → prefill → decode as one :class:`PipelineEngine`.

    ``on_decode_batch`` (optional) receives every scheduled decode batch —
    the bench's live probe hangs the real per-token Circuit-ORAM loop off
    it. The priced sweep leaves it ``None``.

    ``node_counts`` (optional, per stage name) prices each stage as a
    *fleet*: the fluid approximation divides the per-batch service time
    by the pool's node count, which is exactly the capacity model the
    pools scale on. Default is one node per stage.
    """
    counts = {"tokenize": 1, "prefill": 1, "decode": 1}
    if node_counts:
        unknown = set(node_counts) - set(counts)
        if unknown:
            raise ValueError(f"unknown stage names {sorted(unknown)}")
        counts.update(node_counts)
    for stage_name, nodes in counts.items():
        check_positive(f"node_counts[{stage_name!r}]", nodes)

    def fleet(price: Callable[[int], float],
              stage_name: str) -> Callable[[int], float]:
        nodes = counts[stage_name]
        if nodes == 1:
            return price
        return lambda batch_size: price(batch_size) / nodes

    stages = [
        _CountedStage("tokenize",
                      BatchingPolicy(max_batch_size=spec.tokenize_batch,
                                     max_wait_seconds=0.0),
                      fleet(tokenize_service_time(spec), "tokenize")),
        _CountedStage("prefill",
                      BatchingPolicy(max_batch_size=spec.prefill_batch,
                                     max_wait_seconds=spec
                                     .prefill_wait_seconds),
                      fleet(prefill_service_time(spec), "prefill")),
        _CountedStage("decode",
                      BatchingPolicy(max_batch_size=spec.decode_batch,
                                     max_wait_seconds=0.0),
                      fleet(decode_service_time(spec), "decode"),
                      on_batch=on_decode_batch),
    ]
    return PipelineEngine(stages)


# ----------------------------------------------------------------------
# Decision-trace audit subjects for the model stages.
# ----------------------------------------------------------------------
def stage_subjects(spec: LlmServingSpec = LlmServingSpec(),
                   prompt_length: int = 24,
                   seed: int = 0) -> List[AuditSubject]:
    """Prefill/decode decision traces (exact), decode memory (structural),
    and the cross-stage composition subject.

    The cross-stage subject threads **one** tracer through all three
    stages' decision planes for the same prompt — the pipeline-level
    claim that chaining oblivious stages stays oblivious (no stage leaks
    into another's region, and the concatenated trace is still a pure
    function of public metadata).
    """
    prompts: Sequence[str] = contrasting_prompts(prompt_length)
    shape = spec.shape

    def prefill_run(tracer: MemoryTracer, secret: str) -> None:
        # Dense prefill touches every prompt position identically; the
        # schedule records one ordinal per position, never the content.
        ids = [ord(symbol) % shape.vocab_size for symbol in secret]
        for ordinal in range(len(ids)):
            tracer.record(READ, PREFILL_REGION, ordinal)

    def decode_plan(tracer: Optional[MemoryTracer],
                    memory_tracer: Optional[MemoryTracer],
                    secret: str) -> None:
        # The per-token loop: each step fetches one embedding per lane
        # through Circuit ORAM. The decision trace records (step, lane)
        # ordinals only; the ORAM hides which vocabulary row each lane
        # wanted.
        ids = [ord(symbol) % shape.vocab_size for symbol in secret]
        oram = CircuitORAM(shape.vocab_size, shape.embed_dim, rng=seed)
        oram.tracer = memory_tracer
        for step in range(spec.new_tokens):
            lane_ids = np.array([ids[step % len(ids)]], dtype=np.int64)
            if tracer is not None:
                for lane in range(lane_ids.size):
                    tracer.record(READ, DECODE_REGION,
                                  step * spec.decode_batch + lane)
            oram.access_batch(lane_ids)

    def decode_run(tracer: MemoryTracer, secret: str) -> None:
        decode_plan(tracer, None, secret)

    def decode_memory_run(tracer: MemoryTracer, secret: str) -> None:
        decode_plan(None, tracer, secret)

    def cross_stage_run(tracer: MemoryTracer, secret: str) -> None:
        ObliviousTokenizer(shape.vocab_size, shape.embed_dim, rng=seed,
                           tracer=tracer).tokenize(secret)
        prefill_run(tracer, secret)
        decode_run(tracer, secret)

    return [
        AuditSubject("llm-prefill", prefill_run, prompts,
                     mode=MODE_EXACT),
        AuditSubject("llm-decode", decode_run, prompts, mode=MODE_EXACT),
        AuditSubject("llm-decode-memory", decode_memory_run, prompts,
                     mode=MODE_STRUCTURAL),
        AuditSubject("llm-cross-stage", cross_stage_run, prompts,
                     mode=MODE_EXACT),
    ]
