"""End-to-end oblivious LLM serving: tokenize → prefill → decode.

The package assembles the three-stage pipeline the paper's §VI-D serves
one stage at a time:

* :mod:`repro.llm.tokenizer` — an oblivious tokenizer backed by the
  square-root ORAM (:class:`~repro.oram.SqrtORAM`), closing the
  token-boundary side channel *upstream* of the model, with the
  boundary-leaking tokenizer kept as the audit's negative control;
* :mod:`repro.llm.stages` — the tokenize / prefill / decode stages as
  :class:`~repro.serving.PricedStage`\\ s over the cost model (prefill
  throughput-bound batched DHE, decode latency-bound Circuit ORAM with a
  per-token loop), plus their decision-trace audit subjects;
* :mod:`repro.llm.pools` — one independently autoscaled pool per stage,
  each an :class:`~repro.cluster.autoscale.ElasticFleet` (its own plan
  epochs, secret-free signal plane and hysteresis controller) priced as
  fluid per-node capacity;
* :mod:`repro.llm.bench` — the gated simulator
  (``python -m repro.llm.bench``; registry id ``llm``).
"""

from repro.llm.pools import StagePool
from repro.llm.stages import (
    DECODE_REGION,
    PREFILL_REGION,
    LlmServingSpec,
    SIM_SHAPE,
    build_llm_pipeline,
    stage_subjects,
)
from repro.llm.tokenizer import (
    TOKENIZE_REGION,
    BoundaryLeakingTokenizer,
    ObliviousTokenizer,
    contrasting_prompts,
    tokenizer_subjects,
)

__all__ = [
    "BoundaryLeakingTokenizer",
    "DECODE_REGION",
    "LlmServingSpec",
    "ObliviousTokenizer",
    "PREFILL_REGION",
    "SIM_SHAPE",
    "StagePool",
    "TOKENIZE_REGION",
    "build_llm_pipeline",
    "contrasting_prompts",
    "stage_subjects",
    "tokenizer_subjects",
]
