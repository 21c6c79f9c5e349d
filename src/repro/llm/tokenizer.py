"""The oblivious tokenizer: square-root ORAM over the vocabulary table.

Tokenization leaks *before the model runs*: a dictionary tokenizer does
one table probe per token, so the probe count and addresses encode where
the token boundaries fall — enough to fingerprint the prompt even if every
later stage is oblivious (the OTRO observation). The fix mirrors the rest
of the library: make the trace a function of public metadata only.

:class:`ObliviousTokenizer` does exactly one
:class:`~repro.oram.SqrtORAM` access per prompt *symbol* — the access
count is the prompt length (public), the decision trace in
``llm.tokenize`` records only the symbol's ordinal, and the vocabulary
probe itself hides inside the square-root ORAM. Two prompts of the same
length are therefore exactly trace-equivalent at the decision plane, and
structurally equivalent at the memory plane (the one revealed store slot
per access is a fresh sample under the secret permutation).

:class:`BoundaryLeakingTokenizer` is the caught negative control: one
direct table probe per whitespace-delimited *word*, so both the probe
count and the probed addresses follow the token boundaries. The audit
must flag it — that is the detector-teeth gate in ``repro.llm.bench``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.oblivious.trace import READ, MemoryTracer
from repro.oram.sqrt_oram import SqrtORAM
from repro.telemetry.audit import (
    MODE_EXACT,
    MODE_STRUCTURAL,
    AuditSubject,
)
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive

#: decision-trace region: one ordinal record per prompt symbol
TOKENIZE_REGION = "llm.tokenize"


def vocabulary_payloads(vocab_size: int, embed_dim: int,
                        rng: SeedLike = None) -> np.ndarray:
    """Deterministic per-token embeddings (the vocabulary table)."""
    return new_rng(rng).standard_normal((vocab_size, embed_dim))


class ObliviousTokenizer:
    """One square-root ORAM access per symbol; trace = prompt length.

    ``tracer`` carries the ``llm.tokenize`` decision trace (ordinal
    records only — exactly equivalent across same-length prompts); the
    backing ORAM's own binding (``oram.tracer``) carries the memory plane,
    audited separately in structural mode. The two planes are
    deliberately separable: the standing audit conventions check each on
    its own tracer.
    """

    def __init__(self, vocab_size: int, embed_dim: int,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None) -> None:
        check_positive("vocab_size", vocab_size)
        check_positive("embed_dim", embed_dim)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.tracer = tracer
        generator = new_rng(rng)
        self.vocabulary = vocabulary_payloads(vocab_size, embed_dim,
                                              generator)
        self.oram = SqrtORAM(vocab_size, embed_dim,
                             initial_payloads=self.vocabulary,
                             rng=generator, region_prefix="llm.vocab")

    # ------------------------------------------------------------------
    def token_ids(self, prompt: str) -> List[int]:
        """Symbol → vocabulary id (content-dependent, never traced)."""
        return [ord(symbol) % self.vocab_size for symbol in prompt]

    def tokenize(self, prompt: str) -> np.ndarray:
        """Embed every symbol; returns ``(len(prompt), embed_dim)``."""
        ids = self.token_ids(prompt)
        out = np.empty((len(ids), self.embed_dim), dtype=np.float64)
        for ordinal, token_id in enumerate(ids):
            if self.tracer is not None:
                self.tracer.record(READ, TOKENIZE_REGION, ordinal)
            out[ordinal] = self.oram.read(token_id)
        registry = get_registry()
        if registry.enabled:
            registry.counter("llm.tokenize.symbols_total").inc(len(ids))
            registry.counter("llm.tokenize.prompts_total").inc()
        return out


class BoundaryLeakingTokenizer:
    """The anti-pattern: one direct probe per word (negative control).

    Probe count == word count and probe addresses == word hashes, so the
    ``llm.tokenize`` trace encodes the prompt's boundary structure. Kept
    only so the bench can prove the auditor catches it; never serve with
    this.
    """

    def __init__(self, vocab_size: int, embed_dim: int,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None) -> None:
        check_positive("vocab_size", vocab_size)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.tracer = tracer
        self.vocabulary = vocabulary_payloads(vocab_size, embed_dim, rng)

    def tokenize(self, prompt: str) -> np.ndarray:
        words = prompt.split()
        out = np.empty((len(words), self.embed_dim), dtype=np.float64)
        for position, word in enumerate(words):
            token_id = sum(ord(symbol) for symbol in word) % self.vocab_size
            if self.tracer is not None:
                self.tracer.record(READ, TOKENIZE_REGION, token_id)
            out[position] = self.vocabulary[token_id]
        return out


# ----------------------------------------------------------------------
# Audit subjects (the standing conventions: decision exact, memory
# structural, negative control expected to leak).
# ----------------------------------------------------------------------
def contrasting_prompts(length: int = 24) -> List[str]:
    """Same-length prompts with maximally different boundary structure."""
    check_positive("length", length)
    one_word = "a" * length
    many_words = ("ab " * length)[:length]
    text = ("the quick onyx goblin " * length)[:length]
    return [one_word, many_words, text]


def tokenizer_subjects(vocab_size: int = 64, embed_dim: int = 8,
                       prompt_length: int = 24,
                       seed: int = 0) -> List[AuditSubject]:
    """The tokenizer's three standing subjects.

    * ``llm-tokenize`` — decision trace, exact mode: same-length prompts
      must produce byte-identical ordinal traces;
    * ``llm-tokenize-memory`` — the backing square-root ORAM's memory
      trace, structural mode (one fresh revealed slot per access);
    * ``llm-tokenize-boundary-leak`` — the per-word tokenizer, exact mode
      with the leak *expected*: the auditor's teeth.
    """
    prompts: Sequence[str] = contrasting_prompts(prompt_length)

    def decision_run(tracer: MemoryTracer, secret: str) -> None:
        ObliviousTokenizer(vocab_size, embed_dim, rng=seed,
                           tracer=tracer).tokenize(secret)

    def memory_run(tracer: MemoryTracer, secret: str) -> None:
        tokenizer = ObliviousTokenizer(vocab_size, embed_dim, rng=seed)
        tokenizer.oram.tracer = tracer
        tokenizer.tokenize(secret)

    def leaky_run(tracer: MemoryTracer, secret: str) -> None:
        BoundaryLeakingTokenizer(vocab_size, embed_dim, rng=seed,
                                 tracer=tracer).tokenize(secret)

    return [
        AuditSubject("llm-tokenize", decision_run, prompts,
                     mode=MODE_EXACT),
        AuditSubject("llm-tokenize-memory", memory_run, prompts,
                     mode=MODE_STRUCTURAL),
        AuditSubject("llm-tokenize-boundary-leak", leaky_run, prompts,
                     mode=MODE_EXACT, expect_oblivious=False),
    ]
