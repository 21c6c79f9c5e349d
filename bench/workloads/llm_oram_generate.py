"""``llm_oram_generate``: the paper's DHE-prefill / Circuit-ORAM-decode LLM.

One op is one generation request at batch 1: the square-root-ORAM
tokenizer embeds the 8 prompt symbols, ``GPT.prefill`` runs with the DHE
token embedding, the first token is chosen with the oblivious argmax, and
8 decode steps follow, each fetching its token's embedding row from a
Circuit ORAM (§IV-D). The flat position-map scan, the stash, the bucket
tree, the sqrt ORAM and the scalar ``ct_*`` primitives do almost
everything here and DHE almost nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.costmodel.latency import DheShape
from repro.embedding import CircuitOramEmbedding, DHEEmbedding, TableEmbedding
from repro.llm import ObliviousTokenizer
from repro.models.gpt import GPT, GPTConfig
from repro.oblivious.primitives import oblivious_argmax_vectorized

from bench import probes
from bench.trace import SpanRecorder, durations
from bench.workloads.base import (
    Workload,
    calls_per_op,
    counter_value,
    digest_arrays,
    instrument_oram,
    oram_counts,
)

VOCAB, DIM, LAYERS, HEADS, CONTEXT = 2048, 64, 4, 4, 64
PROMPT_SYMBOLS = 8
DECODE_STEPS = 8
POOL = 32
DHE_SEED, GPT_SEED, ORAM_SEED, TOKENIZER_SEED = 2101, 2102, 2103, 2104


class LlmOramGenerate(Workload):
    name = "llm_oram_generate"
    work_unit = "generated tokens"
    warmup_ops = 3
    traced_ops = 12

    def make_inputs(self) -> str:
        rng = np.random.default_rng(self.seed)
        codes = rng.integers(0x21, 0x21 + VOCAB, size=(POOL, PROMPT_SYMBOLS))
        self.pool = ["".join(chr(int(c)) for c in row) for row in codes]
        return digest_arrays([codes])

    def setup(self) -> None:
        config = GPTConfig(vocab_size=VOCAB, embed_dim=DIM, num_layers=LAYERS,
                           num_heads=HEADS, context_length=CONTEXT)
        self.dhe = DHEEmbedding(
            VOCAB, DIM, shape=DheShape(k=128, fc_sizes=(128, 128),
                                       out_dim=DIM), rng=DHE_SEED)
        self.table = self.dhe.materialize_table()
        self.oram_embedding = CircuitOramEmbedding(
            VOCAB, DIM, weight=self.table, rng=ORAM_SEED)
        # Prefill and decode are separate replicas of one model (same
        # seed, so identical weights): the prefill replica embeds with the
        # DHE, the decode replica reads the materialised table through
        # the Circuit ORAM.
        self.prefill_gpt = GPT(config, token_embedding=self.dhe,
                               rng=GPT_SEED).eval()
        self.decode_gpt = GPT(config, token_embedding=self.oram_embedding,
                              rng=GPT_SEED).eval()
        self.tokenizer = ObliviousTokenizer(VOCAB, DIM, rng=TOKENIZER_SEED)
        self.argmax = oblivious_argmax_vectorized
        self.config = config
        self.generated: Dict[str, List[int]] = {}

    def op(self, prompt: str):
        start = perf_counter()
        vectors = self.tokenizer.tokenize(prompt)
        ids = np.asarray(self.tokenizer.token_ids(prompt))[None, :]
        caches = self.prefill_gpt.new_caches()
        logits = self.prefill_gpt.prefill(ids, caches)
        token = self.argmax(logits.data[0])
        stamps = [perf_counter()]
        tokens = [token]
        for _ in range(DECODE_STEPS):
            logits = self.decode_gpt.decode_step(np.array([[token]]), caches)
            token = self.argmax(logits.data[0])
            tokens.append(token)
            stamps.append(perf_counter())
        return vectors, tokens, stamps[0] - start, np.diff(stamps)

    def work(self, out) -> int:
        return len(out[1])

    def after_op(self, index: int, prompt: str, out) -> bool:
        vectors, tokens, ttft, gaps = out
        self.samples.setdefault("ttft_ms", []).append(ttft * 1e3)
        self.samples.setdefault("tbt_ms", []).extend((gaps * 1e3).tolist())
        expected = self.tokenizer.vocabulary[self.tokenizer.token_ids(prompt)]
        known = self.generated.setdefault(prompt, tokens)
        return bool(np.array_equal(vectors, expected)) and known == tokens

    def final_check(self) -> List[str]:
        """Every prompt's tokens against a reference decode that reads the
        materialised table directly (bit-identical rows, so identical
        ids)."""
        lookup = TableEmbedding(VOCAB, DIM, rng=0)
        lookup.weight.data[...] = self.table
        reference = GPT(self.config, token_embedding=lookup,
                        rng=GPT_SEED).eval()
        # A table embedding ties the output head to the table; the served
        # model (DHE/ORAM embeddings) has an untied head, so share it.
        reference.lm_head_weight = self.decode_gpt.lm_head_weight
        errors = []
        for prompt, tokens in self.generated.items():
            ids = np.asarray(self.tokenizer.token_ids(prompt))[None, :]
            caches = self.prefill_gpt.new_caches()
            logits = self.prefill_gpt.prefill(ids, caches)
            expected = [oblivious_argmax_vectorized(logits.data[0])]
            for _ in range(DECODE_STEPS):
                logits = reference.decode_step(
                    np.array([[expected[-1]]]), caches)
                expected.append(oblivious_argmax_vectorized(logits.data[0]))
            if expected != tokens:
                errors.append(f"prompt {prompt!r}: generated {tokens}, "
                              f"reference {expected}")
        return errors

    # -- traced run ------------------------------------------------------
    def _orams(self):
        return [self.tokenizer.oram, self.oram_embedding.oram]

    def instrument(self, rec: SpanRecorder) -> None:
        rec.wrap(self.tokenizer, "tokenize", "llm.tokenize")
        instrument_oram(rec, self.tokenizer.oram, "sqrt")
        rec.wrap(self.prefill_gpt, "prefill", "gpt.prefill")
        rec.wrap(self.dhe, "forward", "dhe.forward")
        rec.wrap(self.dhe.encoder, "encode", "dhe.encode")
        rec.wrap(self.dhe.decoder, "forward", "dhe.decode")
        rec.wrap(self, "argmax", "oblivious.argmax")
        rec.wrap(self.decode_gpt, "decode_step", "gpt.decode_step")
        rec.wrap(self.oram_embedding, "forward", "oram_embedding.forward")
        instrument_oram(rec, self.oram_embedding.oram, "circuit")
        for gpt in (self.prefill_gpt, self.decode_gpt):
            for block in gpt.blocks:
                rec.wrap(block, "forward", "nn.block")

    def counts(self) -> Dict[str, float]:
        out = oram_counts(self._orams())
        out["dhe_queries"] = counter_value("embedding.dhe.queries_total")
        out["symbols"] = counter_value("llm.tokenize.symbols_total")
        out["reshuffles"] = float(self.tokenizer.oram.stats.eviction_passes)
        return out

    def layer_metrics(self, spans, ops, counts) -> Dict[str, float]:
        symbol_ms = durations(spans, "oram.sqrt.access")
        return {
            "posmap.flat_calls": calls_per_op(spans, "posmap.flat", ops),
            "posmap.ops_per_access": counts["posmap_ops"] / counts["accesses"],
            "stash.calls": calls_per_op(spans, "stash", ops),
            "stash.peak_occupancy": float(max(
                oram.stash.peak_occupancy for oram in self._orams())),
            "tree.bucket_reads": counts["bucket_reads"] / ops,
            "tree.bucket_writes": counts["bucket_writes"] / ops,
            "oram.sqrt.reshuffles": counts["reshuffles"] / ops,
            "dhe.queries": counts["dhe_queries"] / ops,
            "tokenize.symbols": counts["symbols"] / ops,
            "tokenize.symbol_ms_p50": float(np.median(symbol_ms)) * 1e3,
        }

    def probes(self, quick: bool) -> Dict[str, float]:
        out = probes.oram_probes(quick)
        out["oblivious.ct_scalar_us"] = probes.scalar_primitives_us(
            2_000 if quick else 50_000)
        out["oblivious.argmax_us"] = probes.argmax_us(2 if quick else 50)
        return out
