"""A GPT-2-architecture decoder-only transformer (Fig 1(b), §VI-A3).

The token-embedding layer is a pluggable
:class:`~repro.embedding.EmbeddingGenerator` — table lookup, linear scan,
ORAM-protected table, or DHE — which is exactly the design axis the paper's
LLM study varies. Everything downstream (positions, attention, MLPs, the
output head) has deterministic, shape-only access patterns (§V-C).

The output head follows GPT-2's weight tying where possible: with a table
embedding the same matrix produces logits; with DHE the head keeps its own
(vocab x dim) matrix, matching the paper's memory accounting (DHE *adds*
parameters to the model, §VI-D3).

Inference implements the two stages the paper measures separately:
``prefill`` processes the whole prompt (a large embedding batch) and fills
the KV cache; ``decode_step`` generates one token reusing it. Greedy
sampling uses the oblivious cmov argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.embedding.base import EmbeddingGenerator
from repro.embedding.table import TableEmbedding
from repro.nn.attention import KVCache, TransformerBlock
from repro.nn.layers import LayerNorm
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.oblivious.primitives import oblivious_argmax_vectorized
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GPTConfig:
    """Model hyper-parameters (GPT-2 medium: 1024 dim, 24 layers, 16 heads)."""

    vocab_size: int = 50257
    embed_dim: int = 1024
    num_layers: int = 24
    num_heads: int = 16
    context_length: int = 1024
    dropout: float = 0.0

    def __post_init__(self) -> None:
        check_positive("vocab_size", self.vocab_size)
        check_positive("embed_dim", self.embed_dim)
        check_positive("num_layers", self.num_layers)
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")


def tiny_config(vocab_size: int = 128, embed_dim: int = 32, num_layers: int = 2,
                num_heads: int = 2, context_length: int = 64) -> GPTConfig:
    """A trainable-in-seconds configuration for tests and examples."""
    return GPTConfig(vocab_size=vocab_size, embed_dim=embed_dim,
                     num_layers=num_layers, num_heads=num_heads,
                     context_length=context_length)


class GPT(Module):
    """Decoder-only transformer with a pluggable token-embedding generator."""

    def __init__(self, config: GPTConfig,
                 token_embedding: Optional[EmbeddingGenerator] = None,
                 rng: SeedLike = None) -> None:
        super().__init__()
        self.config = config
        generator = new_rng(rng)
        if token_embedding is None:
            token_embedding = TableEmbedding(config.vocab_size,
                                             config.embed_dim, rng=generator)
        if token_embedding.num_embeddings != config.vocab_size \
                or token_embedding.embedding_dim != config.embed_dim:
            raise ValueError("token embedding shape does not match config")
        self.token_embedding = token_embedding
        self.position_embedding = Parameter(
            generator.normal(0.0, 0.02,
                             size=(config.context_length, config.embed_dim)))
        self.blocks: List[TransformerBlock] = []
        for layer in range(config.num_layers):
            block = TransformerBlock(config.embed_dim, config.num_heads,
                                     dropout=config.dropout, rng=generator)
            self.blocks.append(block)
            setattr(self, f"block{layer}", block)
        self.ln_f = LayerNorm(config.embed_dim)

        # Weight tying: reuse the table when the generator has one.
        tied = getattr(token_embedding, "weight", None)
        if tied is not None and tied.shape == (config.vocab_size,
                                               config.embed_dim):
            self.lm_head_weight = tied
            self.tied_head = True
        else:
            self.lm_head_weight = Parameter(
                generator.normal(0.0, 0.02,
                                 size=(config.vocab_size, config.embed_dim)))
            self.tied_head = False

    # ------------------------------------------------------------------
    def _embed(self, tokens: np.ndarray, position_offset: int = 0) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, time), got {tokens.shape}")
        time = tokens.shape[1]
        if position_offset + time > self.config.context_length:
            raise ValueError(
                f"sequence of {position_offset + time} exceeds context "
                f"{self.config.context_length}")
        token_vecs = self.token_embedding(tokens)
        positions = self.position_embedding[
            position_offset: position_offset + time]
        return token_vecs + positions

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Teacher-forcing logits, shape (batch, time, vocab)."""
        x = self._embed(tokens)
        for block in self.blocks:
            x = block(x)
        x = self.ln_f(x)
        return x @ self.lm_head_weight.transpose()

    # ------------------------------------------------------------------
    # Two-stage inference
    # ------------------------------------------------------------------
    def new_caches(self) -> List[KVCache]:
        return [KVCache(self.config.context_length) for _ in self.blocks]

    def _cached_logits(self, tokens: np.ndarray, caches: List[KVCache],
                       position_offset: int) -> Tensor:
        """Last-position logits through the KV caches, on plain ndarrays
        from the embedding output to the logits (``forward`` is the
        training path). Eval semantics only: live dropout is refused."""
        if self.training and self.config.dropout > 0:
            raise ValueError("call eval() before prefill/decode_step")
        x = self._embed(tokens, position_offset=position_offset).data
        for block, cache in zip(self.blocks, caches):
            x = block(x, cache=cache)
        x = self.ln_f.infer(x)
        return Tensor(x[:, -1, :] @ self.lm_head_weight.data.T)

    def prefill(self, tokens: np.ndarray,
                caches: List[KVCache]) -> Tensor:
        """Process the prompt; returns logits at the final position."""
        return self._cached_logits(tokens, caches, 0)

    def decode_step(self, tokens: np.ndarray,
                    caches: List[KVCache]) -> Tensor:
        """One autoregressive step; ``tokens`` is (batch, 1)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[1] != 1:
            raise ValueError(f"decode step expects (batch, 1), got {tokens.shape}")
        return self._cached_logits(tokens, caches, caches[0].length)

    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 oblivious_sampling: bool = True,
                 top_k: Optional[int] = None, temperature: float = 1.0,
                 rng=None) -> np.ndarray:
        """Autoregressive generation; returns (batch, prompt+new) tokens.

        Greedy by default. With ``top_k`` set, stochastic top-k/temperature
        sampling is used instead. With ``oblivious_sampling`` the selection
        runs through the constant-trace cmov primitives (§V-C and the
        oblivious top-k extension); otherwise plain numpy.
        """
        check_positive("max_new_tokens", max_new_tokens)
        prompt = np.asarray(prompt, dtype=np.int64)
        if prompt.ndim != 2:
            raise ValueError("prompt must be (batch, time)")
        self.eval()
        caches = self.new_caches()
        logits = self.prefill(prompt, caches)
        sequence = prompt.copy()
        generator = new_rng(rng)
        for _ in range(max_new_tokens):
            next_tokens = self._pick_tokens(logits.data, oblivious_sampling,
                                            top_k, temperature, generator)
            sequence = np.concatenate([sequence, next_tokens[:, None]], axis=1)
            if sequence.shape[1] >= self.config.context_length:
                break
            logits = self.decode_step(next_tokens[:, None], caches)
        return sequence

    @staticmethod
    def _pick_tokens(logits: np.ndarray, oblivious: bool,
                     top_k: Optional[int], temperature: float,
                     rng: np.random.Generator) -> np.ndarray:
        if top_k is None:
            if oblivious:
                return np.array([oblivious_argmax_vectorized(row)
                                 for row in logits],
                                dtype=np.int64)
            return logits.argmax(axis=-1).astype(np.int64)
        if oblivious:
            from repro.oblivious.sampling import oblivious_sample_batch

            return oblivious_sample_batch(logits, top_k,
                                          temperature=temperature, rng=rng)
        tokens = []
        for row in logits:
            order = np.argsort(row)[::-1][:top_k]
            scaled = row[order] / temperature
            weights = np.exp(scaled - scaled.max())
            tokens.append(rng.choice(order, p=weights / weights.sum()))
        return np.array(tokens, dtype=np.int64)

    # ------------------------------------------------------------------
    def num_non_embedding_parameters(self) -> int:
        """Parameter count excluding token-embedding/head (for footprints)."""
        skip = {id(self.lm_head_weight)}
        emb_param = getattr(self.token_embedding, "weight", None)
        if emb_param is not None:
            skip.add(id(emb_param))
        seen = set()
        total = 0
        for _, param in self.named_parameters():
            if id(param) in skip or id(param) in seen:
                continue
            seen.add(id(param))
            total += param.size
        return total
