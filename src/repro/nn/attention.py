"""Multi-head causal self-attention with an incremental KV cache.

Implements the attention block used by the GPT-2 reproduction, including the
two inference stages the paper distinguishes:

* **prefill** — the whole prompt is processed at once (large embedding batch),
* **decode** — one token per step, reusing cached keys/values.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


class KVCache:
    """Per-layer cached keys and values.

    The buffers, shape (batch, heads, capacity, head_dim), are allocated on
    the first :meth:`append` and written in place; :attr:`keys` and
    :attr:`values` are views of the filled prefix. ``GPT.new_caches``
    sizes ``capacity`` from the model's context length.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.length = 0
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    def append(self, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Write new keys/values after the cached ones; return views of
        the whole filled cache."""
        end = self.length + k.shape[2]
        if end > self.capacity:
            raise ValueError(f"KV cache of capacity {self.capacity} cannot "
                             f"hold {end} positions")
        if self._keys is None:
            batch, heads, _, head_dim = k.shape
            self._keys = np.empty((batch, heads, self.capacity, head_dim), k.dtype)
            self._values = np.empty_like(self._keys)
        self._keys[:, :, self.length:end] = k
        self._values[:, :, self.length:end] = v
        self.length = end
        return self.keys, self.values

    @property
    def keys(self) -> Optional[np.ndarray]:
        return None if self._keys is None else self._keys[:, :, :self.length]

    @property
    def values(self) -> Optional[np.ndarray]:
        return None if self._values is None else self._values[:, :, :self.length]


def _check_cached_input(module: Module, x, dropouts) -> None:
    """The cached path takes ndarrays and has eval semantics: refuse a
    ``Tensor`` and refuse live dropout rather than skip it silently."""
    if isinstance(x, Tensor):
        raise TypeError("a cached forward takes an np.ndarray, not a Tensor "
                        "(it builds no autograd graph)")
    if module.training and any(dropout.p > 0 for dropout in dropouts):
        raise ValueError("call eval() before a cached forward: dropout is "
                         "live in training mode")


class MultiHeadSelfAttention(Module):
    """Causal multi-head self-attention (GPT-2 style, fused QKV projection)."""

    def __init__(self, embed_dim: int, num_heads: int, dropout: float = 0.0,
                 rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("embed_dim", embed_dim)
        check_positive("num_heads", num_heads)
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim {embed_dim} must be divisible by num_heads {num_heads}")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        generator = new_rng(rng)
        self.qkv = Linear(embed_dim, 3 * embed_dim, rng=generator)
        self.proj = Linear(embed_dim, embed_dim, rng=generator)
        self.attn_dropout = Dropout(dropout, rng=generator)

    def _split_heads(self, x, batch: int, time: int):
        # (B, T, C) -> (B, H, T, Hd), on a Tensor or an ndarray
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x, cache: Optional[KVCache] = None):
        """Attend over ``x`` (and the cache, if given).

        Without a cache, ``x`` is a :class:`Tensor` and the autograd graph
        is built. With a cache, ``x`` is an ``np.ndarray`` holding only the
        *new* positions (prefill or decode step), cached keys/values supply
        the history, and the result is an ndarray: inference only, in eval
        mode, byte-equal to the Tensor ops.
        """
        if cache is None:
            return self._attend(x)
        _check_cached_input(self, x, (self.attn_dropout,))
        batch, time, _ = x.shape
        qkv = self.qkv.infer(x)
        q = self._split_heads(qkv[:, :, : self.embed_dim], batch, time)
        past = cache.length
        k, v = cache.append(
            self._split_heads(qkv[:, :, self.embed_dim: 2 * self.embed_dim], batch, time),
            self._split_heads(qkv[:, :, 2 * self.embed_dim:], batch, time))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.head_dim))
        if time > 1:
            scores = scores + F.causal_mask(time, past)
        out = F.softmax_array(scores, axis=-1) @ v  # (B, H, T, Hd)
        out = out.transpose(0, 2, 1, 3).reshape(batch, time, self.embed_dim)
        return self.proj.infer(out)

    def _attend(self, x: Tensor) -> Tensor:
        batch, time, _ = x.shape
        qkv = self.qkv(x)
        q = self._split_heads(qkv[:, :, : self.embed_dim], batch, time)
        k = self._split_heads(qkv[:, :, self.embed_dim: 2 * self.embed_dim], batch, time)
        v = self._split_heads(qkv[:, :, 2 * self.embed_dim:], batch, time)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.head_dim))
        if time > 1:
            scores = scores + Tensor(F.causal_mask(time))
        attn = F.softmax(scores, axis=-1)
        attn = self.attn_dropout(attn)
        out = attn @ v  # (B, H, T, Hd)
        out = out.transpose(0, 2, 1, 3).reshape(batch, time, self.embed_dim)
        return self.proj(out)


class TransformerBlock(Module):
    """Pre-LN transformer block: LN → attention → residual, LN → MLP → residual."""

    def __init__(self, embed_dim: int, num_heads: int, mlp_ratio: int = 4,
                 dropout: float = 0.0, rng: SeedLike = None) -> None:
        super().__init__()
        from repro.nn.layers import GELU, LayerNorm, Sequential  # local to avoid cycle

        generator = new_rng(rng)
        self.ln1 = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(embed_dim, num_heads, dropout=dropout,
                                           rng=generator)
        self.ln2 = LayerNorm(embed_dim)
        self.mlp = Sequential(
            Linear(embed_dim, mlp_ratio * embed_dim, rng=generator),
            GELU(),
            Linear(mlp_ratio * embed_dim, embed_dim, rng=generator),
        )
        self.resid_dropout = Dropout(dropout, rng=generator)

    def forward(self, x, cache: Optional[KVCache] = None):
        """A ``Tensor`` through the autograd graph, or, with a cache, an
        ``np.ndarray`` through the inference path (see
        :meth:`MultiHeadSelfAttention.forward`)."""
        if cache is None:
            x = x + self.resid_dropout(self.attn(self.ln1(x)))
            return x + self.resid_dropout(self.mlp(self.ln2(x)))
        _check_cached_input(self, x, (self.resid_dropout,))
        x = x + self.attn(self.ln1.infer(x), cache=cache)
        return x + self.mlp.infer(self.ln2.infer(x))
