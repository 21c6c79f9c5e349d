"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

The ``*_array`` functions at the end (with ``Linear.infer``) are the
plain-ndarray twins the KV-cache inference path runs, with no autograd
``Tensor`` per op. Each repeats its Tensor op's float sequence exactly —
mean as ``sum * (1.0 / n)``, ``a / b`` as ``a * b ** -1.0``, ``a - b`` as
``a + (b * -1.0)`` — so both give the same bytes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation, as used by GPT-2)."""
    x = as_tensor(x)
    c = math.sqrt(2.0 / math.pi)
    inner = (x + x * x * x * 0.044715) * c
    return x * 0.5 * (inner.tanh() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    x = as_tensor(x)
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (variance + eps) ** -0.5
    return normed * weight + bias


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight convention)."""
    out = as_tensor(x) @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def causal_mask(time: int, past: int = 0) -> np.ndarray:
    """Additive causal mask for ``time`` new queries after ``past`` cached
    keys, shape (time, past + time): query ``i`` sees keys ``0..past+i``
    (0 there, -inf beyond)."""
    mask = np.zeros((time, past + time))
    mask[np.triu_indices(time, k=past + 1, m=past + time)] = -np.inf
    return mask


# ----------------------------------------------------------------------
# ndarray twins (inference only)
# ----------------------------------------------------------------------
def gelu_array(x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    inner = (x + x * x * x * 0.044715) * c
    return x * 0.5 * (np.tanh(inner) + 1.0)


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    exps = np.exp(x + (x.max(axis=axis, keepdims=True) * -1.0))
    return exps * exps.sum(axis=axis, keepdims=True) ** -1.0


def layer_norm_array(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    scale = 1.0 / x.shape[-1]
    centered = x + (x.sum(axis=-1, keepdims=True) * scale) * -1.0
    variance = (centered * centered).sum(axis=-1, keepdims=True) * scale
    return centered * (variance + eps) ** -0.5 * weight + bias
