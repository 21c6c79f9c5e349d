"""Core neural-network layers: Linear, activations, LayerNorm, MLP, Embedding."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with Kaiming-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        generator = new_rng(rng)
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features,
                                 rng=generator))
        self.bias = (Parameter(init.kaiming_uniform((out_features,), fan_in=in_features,
                                                    rng=generator))
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data.T
        return out if self.bias is None else out + self.bias.data

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Tensor.relu's product, not np.maximum: negatives become -0.0.
        return x * (x > 0)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.gelu_array(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.1, rng: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalisation over the final dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        check_positive("dim", dim)
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.layer_norm_array(x, self.weight.data, self.bias.data,
                                  eps=self.eps)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = list(modules)
        for index, module in enumerate(self._ordered):
            setattr(self, f"layer{index}", module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for module in self._ordered:
            x = module.infer(x)
        return x

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    ``layer_sizes`` lists every width including input and output, matching
    the paper's "512-256-64-16" notation for DLRM bottom/top FCs.
    """

    def __init__(self, layer_sizes: Sequence[int], activation: str = "relu",
                 final_activation: Optional[str] = None, rng: SeedLike = None) -> None:
        super().__init__()
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layer_sizes = tuple(layer_sizes)
        generator = new_rng(rng)
        modules: List[Module] = []
        last = len(layer_sizes) - 2
        for index, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            modules.append(Linear(n_in, n_out, rng=generator))
            act = activation if index < last else final_activation
            if act is not None:
                modules.append(_make_activation(act))
        self.body = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.body.infer(x)


def _make_activation(name: str) -> Module:
    activations = {"relu": ReLU, "gelu": GELU, "sigmoid": Sigmoid, "tanh": Tanh}
    if name not in activations:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(activations)}")
    return activations[name]()


class EmbeddingTable(Module):
    """A trainable lookup table (the *non-secure* storage-based method).

    Forward is a plain row gather — exactly the operation whose index the
    paper shows leaking through the cache side channel.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: SeedLike = None) -> None:
        super().__init__()
        check_positive("num_embeddings", num_embeddings)
        check_positive("embedding_dim", embedding_dim)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scale = 1.0 / math.sqrt(embedding_dim)
        self.weight = Parameter(
            new_rng(rng).uniform(-scale, scale, size=(num_embeddings, embedding_dim)))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"index out of range for table of {self.num_embeddings} rows")
        return self.weight.gather_rows(indices)
