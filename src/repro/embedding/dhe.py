"""Deep Hash Embedding (Algorithm 1; Kang et al., repurposed for security).

Pipeline per categorical value ``x``:

1. **Encode**: ``y_j = ((a_j * x + b_j) mod p) mod m`` for ``k`` universal
   hash functions (Carter-Wegman), with bucket size ``m = 1e6``;
2. **Scale**: map each ``y_j`` uniformly into ``[-1, 1]``;
3. **Decode**: feed the length-``k`` real vector through an FC stack to
   produce the embedding.

Security: both the hashing (vectorised arithmetic over the whole batch) and
the FC stack (dense matmuls + branchless ReLU) touch memory in a pattern
fixed by the *shapes*, never by the value of ``x`` — DHE is oblivious by
construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.costmodel.latency import DheShape, dhe_latency, dhe_varied_shape
from repro.costmodel.memory import dhe_bytes
from repro.embedding.base import EmbeddingGenerator
from repro.nn.layers import MLP
from repro.nn.tensor import Tensor
from repro.oblivious.trace import MemoryTracer, TracedArray
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng

#: Algorithm 1: hash bucket size m = 1e6.
DEFAULT_BUCKETS = 1_000_000
#: A Mersenne prime comfortably above m; a_j, b_j are drawn below it.
UNIVERSAL_PRIME = (1 << 61) - 1


class UniversalHashEncoder:
    """The k-fold Carter-Wegman integer encoder of DHE's first two steps."""

    def __init__(self, k: int, num_buckets: int = DEFAULT_BUCKETS,
                 prime: int = UNIVERSAL_PRIME, rng: SeedLike = None) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if num_buckets <= 1:
            raise ValueError(f"num_buckets must exceed 1, got {num_buckets}")
        if prime <= num_buckets:
            raise ValueError("prime must exceed num_buckets")
        self.k = k
        self.num_buckets = num_buckets
        self.prime = prime
        generator = new_rng(rng)
        # a_j in [1, p), b_j in [0, p) — the classic universal family.
        self.a = generator.integers(1, prime, size=k, dtype=np.uint64)
        self.b = generator.integers(0, prime, size=k, dtype=np.uint64)

    def hash_values(self, indices: np.ndarray) -> np.ndarray:
        """Integer hash matrix of shape (batch, k)."""
        indices = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
        # Python-object arithmetic avoids uint64 overflow in a*x+b mod p;
        # arrays stay index-shape-only, so the pattern leaks nothing.
        a = self.a.astype(object)
        b = self.b.astype(object)
        hashed = (indices.astype(object) * a + b) % self.prime % self.num_buckets
        return hashed.astype(np.int64)

    def encode(self, indices: np.ndarray) -> np.ndarray:
        """Real-valued encoding in [-1, 1], shape (batch, k) (Algorithm 1 step 2)."""
        hashed = self.hash_values(indices)
        return hashed.astype(np.float64) / (self.num_buckets - 1) * 2.0 - 1.0


class DHEEmbedding(EmbeddingGenerator):
    """Computation-based embedding generator; trainable end-to-end."""

    technique = "dhe"
    is_oblivious = True

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 shape: Optional[DheShape] = None,
                 k: int = 1024, fc_sizes: Sequence[int] = (512, 256),
                 num_buckets: int = DEFAULT_BUCKETS,
                 rng: SeedLike = None) -> None:
        super().__init__(num_embeddings, embedding_dim)
        if shape is None:
            shape = DheShape(k=k, fc_sizes=tuple(fc_sizes),
                             out_dim=embedding_dim)
        if shape.out_dim != embedding_dim:
            raise ValueError(
                f"shape.out_dim {shape.out_dim} != embedding_dim {embedding_dim}")
        self.shape = shape
        generator = new_rng(rng)
        self.encoder = UniversalHashEncoder(shape.k, num_buckets=num_buckets,
                                            rng=generator)
        self.decoder = MLP([shape.k, *shape.fc_sizes, embedding_dim],
                           activation="relu", rng=generator)

    @classmethod
    def varied(cls, num_embeddings: int, embedding_dim: int,
               uniform_shape: DheShape, rng: SeedLike = None,
               **kwargs) -> "DHEEmbedding":
        """Build the Varied-sized DHE for this table (§IV-B1)."""
        shape = dhe_varied_shape(num_embeddings, uniform_shape)
        return cls(num_embeddings, embedding_dim, shape=shape, rng=rng, **kwargs)

    # ------------------------------------------------------------------
    def forward(self, indices) -> Tensor:
        indices = self._check_indices(indices)
        registry = get_registry()
        flat = indices.reshape(-1)
        with registry.span("embedding.dhe.forward", batch=int(flat.size),
                           k=self.shape.k):
            encoded = self.encoder.encode(flat)
            decoded = self._decode(encoded)
        registry.counter("embedding.dhe.queries_total").inc(int(flat.size))
        return decoded.reshape(*indices.shape, self.embedding_dim)

    def _decode(self, encoded: np.ndarray) -> Tensor:
        """Run the FC stack: eager by default, captured under a lazy runtime.

        When a :mod:`repro.lazy` runtime is active and the module is in
        eval mode, the decoder is recorded once per (batch shape, DHE
        shape) and replayed from the runtime's graph cache — byte-identical
        to the eager stack (the trace-parity tests pin this), but with one
        fused kernel launch per layer instead of one Python dispatch per
        tensor op. Training and default (no runtime) execution stay eager.
        """
        from repro.lazy.runtime import get_active_runtime

        runtime = get_active_runtime()
        if runtime is None or self.training or encoded.size == 0:
            return self.decoder(Tensor(encoded))
        from repro.lazy.capture import capture

        key = ("dhe.decode", id(self), self.shape, encoded.shape)
        graph = runtime.captured(key, lambda: capture(
            lambda buf: self.decoder(Tensor(buf)), [encoded],
            runtime=runtime, name=f"dhe.decode.b{encoded.shape[0]}"))
        return Tensor(graph(encoded))

    def generate_traced(self, indices, tracer: MemoryTracer) -> np.ndarray:
        """DHE generation with its (shape-fixed) weight sweeps recorded.

        The hash step is pure arithmetic over registers; the decoder's dense
        matmuls read every weight row of every layer in an order fixed by
        the shapes alone. Recording those sweeps against the tracer makes
        DHE auditable by the same trace-equivalence machinery as the scan.
        """
        indices = self._check_indices(indices).reshape(-1)
        out = self.forward(indices).data
        for name, param in self.decoder.named_parameters():
            TracedArray(param.data, name=f"dhe.{name}",
                        tracer=tracer).read_all()
        return out

    def materialize_table(self, batch_size: int = 4096) -> np.ndarray:
        """Emit the full (n, dim) table of DHE outputs.

        This is Algorithm 2's offline step: trained DHEs below the hybrid
        threshold are converted to tables for linear scan at inference.
        """
        rows = np.empty((self.num_embeddings, self.embedding_dim))
        for start in range(0, self.num_embeddings, batch_size):
            stop = min(start + batch_size, self.num_embeddings)
            rows[start:stop] = self.forward(np.arange(start, stop)).data
        return rows

    # ------------------------------------------------------------------
    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return dhe_latency(self.shape, batch, threads)

    def footprint_bytes(self) -> int:
        return dhe_bytes(self.shape)
