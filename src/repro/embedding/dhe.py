"""Deep Hash Embedding (Algorithm 1; Kang et al., repurposed for security).

Pipeline per categorical value ``x``:

1. **Encode**: ``y_j = ((a_j * x + b_j) mod p) mod m`` for ``k`` universal
   hash functions (Carter-Wegman), with bucket size ``m = 1e6``;
2. **Scale**: map each ``y_j`` uniformly into ``[-1, 1]``;
3. **Decode**: feed the length-``k`` real vector through an FC stack to
   produce the embedding.

Security: both the hashing (vectorised arithmetic over the whole batch, on
uint64 arrays split into 32-bit limbs) and the FC stack (dense matmuls +
branchless ReLU) touch memory in a pattern fixed by the *shapes*, never by
the value of ``x`` — DHE is oblivious by construction.

In eval mode the FC stack runs on plain ndarrays (``MLP.infer``); one
:class:`~repro.nn.tensor.Tensor` wraps the result at the generator
boundary. Training builds the autograd graph as usual.
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
from repro.utils.validation import integer_indices

#: Algorithm 1: hash bucket size m = 1e6.
DEFAULT_BUCKETS = 1_000_000
#: A Mersenne prime comfortably above m; a_j, b_j are drawn below it.
UNIVERSAL_PRIME = (1 << 61) - 1

# uint64 constants of the limb arithmetic: numpy 1.x can promote uint64 mixed
# with a Python int to float64, so every operand stays an np.uint64.
_P = np.uint64(UNIVERSAL_PRIME)
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)
_U3, _U29, _U32, _U61 = (np.uint64(n) for n in (3, 29, 32, 61))


def _mulmod_p(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A value ``< 3 * 2^61 + 2^34`` congruent to ``a * x`` mod ``p = 2^61 - 1``.

    For ``a, x < p``. Both factors are split into 32-bit limbs and the
    partial products are folded with ``2^61 = 1`` and ``2^64 = 8 (mod p)``:
    three summands stay below ``2^61`` and two below ``2^34``, so nothing
    wraps. The caller finishes the reduction.
    """
    a_hi, a_lo = a >> _U32, a & _LOW32          # a_hi < 2^29
    x_hi, x_lo = x >> _U32, x & _LOW32
    high = a_hi * x_hi                          # < 2^58, weight 2^64 = 8
    middle = a_hi * x_lo + a_lo * x_hi          # < 2^62, weight 2^32
    low = a_lo * x_lo                           # < 2^64
    return ((high << _U3) + (middle >> _U29) + ((middle & _LOW29) << _U32)
            + (low >> _U61) + (low & _P))


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
        if prime != UNIVERSAL_PRIME:
            raise ValueError(
                f"the limb reduction is specific to p = 2^61 - 1, got {prime}")
        self.k = k
        self.num_buckets = num_buckets
        self.prime = prime
        generator = new_rng(rng)
        # a_j in [1, p), b_j in [0, p) — the classic universal family.
        self.a = generator.integers(1, prime, size=k, dtype=np.uint64)
        self.b = generator.integers(0, prime, size=k, dtype=np.uint64)

    def hash_values(self, indices: np.ndarray) -> np.ndarray:
        """Integer hash matrix ``((a x + b) mod p) mod m``, shape (batch, k).

        Exact for every non-negative integer below 2^64 (``x`` is reduced
        mod p first). Non-integer indices raise ``TypeError`` and negative
        ones ``ValueError``; an empty batch gives a ``(0, k)`` matrix.
        """
        indices = integer_indices(indices)
        if indices.size and indices.min() < 0:
            raise ValueError(
                f"indices must be non-negative, got {int(indices.min())}")
        x = indices.astype(np.uint64).reshape(-1, 1) % _P
        total = _mulmod_p(self.a, x) + self.b   # < 2^63 + 2^34
        total = (total & _P) + (total >> _U61)  # <= p + 4
        total = np.where(total >= _P, total - _P, total)
        return (total % np.uint64(self.num_buckets)).astype(np.int64)

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
        """Run the FC stack: autograd in training, ndarrays in eval mode.

        Training builds the decoder's autograd graph. In eval mode the
        stack runs as ``decoder.infer`` on plain ndarrays and one
        :class:`Tensor` wraps the result — byte-identical to the Tensor
        forward, with no graph nobody differentiates.
        """
        if self.training:
            return self.decoder(Tensor(encoded))
        return Tensor(self.decoder.infer(encoded))

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
        threshold are converted to tables for linear scan at inference. It
        runs the ndarray decoder in either mode: no graph is kept, and the
        DHE decoder has no dropout, so the bytes equal the Tensor forward.
        """
        rows = np.empty((self.num_embeddings, self.embedding_dim))
        for start in range(0, self.num_embeddings, batch_size):
            stop = min(start + batch_size, self.num_embeddings)
            rows[start:stop] = self.decoder.infer(
                self.encoder.encode(np.arange(start, stop)))
        return rows

    # ------------------------------------------------------------------
    def modelled_latency(self, batch: int, threads: int = 1) -> float:
        return dhe_latency(self.shape, batch, threads)

    def footprint_bytes(self) -> int:
        return dhe_bytes(self.shape)
