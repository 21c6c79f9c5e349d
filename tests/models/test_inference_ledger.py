"""Inference ledger: sha256 pins over the bytes DLRM/DHE inference emits.

Three digests, recorded while the Carter-Wegman hash still ran on
Python-object integers and eval mode still built autograd ``Tensor``
graphs:

* the universal hash over a fixed grid of encoders and indices, with the
  overflow corners (``x`` at the 32-bit limb boundary, at ``p`` and above
  it, ``a`` and ``b`` next to ``p``) and an empty batch;
* ``predict_proba`` of a small hybrid DLRM built like the wall-clock
  benchmark's (Varied DHEs, scan tables materialised from them), for the
  dot and the cat interaction over several batch-32 batches;
* ``materialize_table()`` of an LLM-shaped DHE (a deep FC stack), in
  training mode and in eval mode.

Any faster path must reproduce all three exactly. Printed, not only
asserted (``pytest -s``), so a change that moves them shows it in the log.
"""

import hashlib

import numpy as np

from repro.costmodel.latency import DheShape
from repro.data import KAGGLE_SPEC
from repro.data.criteo import SyntheticCtrDataset, scaled_spec
from repro.embedding.dhe import UNIVERSAL_PRIME, DHEEmbedding, UniversalHashEncoder
from repro.embedding.hybrid import TECHNIQUE_SCAN, HybridEmbedding
from repro.models.dlrm import DLRM, KAGGLE_BOTTOM, KAGGLE_TOP_HIDDEN

HASH_DIGEST = \
    "25e9f3d494c61386989ad8d3668f99efb6fa2498b10a90d70d87d459d74b9044"
DLRM_DIGEST = \
    "93d7b42a6f789fed3931fe51a6691ef383587f978225d32f0542f659ac58cd82"
TABLE_DIGEST = \
    "63d70d0b132e48bd71f4420941b0480bec657ffca717988aabc0144ece3d883e"

P = UNIVERSAL_PRIME
CORNERS = np.array([0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
                    (1 << 61) - 2, P - 1, P, P + 1, 1 << 61, 1 << 62,
                    1 << 63, (1 << 64) - 1], dtype=np.uint64)
#: The benchmark's k with a narrower decoder; as there, Varied sizing
#: floors every capped table at k = 128.
UNIFORM = DheShape(k=1024, fc_sizes=(48, 24), out_dim=16)
SCAN_BELOW_ROWS = 200
BATCH = 32
BATCHES = 3


def _update(hasher, array: np.ndarray) -> None:
    hasher.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
    hasher.update(np.ascontiguousarray(array).tobytes())


def hash_digest() -> str:
    hasher = hashlib.sha256()
    draws = np.random.default_rng(5)
    inputs = [
        CORNERS,
        np.arange(257, dtype=np.int64),
        draws.integers(0, np.iinfo(np.uint64).max, size=64,
                       dtype=np.uint64, endpoint=True),
        np.array([], dtype=np.int64),
    ]
    encoders = [UniversalHashEncoder(k, num_buckets=buckets, rng=seed)
                for k, buckets, seed in ((1, 2, 0), (7, 1000, 1),
                                         (64, 1_000_000, 2),
                                         (16, (1 << 40) + 3, 3))]
    corner = UniversalHashEncoder(6, num_buckets=1_000_000, rng=4)
    corner.a = np.array([P - 1, P - 2, (1 << 32) - 1, 1 << 32, 1, 1 << 60],
                        dtype=np.uint64)
    corner.b = np.array([P - 1, 0, P - 2, (1 << 32) - 1, 1 << 32, 1],
                        dtype=np.uint64)
    for encoder in [*encoders, corner]:
        for indices in inputs:
            _update(hasher, encoder.hash_values(indices))
        _update(hasher, encoder.encode(np.arange(33)))
    return hasher.hexdigest()


def hybrid_dlrm(interaction: str):
    spec = scaled_spec(KAGGLE_SPEC, max_rows=2_000)
    generator = np.random.default_rng(1101)
    hybrids = []

    def factory(size: int, dim: int) -> HybridEmbedding:
        hybrids.append(HybridEmbedding(
            DHEEmbedding.varied(size, dim, UNIFORM, rng=generator)))
        return hybrids[-1]

    model = DLRM(spec, factory, bottom_sizes=KAGGLE_BOTTOM,
                 top_hidden_sizes=KAGGLE_TOP_HIDDEN, interaction=interaction,
                 rng=generator)
    model.eval()
    for hybrid in hybrids:
        if hybrid.num_embeddings < SCAN_BELOW_ROWS:
            hybrid.select(TECHNIQUE_SCAN)
    return spec, model


def dlrm_digest() -> str:
    hasher = hashlib.sha256()
    for interaction in ("dot", "cat"):
        spec, model = hybrid_dlrm(interaction)
        for batch in SyntheticCtrDataset(spec, seed=3).batches(BATCH, BATCHES):
            _update(hasher, model.predict_proba(batch.dense, batch.sparse))
    return hasher.hexdigest()


def llm_dhe() -> DHEEmbedding:
    shape = DheShape(k=64, fc_sizes=(64, 64, 64), out_dim=32)
    return DHEEmbedding(300, 32, shape=shape, rng=17)


def table_digest(dhe: DHEEmbedding) -> str:
    hasher = hashlib.sha256()
    _update(hasher, dhe.materialize_table(batch_size=128))
    return hasher.hexdigest()


def test_hash_ledger():
    digest = hash_digest()
    print(f"\nhash digest {digest}")
    assert digest == HASH_DIGEST


def test_hybrid_dlrm_ledger():
    digest = dlrm_digest()
    print(f"\nhybrid dlrm digest {digest}")
    assert digest == DLRM_DIGEST


def test_materialized_table_ledger():
    dhe = llm_dhe()
    trained = table_digest(dhe)
    served = table_digest(dhe.eval())
    print(f"\nmaterialized table digest {trained}")
    assert trained == served == TABLE_DIGEST
