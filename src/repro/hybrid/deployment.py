"""Deployment packaging for hybrid DLRMs (Algorithm 2's shipped artifact).

Algorithm 2 trains all-DHE models offline, materialises per-feature scan
tables, and ships a threshold database so inference can allocate per
configuration without retraining. This module persists and restores that
bundle:

* the DLRM state dict (``model.npz``),
* the dataset schema and DHE shapes (``manifest.json``),
* the profiled threshold database (in the manifest),

and rebuilds a ready-to-allocate model with
:func:`load_hybrid_deployment`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence


from repro.costmodel.latency import DheShape
from repro.data.criteo import DlrmDatasetSpec
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.hybrid import HybridEmbedding
from repro.hybrid.allocator import allocate_for_configuration, apply_allocations
from repro.hybrid.thresholds import ThresholdDatabase, ThresholdKey
from repro.models.dlrm import DLRM
from repro.nn.serialization import load_state, save_state

MANIFEST_NAME = "manifest.json"
MODEL_NAME = "model.npz"


@dataclass
class HybridDeployment:
    """A loaded deployment: the model plus its allocation machinery."""

    model: DLRM
    hybrids: List[HybridEmbedding]
    thresholds: ThresholdDatabase
    spec: DlrmDatasetSpec

    def configure(self, batch: int, threads: int) -> int:
        """Apply Algorithm 3 for the live configuration; returns #scan."""
        allocations = allocate_for_configuration(
            self.spec.table_sizes, self.thresholds, self.spec.embedding_dim,
            batch, threads)
        apply_allocations(self.hybrids, allocations)
        return sum(1 for a in allocations if a.technique == "scan")


def _shape_to_json(shape: DheShape) -> Dict:
    return {"k": shape.k, "fc_sizes": list(shape.fc_sizes),
            "out_dim": shape.out_dim}


def _shape_from_json(payload: Dict) -> DheShape:
    return DheShape(k=payload["k"], fc_sizes=tuple(payload["fc_sizes"]),
                    out_dim=payload["out_dim"])


def _thresholds_to_json(db: ThresholdDatabase) -> Dict:
    return {
        "dhe_technique": db.dhe_technique,
        "entries": [
            {"dim": key.dim, "batch": key.batch, "threads": key.threads,
             "threshold": value}
            for key, value in db.thresholds.items()
        ],
    }


def _thresholds_from_json(payload: Dict) -> ThresholdDatabase:
    db = ThresholdDatabase(dhe_technique=payload["dhe_technique"])
    for entry in payload["entries"]:
        key = ThresholdKey(entry["dim"], entry["batch"], entry["threads"])
        db.thresholds[key] = float(entry["threshold"])
    return db


def save_hybrid_deployment(directory: str, model: DLRM,
                           hybrids: Sequence[HybridEmbedding],
                           thresholds: ThresholdDatabase,
                           bottom_sizes: Sequence[int],
                           top_hidden_sizes: Sequence[int],
                           encoder_seeds: Sequence[int]) -> None:
    """Persist a trained hybrid model bundle to ``directory``.

    ``encoder_seeds`` are the per-feature DHE hash seeds — the universal
    hash constants must be reconstructed exactly or the decoder weights are
    meaningless.
    """
    if len(hybrids) != model.spec.num_sparse:
        raise ValueError("need one hybrid embedding per sparse feature")
    if len(encoder_seeds) != len(hybrids):
        raise ValueError("need one encoder seed per feature")
    os.makedirs(directory, exist_ok=True)
    save_state(model, os.path.join(directory, MODEL_NAME))
    manifest = {
        "spec": {
            "name": model.spec.name,
            "num_dense": model.spec.num_dense,
            "table_sizes": list(model.spec.table_sizes),
            "embedding_dim": model.spec.embedding_dim,
        },
        "bottom_sizes": list(bottom_sizes),
        "top_hidden_sizes": list(top_hidden_sizes),
        "dhe_shapes": [_shape_to_json(h.dhe.shape) for h in hybrids],
        "encoder_seeds": [int(seed) for seed in encoder_seeds],
        "thresholds": _thresholds_to_json(thresholds),
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2)


def load_hybrid_deployment(directory: str) -> HybridDeployment:
    """Rebuild a :class:`HybridDeployment` saved by
    :func:`save_hybrid_deployment`."""
    with open(os.path.join(directory, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    spec = DlrmDatasetSpec(
        name=manifest["spec"]["name"],
        num_dense=manifest["spec"]["num_dense"],
        table_sizes=tuple(manifest["spec"]["table_sizes"]),
        embedding_dim=manifest["spec"]["embedding_dim"],
    )
    shapes = [_shape_from_json(p) for p in manifest["dhe_shapes"]]
    seeds = manifest["encoder_seeds"]

    hybrids: List[HybridEmbedding] = []

    def factory(size: int, dim: int) -> HybridEmbedding:
        index = len(hybrids)
        dhe = DHEEmbedding(size, dim, shape=shapes[index], rng=seeds[index])
        hybrid = HybridEmbedding(dhe)
        hybrids.append(hybrid)
        return hybrid

    model = DLRM(spec, factory,
                 bottom_sizes=tuple(manifest["bottom_sizes"]),
                 top_hidden_sizes=tuple(manifest["top_hidden_sizes"]),
                 rng=0)
    load_state(model, os.path.join(directory, MODEL_NAME))
    thresholds = _thresholds_from_json(manifest["thresholds"])
    return HybridDeployment(model=model, hybrids=hybrids,
                            thresholds=thresholds, spec=spec)
