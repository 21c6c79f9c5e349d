"""End-to-end secure DLRM: train, hybridise, profile, deploy (Algorithms 2-3).

1. Train an all-DHE DLRM on a synthetic Criteo-schema CTR dataset and show
   it matches the accuracy of a plain table-based DLRM.
2. Wrap every feature in a HybridEmbedding and materialise scan tables.
3. Profile the platform, extract the scan/DHE threshold for the live
   configuration, and allocate each feature (Algorithm 3).
4. Run secure inference and report the per-feature allocation, the modelled
   latency advantage, and the memory savings.

Run:  python examples/secure_dlrm.py
"""

from repro.costmodel import DLRM_DHE_UNIFORM_16, DheShape
from repro.data import KAGGLE_SPEC, SyntheticCtrDataset, scaled_spec
from repro.embedding import DHEEmbedding, HybridEmbedding
from repro.hybrid import (
    OfflineProfiler,
    allocate_for_configuration,
    apply_allocations,
    build_threshold_database,
    count_scan_features,
)
from repro.models import DLRM, evaluate_dlrm, table_factory, train_dlrm

BATCH, THREADS = 32, 1


def main() -> None:
    # Cap the largest tables so training finishes in seconds while keeping
    # several tables above the dim-16 scan/DHE threshold (~1e4 rows), so
    # the hybrid allocation below actually splits.
    spec = scaled_spec(KAGGLE_SPEC, max_rows=50_000)
    dataset = SyntheticCtrDataset(spec, seed=0)
    uniform = DheShape(k=48, fc_sizes=(48,), out_dim=spec.embedding_dim)

    # -- 1. train table baseline and all-DHE model -------------------------
    print("Training table-based DLRM baseline ...")
    baseline = DLRM(spec, table_factory(rng=1),
                    bottom_sizes=(13, 64, spec.embedding_dim),
                    top_hidden_sizes=(64,), rng=2)
    train_dlrm(baseline, SyntheticCtrDataset(spec, seed=0), steps=200,
               batch_size=128, lr=2e-3)
    baseline_metrics = evaluate_dlrm(baseline, SyntheticCtrDataset(spec, seed=0))

    print("Training all-DHE DLRM (Algorithm 2 offline step) ...")
    hybrids = []

    def hybrid_factory(size: int, dim: int) -> HybridEmbedding:
        hybrid = HybridEmbedding(DHEEmbedding(size, dim, shape=uniform,
                                              rng=len(hybrids)))
        hybrids.append(hybrid)
        return hybrid

    model = DLRM(spec, hybrid_factory,
                 bottom_sizes=(13, 64, spec.embedding_dim),
                 top_hidden_sizes=(64,), rng=2)
    train_dlrm(model, SyntheticCtrDataset(spec, seed=0), steps=200,
               batch_size=128, lr=2e-3)
    dhe_metrics = evaluate_dlrm(model, SyntheticCtrDataset(spec, seed=0))
    print(f"  table accuracy {baseline_metrics['accuracy']:.3f} "
          f"(AUC {baseline_metrics['auc']:.3f})  vs  "
          f"DHE accuracy {dhe_metrics['accuracy']:.3f} "
          f"(AUC {dhe_metrics['auc']:.3f})  -> parity, as in Table V\n")

    # -- 2./3. profile and allocate (uses full-scale Kaggle table sizes) ---
    print("Profiling the platform and extracting thresholds (Fig 6) ...")
    profiler = OfflineProfiler(DLRM_DHE_UNIFORM_16)
    profile = profiler.profile(techniques=("scan", "dhe-uniform"),
                               dims=(spec.embedding_dim,), batches=(BATCH,),
                               threads_list=(THREADS,))
    thresholds = build_threshold_database(profile, dims=(spec.embedding_dim,),
                                          batches=(BATCH,),
                                          threads_list=(THREADS,))
    threshold = thresholds.threshold(spec.embedding_dim, BATCH, THREADS)
    print(f"  scan/DHE threshold at batch={BATCH}, threads={THREADS}: "
          f"{threshold:.0f} rows")

    allocations = allocate_for_configuration(spec.table_sizes, thresholds,
                                             spec.embedding_dim, BATCH,
                                             THREADS)
    apply_allocations(hybrids, allocations)
    print(f"  allocation: {count_scan_features(allocations)} features on "
          f"linear scan, {len(allocations) - count_scan_features(allocations)} "
          f"on DHE (Algorithm 3)\n")

    # -- 4. secure inference ------------------------------------------------
    batch = SyntheticCtrDataset(spec, seed=99).batch(BATCH)
    probabilities = model.predict_proba(batch.dense, batch.sparse)
    print(f"Secure inference on a batch of {BATCH}: "
          f"CTR predictions in [{probabilities.min():.3f}, "
          f"{probabilities.max():.3f}]")
    print(f"  modelled embedding latency: "
          f"{model.embedding_latency(BATCH, THREADS) * 1e3:.2f} ms "
          f"(hybrid) ")
    print(f"  embedding footprint: "
          f"{model.embedding_footprint_bytes() / 1024:.0f} KB "
          f"(dual representations, smaller one shipped per feature)")


if __name__ == "__main__":
    main()
