"""DLRM model tests: shapes, interaction, factories, latency accounting."""

import numpy as np
import pytest

from repro.data.criteo import DlrmDatasetSpec
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.scan import LinearScanEmbedding
from repro.embedding.table import TableEmbedding
from repro.models.dlrm import DLRM, dhe_factory, table_factory
from repro.nn.tensor import Tensor

SPEC = DlrmDatasetSpec("t", 13, (20, 30, 10), embedding_dim=8)


def make_model(factory=None, interaction="dot"):
    return DLRM(SPEC, factory or table_factory(rng=0),
                bottom_sizes=(13, 16, 8), top_hidden_sizes=(16,),
                interaction=interaction, rng=1)


@pytest.fixture
def batch(rng):
    dense = rng.normal(size=(4, 13))
    sparse = np.stack([rng.integers(0, s, size=4)
                       for s in SPEC.table_sizes], axis=1)
    return dense, sparse


class TestForward:
    def test_logit_shape(self, batch):
        model = make_model()
        out = model(*batch)
        assert out.shape == (4,)

    def test_cat_interaction(self, batch):
        model = make_model(interaction="cat")
        assert model(*batch).shape == (4,)

    def test_predict_proba_in_unit_interval(self, batch):
        probs = make_model().predict_proba(*batch)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_wrong_sparse_count_raises(self, batch):
        dense, sparse = batch
        with pytest.raises(ValueError):
            make_model()(dense, sparse[:, :2])

    def test_dot_interaction_feature_count(self):
        # 3 sparse + 1 dense vector => C(4,2)=6 pairwise dots + dim 8.
        model = make_model()
        assert model.top.layer_sizes[0] == 8 + 6

    def test_invalid_interaction(self):
        with pytest.raises(ValueError):
            make_model(interaction="sum")

    def test_bottom_size_validation(self):
        with pytest.raises(ValueError):
            DLRM(SPEC, table_factory(rng=0), bottom_sizes=(12, 8),
                 rng=0)
        with pytest.raises(ValueError):
            DLRM(SPEC, table_factory(rng=0), bottom_sizes=(13, 9),
                 rng=0)


def mixed_factory(size, dim):
    """Scan for the smallest table, DHE for the rest (a hybrid mix)."""
    if size < 15:
        return LinearScanEmbedding(size, dim, rng=size)
    return DHEEmbedding(size, dim, k=16, fc_sizes=(16,), rng=size)


class TestEvalInference:
    @pytest.mark.parametrize("interaction", ["dot", "cat"])
    def test_eval_forward_is_graph_free_and_byte_equal(self, batch,
                                                       interaction):
        model = make_model(mixed_factory, interaction=interaction)
        trained = model(*batch)
        assert trained._parents
        served = model.eval()(*batch)
        assert isinstance(served, Tensor) and not served._parents
        assert served.data.tobytes() == trained.data.tobytes()
        assert model.predict_proba(*batch).tobytes() == \
            trained.sigmoid().data.tobytes()


class TestFactories:
    def test_table_factory_builds_tables(self):
        model = make_model(table_factory(rng=0))
        assert all(isinstance(e, TableEmbedding) for e in model.embeddings)
        sizes = [e.num_embeddings for e in model.embeddings]
        assert sizes == list(SPEC.table_sizes)

    def test_dhe_factory_uniform(self):
        model = make_model(dhe_factory(k=16, fc_sizes=(16,), rng=0))
        assert all(isinstance(e, DHEEmbedding) for e in model.embeddings)
        assert all(e.shape.k == 16 for e in model.embeddings)

    def test_dhe_factory_varied_scales(self):
        spec = DlrmDatasetSpec("v", 13, (100, 10**7), embedding_dim=8)
        model = DLRM(spec, dhe_factory(k=1024, fc_sizes=(64,), rng=0,
                                       varied=True),
                     bottom_sizes=(13, 8), top_hidden_sizes=(8,), rng=0)
        assert model.embeddings[0].shape.k < model.embeddings[1].shape.k


class TestAccounting:
    def test_embedding_latency_sums_features(self):
        model = make_model()
        total = model.embedding_latency(batch=32)
        parts = sum(e.modelled_latency(32) for e in model.embeddings)
        assert total == pytest.approx(parts)

    def test_footprint_positive(self):
        assert make_model().embedding_footprint_bytes() > 0

    def test_dense_parameter_bytes_excludes_embeddings(self):
        model = make_model()
        dense_bytes = model.dense_parameter_bytes()
        emb_params = sum(e.num_parameters() for e in model.embeddings)
        assert dense_bytes == (model.num_parameters() - emb_params) * 4


class TestGradients:
    def test_all_parameters_receive_gradients(self, batch):
        from repro.nn.losses import bce_with_logits

        model = make_model()
        loss = bce_with_logits(model(*batch), np.ones(4))
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, name
