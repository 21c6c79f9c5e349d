"""GPT model tests: config, forward, prefill/decode equivalence, tying."""

import numpy as np
import pytest

from repro.embedding.dhe import DHEEmbedding
from repro.models.gpt import GPT, GPTConfig, tiny_config


@pytest.fixture
def config():
    return tiny_config(vocab_size=50, embed_dim=16, num_layers=2,
                       num_heads=2, context_length=32)


@pytest.fixture
def model(config):
    return GPT(config, rng=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GPTConfig(embed_dim=10, num_heads=3)
        with pytest.raises(ValueError):
            GPTConfig(vocab_size=0)

    def test_gpt2_medium_defaults(self):
        config = GPTConfig()
        assert config.vocab_size == 50257
        assert config.embed_dim == 1024
        assert config.num_layers == 24


class TestForward:
    def test_logit_shape(self, model, rng):
        tokens = rng.integers(0, 50, size=(2, 7))
        assert model(tokens).shape == (2, 7, 50)

    def test_rejects_1d_tokens(self, model):
        with pytest.raises(ValueError):
            model(np.array([1, 2, 3]))

    def test_rejects_overlong_sequence(self, model):
        with pytest.raises(ValueError):
            model(np.zeros((1, 33), dtype=int))

    def test_causal(self, model, rng):
        tokens = rng.integers(0, 50, size=(1, 8))
        base = model(tokens).data.copy()
        tokens2 = tokens.copy()
        tokens2[0, 7] = (tokens2[0, 7] + 1) % 50
        out = model(tokens2).data
        np.testing.assert_allclose(out[0, :7], base[0, :7], atol=1e-10)


class TestWeightTying:
    def test_table_embedding_is_tied(self, model):
        assert model.tied_head
        assert model.lm_head_weight is model.token_embedding.weight

    def test_dhe_embedding_gets_own_head(self, config):
        dhe = DHEEmbedding(50, 16, k=8, fc_sizes=(8,), rng=0)
        model = GPT(config, token_embedding=dhe, rng=1)
        assert not model.tied_head
        assert model.lm_head_weight.shape == (50, 16)

    def test_embedding_shape_mismatch_rejected(self, config):
        with pytest.raises(ValueError):
            GPT(config, token_embedding=DHEEmbedding(49, 16, k=8,
                                                     fc_sizes=(8,), rng=0))


class TestPrefillDecodeEquivalence:
    def test_incremental_matches_full(self, model, rng):
        """Prefill + decode steps must equal the full forward pass —
        the correctness invariant of the KV cache."""
        tokens = rng.integers(0, 50, size=(2, 10))
        model.eval()
        full_logits = model(tokens).data

        caches = model.new_caches()
        prefill = model.prefill(tokens[:, :6], caches).data
        np.testing.assert_allclose(prefill, full_logits[:, 5], atol=1e-9)
        for t in range(6, 10):
            step = model.decode_step(tokens[:, t:t + 1], caches).data
            np.testing.assert_allclose(step, full_logits[:, t], atol=1e-9)

    def test_inference_builds_no_graph_and_keeps_the_bits(self, model, rng):
        """The KV-cache paths run on plain ndarrays: the logits carry no
        graph, and their bytes are the ones the Tensor-with-cache path of
        commit 720d9bf produced (sha256 of prefill + 2 decode steps,
        recorded there)."""
        import hashlib

        tokens = rng.integers(0, 50, size=(2, 7))
        caches = model.new_caches()
        logits = [model.prefill(tokens[:, :5], caches),
                  model.decode_step(tokens[:, 5:6], caches),
                  model.decode_step(tokens[:, 6:7], caches)]
        digest = hashlib.sha256()
        for step in logits:
            assert step._parents == () and not step.requires_grad
            digest.update(step.data.tobytes())
        assert digest.hexdigest() == (
            "f52a444d074c4b042835a169478cba369339f0865227ee4c39d09d5fe956a751")

    def test_training_mode_with_dropout_is_refused(self, rng):
        """With live dropout the cached path used to apply it under
        ``no_grad`` (two calls, two different logits); it now has eval
        semantics only and says so."""
        config = GPTConfig(vocab_size=50, embed_dim=16, num_layers=2,
                           num_heads=2, context_length=32, dropout=0.2)
        model = GPT(config, rng=0)
        tokens = rng.integers(0, 50, size=(1, 5))
        for _ in range(2):
            with pytest.raises(ValueError,
                               match=r"call eval\(\) before prefill/decode_step"):
                model.prefill(tokens, model.new_caches())
        model.eval()
        first = model.prefill(tokens, model.new_caches()).data
        again = model.prefill(tokens, model.new_caches()).data
        assert first.tobytes() == again.tobytes()

    def test_caches_hold_the_context_length(self, model):
        assert [cache.capacity for cache in model.new_caches()] == [32, 32]

    def test_decode_requires_single_token(self, model, rng):
        caches = model.new_caches()
        model.prefill(rng.integers(0, 50, size=(1, 4)), caches)
        with pytest.raises(ValueError):
            model.decode_step(np.zeros((1, 2), dtype=int), caches)


class TestGenerate:
    def test_output_shape_and_range(self, model, rng):
        prompt = rng.integers(0, 50, size=(2, 5))
        out = model.generate(prompt, max_new_tokens=6)
        assert out.shape == (2, 11)
        assert out.min() >= 0 and out.max() < 50
        np.testing.assert_array_equal(out[:, :5], prompt)

    def test_oblivious_and_plain_argmax_agree(self, model, rng):
        prompt = rng.integers(0, 50, size=(1, 5))
        a = model.generate(prompt, max_new_tokens=4, oblivious_sampling=True)
        b = model.generate(prompt, max_new_tokens=4, oblivious_sampling=False)
        np.testing.assert_array_equal(a, b)

    def test_stops_at_context_length(self, config, rng):
        model = GPT(config, rng=0)
        prompt = rng.integers(0, 50, size=(1, 30))
        out = model.generate(prompt, max_new_tokens=10)
        assert out.shape[1] <= config.context_length

    def test_deterministic(self, model, rng):
        prompt = rng.integers(0, 50, size=(1, 4))
        a = model.generate(prompt, max_new_tokens=5)
        b = model.generate(prompt, max_new_tokens=5)
        np.testing.assert_array_equal(a, b)


class TestParameterAccounting:
    def test_non_embedding_excludes_table_and_head(self, model):
        total = model.num_parameters()
        non_emb = model.num_non_embedding_parameters()
        assert non_emb == total - 50 * 16  # tied: one table

    def test_dhe_model_excludes_head_but_counts_decoder(self, config):
        dhe = DHEEmbedding(50, 16, k=8, fc_sizes=(8,), rng=0)
        model = GPT(config, token_embedding=dhe, rng=1)
        non_emb = model.num_non_embedding_parameters()
        assert non_emb == model.num_parameters() - 50 * 16
