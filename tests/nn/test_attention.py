"""Attention tests — most importantly: KV-cache decode == full forward."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.attention import KVCache, MultiHeadSelfAttention, TransformerBlock
from repro.nn.layers import GELU, MLP, LayerNorm, Linear, ReLU, Sequential
from repro.nn.tensor import Tensor


class TestKVCache:
    def test_append_concatenates_time(self, rng):
        """Appends land in one preallocated buffer, in place; the cache
        hands back views of the filled prefix."""
        cache = KVCache(6)
        k1 = rng.normal(size=(2, 2, 3, 4))
        v1 = rng.normal(size=(2, 2, 3, 4))
        cache.append(k1, v1)
        assert cache.length == 3
        buffer = cache.keys.base
        k2 = rng.normal(size=(2, 2, 1, 4))
        keys, values = cache.append(k2, rng.normal(size=(2, 2, 1, 4)))
        assert keys.shape == values.shape == (2, 2, 4, 4)
        assert keys.base is buffer and buffer.shape == (2, 2, 6, 4)
        np.testing.assert_array_equal(keys[:, :, :3], k1)
        np.testing.assert_array_equal(keys[:, :, 3:], k2)
        np.testing.assert_array_equal(values[:, :, :3], v1)

    def test_append_past_capacity_raises(self, rng):
        cache = KVCache(4)
        cache.append(rng.normal(size=(1, 2, 3, 4)), rng.normal(size=(1, 2, 3, 4)))
        with pytest.raises(ValueError, match="capacity 4 cannot hold 5"):
            cache.append(rng.normal(size=(1, 2, 2, 4)),
                         rng.normal(size=(1, 2, 2, 4)))
        assert cache.length == 3


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        out = attn(Tensor(rng.normal(size=(3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_causality(self, rng):
        """Changing a future token must not affect earlier outputs."""
        attn = MultiHeadSelfAttention(8, 2, rng=0)
        x = rng.normal(size=(1, 6, 8))
        base = attn(Tensor(x)).data.copy()
        perturbed = x.copy()
        perturbed[0, 5] += 10.0
        out = attn(Tensor(perturbed)).data
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-10)
        assert not np.allclose(out[0, 5], base[0, 5])

    def test_cached_decode_matches_full_forward(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=0)
        tokens = rng.normal(size=(2, 7, 8))
        full = attn(Tensor(tokens)).data

        cache = KVCache(7)
        prefill = attn(tokens[:, :4], cache=cache)
        np.testing.assert_allclose(prefill, full[:, :4], atol=1e-10)
        for t in range(4, 7):
            step = attn(tokens[:, t:t + 1], cache=cache)
            np.testing.assert_allclose(step[:, 0], full[:, t], atol=1e-10)

    def test_gradients_flow(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=0)
        out = attn(Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True))
        (out ** 2.0).sum().backward()
        assert attn.qkv.weight.grad is not None
        assert attn.proj.weight.grad is not None


class TestTransformerBlock:
    def test_shape_preserved(self, rng):
        block = TransformerBlock(8, 2, rng=0)
        out = block(Tensor(rng.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_cached_decode_matches_full(self, rng):
        block = TransformerBlock(8, 2, rng=0)
        tokens = rng.normal(size=(1, 6, 8))
        full = block(Tensor(tokens)).data
        cache = KVCache(6)
        prefill = block(tokens[:, :3], cache=cache)
        np.testing.assert_allclose(prefill, full[:, :3], atol=1e-10)
        for t in range(3, 6):
            step = block(tokens[:, t:t + 1], cache=cache)
            np.testing.assert_allclose(step[:, 0], full[:, t], atol=1e-10)

    def test_residual_path(self):
        """With zeroed sublayer outputs the block is the identity."""
        block = TransformerBlock(8, 2, rng=0)
        block.attn.proj.weight.data[...] = 0.0
        block.attn.proj.bias.data[...] = 0.0
        last = block.mlp._ordered[-1]
        last.weight.data[...] = 0.0
        last.bias.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(1, 4, 8))
        np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-12)


class TestCachedPathContract:
    def test_tensor_with_cache_is_refused(self, rng):
        block = TransformerBlock(8, 2, rng=0)
        x = rng.normal(size=(1, 2, 8))
        for module in (block, block.attn):
            with pytest.raises(TypeError):
                module(Tensor(x), cache=KVCache(4))

    def test_live_dropout_is_refused(self, rng):
        block = TransformerBlock(8, 2, dropout=0.1, rng=0)
        x = rng.normal(size=(1, 2, 8))
        for module in (block, block.attn):
            with pytest.raises(ValueError, match="eval"):
                module(x, cache=KVCache(4))
        block.eval()
        np.testing.assert_array_equal(block(x, cache=KVCache(4)),
                                      block(x, cache=KVCache(4)))


def _layer_norm():
    norm = LayerNorm(8)
    rng = np.random.default_rng(3)
    norm.weight.data[...] = rng.normal(size=8)
    norm.bias.data[...] = rng.normal(size=8)
    return norm


# Every module on the KV-cache and DHE/DLRM eval paths, built once: its
# ndarray inference must give exactly the bytes of its Tensor forward
# (ReLU's -0.0 for a negative input included).
INFERENCE_MODULES = {
    "Linear": Linear(8, 12, rng=1),
    "LayerNorm": _layer_norm(),
    "GELU": GELU(),
    "ReLU": ReLU(),
    "MLP": MLP((8, 16, 12, 8), rng=6),
    "MLP-final-relu": MLP((8, 16, 8), final_activation="relu", rng=7),
    "Sequential": Sequential(Linear(8, 32, rng=2), GELU(), Linear(32, 8, rng=2)),
    "MultiHeadSelfAttention": MultiHeadSelfAttention(8, 2, rng=4).eval(),
    "TransformerBlock": TransformerBlock(8, 2, rng=5).eval(),
}


@pytest.mark.parametrize("name", sorted(INFERENCE_MODULES))
@settings(max_examples=8, deadline=None)
@given(batch=st.integers(1, 3), time=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
@example(batch=1, time=1, seed=0)
def test_ndarray_inference_is_byte_equal_to_tensor_forward(name, batch, time,
                                                           seed):
    module = INFERENCE_MODULES[name]
    x = np.random.default_rng(seed).normal(size=(batch, time, 8))
    if isinstance(module, (MultiHeadSelfAttention, TransformerBlock)):
        lean = module(x, cache=KVCache(time + 2))  # prefill, empty cache
    else:
        lean = module.infer(x)
    assert isinstance(lean, np.ndarray)
    assert lean.tobytes() == module(Tensor(x)).data.tobytes()
