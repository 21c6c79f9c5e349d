"""Edge-case coverage for ``repro.nn.functional``: empty batches and
length-1 softmax axes."""

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import MLP, LayerNorm, Linear
from repro.nn.tensor import Tensor


class TestEmptyBatch:
    def test_linear_empty_batch(self):
        layer = Linear(5, 3, rng=0)
        out = layer(Tensor(np.empty((0, 5))))
        assert out.shape == (0, 3)

    def test_mlp_empty_batch_forward_and_backward(self):
        mlp = MLP((5, 8, 2), rng=0)
        out = mlp(Tensor(np.empty((0, 5))))
        assert out.shape == (0, 2)
        out.sum().backward()  # zero-row gradients, but the graph must run
        for param in mlp.parameters():
            assert param.grad is not None
            assert np.all(param.grad == 0.0)

    def test_softmax_empty_batch(self):
        out = F.softmax(Tensor(np.empty((0, 4))))
        assert out.shape == (0, 4)

    def test_layer_norm_empty_batch(self):
        layer = LayerNorm(4)
        assert layer(Tensor(np.empty((0, 4)))).shape == (0, 4)

    def test_relu_gelu_empty(self):
        empty = Tensor(np.empty((0, 3)))
        assert F.relu(empty).shape == (0, 3)
        assert F.gelu(empty).shape == (0, 3)


class TestLengthOneSoftmaxAxis:
    def test_softmax_over_singleton_axis_is_exactly_one(self):
        x = Tensor(np.array([[-1e30], [0.0], [1e30]]))
        out = F.softmax(x, axis=-1)
        np.testing.assert_array_equal(out.data, np.ones((3, 1)))

    def test_log_softmax_over_singleton_axis_is_exactly_zero(self):
        x = Tensor(np.array([[7.0], [-7.0]]))
        out = F.log_softmax(x, axis=-1)
        np.testing.assert_array_equal(out.data, np.zeros((2, 1)))

    def test_singleton_axis_gradient_is_zero(self):
        # softmax over one element is constant 1 -> zero gradient
        x = Tensor(np.array([[3.0], [5.0]]), requires_grad=True)
        F.softmax(x, axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros((2, 1)), atol=1e-12)
