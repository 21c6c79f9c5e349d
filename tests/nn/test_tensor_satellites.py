"""Satellite regressions for the autograd tensor: scatter_add dtype safety,
``**`` gradients at base 0, and the no-grad context."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad, scatter_add


class TestScatterAddDtypes:
    def test_matching_dtypes_accumulate(self):
        table = np.zeros((3, 2))
        scatter_add(table, np.array([0, 0, 2]), np.ones((3, 2)))
        np.testing.assert_array_equal(table, [[2, 2], [0, 0], [1, 1]])

    def test_safe_upcast_accepted(self):
        table = np.zeros((2, 2), dtype=np.float64)
        scatter_add(table, np.array([1]), np.ones((1, 2), dtype=np.float32))
        np.testing.assert_array_equal(table[1], [1.0, 1.0])

    def test_silent_truncation_rejected(self):
        # float64 gradients into a float32 table used to truncate silently
        table = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(TypeError, match="truncate"):
            scatter_add(table, np.array([0]),
                        np.full((1, 2), 1e-9, dtype=np.float64))
        np.testing.assert_array_equal(table, 0.0)  # untouched on rejection

    def test_float_into_int_rejected(self):
        table = np.zeros(4, dtype=np.int64)
        with pytest.raises(TypeError, match="truncate"):
            scatter_add(table, np.array([1]), np.array([0.5]))

    def test_embedding_backward_still_works(self):
        table = Tensor(np.zeros((4, 3)), requires_grad=True)
        out = table.gather_rows(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])


class TestPowGradientAtZero:
    def test_sqrt_grad_at_zero_is_clamped_not_inf(self):
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        (x ** 0.5).sum().backward()
        assert np.all(np.isfinite(x.grad))
        assert x.grad[0] == 0.0          # subgradient convention at the kink
        assert x.grad[1] == pytest.approx(0.25)

    def test_negative_exponent_at_zero_is_clamped(self):
        x = Tensor(np.array([0.0, 2.0]), requires_grad=True)
        (x ** -1.0).sum().backward()
        assert np.all(np.isfinite(x.grad))
        assert x.grad[0] == 0.0
        assert x.grad[1] == pytest.approx(-0.25)

    def test_integer_exponents_unchanged(self):
        x = Tensor(np.array([0.0, 3.0]), requires_grad=True)
        (x ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 6.0])

    def test_nonzero_inputs_keep_exact_formula(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x ** 0.5).sum().backward()
        assert x.grad[0] == 0.5 * 2.0 ** -0.5  # bit-exact, not approximate

    def test_sqrt_helper_trains_through_zero(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x.sqrt().sum().backward()
        assert np.all(x.grad == 0.0)


class TestNoGradMode:
    def test_ops_inside_no_grad_build_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (x * 2.0 + 1.0).sum()
        assert out._parents == () and out._backward is None

    def test_flag_restores_even_on_error(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_contexts(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

