"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_output, x_value: np.ndarray, atol: float = 1e-5,
                   rtol: float = 1e-4) -> None:
    """Compare autograd gradient to numerical for ``build_output(Tensor)``.

    ``build_output`` maps a Tensor to a scalar Tensor.
    """
    x_value = np.asarray(x_value, dtype=np.float64)
    x = Tensor(x_value.copy(), requires_grad=True)
    out = build_output(x)
    assert out.size == 1, "gradient check requires a scalar output"
    out.backward()
    analytic = x.grad

    def scalar_fn(value: np.ndarray) -> float:
        return float(build_output(Tensor(value)).data.reshape(()))

    numeric = numerical_gradient(scalar_fn, x_value.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def tracer_bindings(oram) -> list:
    """The tracer held by every recording part of every recursion level
    of an ORAM controller: itself, its tree (square-root ORAM has none),
    its stash and its flat map or recursive child."""
    held = [oram.tracer, oram.stash.tracer]
    if hasattr(oram, "tree"):
        held.append(oram.tree.tracer)
    child = getattr(oram.position_map, "_child", None)
    if child is None:
        return held + [oram.position_map.tracer]
    return held + tracer_bindings(child)
