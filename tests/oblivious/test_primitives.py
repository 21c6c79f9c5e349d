"""Constant-trace primitive tests + hypothesis equivalence properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oblivious.primitives import (
    ct_eq,
    ct_select,
    oblivious_copy_row,
)


class TestCtEq:
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_matches_python_eq(self, a, b):
        assert ct_eq(a, b) == int(a == b)

    def test_vectorised(self):
        out = ct_eq(np.array([1, 2, 3]), np.array([1, 0, 3]))
        np.testing.assert_array_equal(out, [1, 0, 1])

    def test_float_inputs(self):
        assert ct_eq(1.5, 1.5) == 1
        assert ct_eq(1.5, 1.6) == 0


class TestCtSelect:
    @given(st.booleans(), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_matches_ternary(self, cond, a, b):
        expected = a if cond else b
        assert ct_select(int(cond), a, b) == pytest.approx(expected)

    def test_int_preserving(self):
        assert ct_select(1, 5, 9) == 5
        assert isinstance(ct_select(1, 5, 9), int)

    def test_vectorised_mask(self):
        cond = np.array([1, 0, 1])
        out = ct_select(cond, np.array([1.0, 2, 3]), np.array([9.0, 9, 9]))
        np.testing.assert_allclose(out, [1.0, 9.0, 3.0])


class TestObliviousCopyRow:
    def test_flag_one_copies(self, rng):
        src = rng.normal(size=8)
        dst = rng.normal(size=8)
        oblivious_copy_row(1, src, dst)
        np.testing.assert_allclose(dst, src)

    def test_flag_zero_preserves(self, rng):
        src = rng.normal(size=8)
        dst = rng.normal(size=8)
        before = dst.copy()
        oblivious_copy_row(0, src, dst)
        np.testing.assert_allclose(dst, before)

