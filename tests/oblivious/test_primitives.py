"""Constant-trace primitive tests + hypothesis equivalence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oblivious.primitives import (
    ct_eq,
    ct_lt,
    ct_select,
    oblivious_argmax,
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


class TestCtLt:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_matches_python_lt(self, a, b):
        assert ct_lt(a, b) == int(a < b)


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


class TestObliviousArgmax:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_matches_numpy_argmax(self, values):
        x = np.asarray(values)
        assert oblivious_argmax(x) == int(np.argmax(x))

    def test_first_of_ties(self):
        assert oblivious_argmax([3.0, 3.0, 1.0]) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            oblivious_argmax([])

