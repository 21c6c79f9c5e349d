"""Constant-trace computational primitives.

These mirror the branchless building blocks the paper's C++/AVX code uses:

* ``ct_select`` — the ``cmov`` conditional move (register-level predication),
* ``ct_eq`` — branch-free comparison producing a 0/1 mask,
* ``oblivious_copy_row`` — the AVX *blend* used by the linear scan,
* ``oblivious_argmax_vectorized`` — the cmov-based greedy-sampling argmax
  of §V-C.

All of them are pure arithmetic over already-loaded values: Python control
flow never depends on the secret operand, and no data-dependent index is
formed.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

Number = Union[int, float, np.ndarray]


def ct_eq(a: Number, b: Number) -> Number:
    """Branch-free equality: 1 where ``a == b`` else 0 (vectorised).

    Implemented with arithmetic on the XOR difference rather than a Python
    ``if``; for arrays numpy evaluates both lanes unconditionally, matching
    SIMD mask-generation semantics.
    """
    a_arr = np.asarray(a)
    b_arr = np.asarray(b)
    if np.issubdtype(a_arr.dtype, np.integer) and np.issubdtype(b_arr.dtype, np.integer):
        diff = a_arr ^ b_arr
        mask = 1 - np.minimum(1, np.abs(diff))
    else:
        mask = (np.abs(a_arr - b_arr) == 0).astype(np.int64)
    if np.isscalar(a) and np.isscalar(b):
        return int(mask)
    return mask


def ct_select(cond: Number, if_true: Number, if_false: Number) -> Number:
    """``cmov``: return ``if_true`` where ``cond`` is 1, else ``if_false``.

    ``cond`` must already be a 0/1 mask; both operands are always evaluated,
    so the selection leaves no control-flow or access-pattern trace.
    """
    cond_arr = np.asarray(cond)
    result = np.asarray(if_true) * cond_arr + np.asarray(if_false) * (1 - cond_arr)
    if np.isscalar(if_true) and np.isscalar(if_false) and np.isscalar(cond):
        if isinstance(if_true, int) and isinstance(if_false, int):
            return int(result)
        return float(result)
    return result


def oblivious_copy_row(flag: int, source_row: np.ndarray,
                       destination: np.ndarray) -> None:
    """AVX-blend analogue: ``destination = source_row`` iff ``flag`` is 1.

    Both the multiply and the add happen for every scan step, so the write
    pattern is identical whether or not this row is the wanted one.
    """
    flag_f = float(flag)
    destination *= (1.0 - flag_f)
    destination += source_row * flag_f


def oblivious_argmax_vectorized(values: Sequence[float]) -> int:
    """Branchless tournament argmax (§V-C greedy sampling).

    ceil(log2 n) halving rounds; each round compares the two halves with a
    full-width arithmetic mask and blends values and indices. Every lane is
    touched in every round regardless of the data, mirroring an AVX
    max-reduction: the trace depends only on ``n``. Returns the index of
    *a* maximal element: under ties the reduction order, not scan order,
    decides.
    """
    data = np.asarray(values, dtype=np.float64).reshape(-1).copy()
    if data.size == 0:
        raise ValueError("oblivious_argmax_vectorized of empty sequence")
    indices = np.arange(data.size, dtype=np.int64)
    # Finite floor for padding lanes (an infinite sentinel would produce
    # NaN in the arithmetic blend: -inf * 0 is undefined).
    floor = float(data.min()) - 1.0
    while data.size > 1:
        half = (data.size + 1) // 2
        left_values, left_indices = data[:half], indices[:half]
        right_values, right_indices = data[half:], indices[half:]
        if right_values.size < half:
            pad = half - right_values.size
            right_values = np.concatenate([right_values,
                                           np.full(pad, floor)])
            right_indices = np.concatenate([right_indices,
                                            np.zeros(pad, dtype=np.int64)])
        take_right = (right_values > left_values).astype(np.int64)
        data = np.asarray(ct_select(take_right, right_values, left_values),
                          dtype=np.float64)
        indices = np.asarray(ct_select(take_right, right_indices,
                                       left_indices), dtype=np.int64)
    return int(indices[0])
