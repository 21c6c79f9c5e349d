"""Oblivious linear scan: the storage-based baseline protection (§IV-A1).

Looking up index ``i`` touches *every* row of the table and blends the wanted
row into the output with a branch-free flag — O(n) per lookup, but the access
pattern is the same full sweep for every index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.oblivious.primitives import ct_eq, oblivious_copy_row
from repro.oblivious.trace import TracedArray
from repro.utils.validation import integer_indices


def linear_scan_lookup(table: TracedArray, index: int) -> np.ndarray:
    """Retrieve row ``index`` by scanning the whole table.

    The scan visits rows ``0..n-1`` in order regardless of ``index``; at each
    step an equality mask drives an oblivious blend into the output buffer.
    A non-integer ``index`` raises ``TypeError``.
    """
    wanted = int(integer_indices(index))
    if not 0 <= wanted < table.num_rows:
        raise IndexError(f"index {index} out of range for table of {table.num_rows} rows")
    output = np.zeros(table.row_width, dtype=table.data.dtype)
    for row in range(table.num_rows):
        value = table.read(row)
        flag = ct_eq(row, wanted)
        oblivious_copy_row(flag, value, output)
    return output


def linear_scan_batch_vectorized(table_data: np.ndarray,
                                 indices: Sequence[int]) -> np.ndarray:
    """Vectorised batch scan: the eval-mode scan generator's arithmetic.

    Computes ``onehot(indices) @ table`` — the same arithmetic as the scalar
    scan (every row participates in every query's blend), expressed as a
    dense matmul so numpy's BLAS plays the role of AVX-512. The mask holds
    exactly one ``1.0`` per query, so every product is the wanted row or an
    exact ``0.0`` and the result is bit-identical to the per-row blends of
    :func:`linear_scan_lookup`. Under a tracer,
    :class:`~repro.embedding.scan.LinearScanEmbedding` declares one full
    sweep of the table per query around this call. Non-integer indices
    raise ``TypeError``.
    """
    table_data = np.asarray(table_data)
    indices = integer_indices(indices).astype(np.int64, copy=False).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= table_data.shape[0]):
        raise IndexError("index out of range in linear_scan_batch_vectorized")
    onehot = np.zeros((indices.size, table_data.shape[0]), dtype=table_data.dtype)
    onehot[np.arange(indices.size), indices] = 1.0
    return onehot @ table_data
