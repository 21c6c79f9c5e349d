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


def linear_scan_batch(table: TracedArray, indices: Sequence[int]) -> np.ndarray:
    """Batched scan: one full sweep per query (the paper's implementation).

    The C++/AVX version scans the entire embedding table for each input index
    in the batch; we reproduce that access pattern row-for-row — each query
    still issues a complete sequential sweep on the tracer — but the scalar
    per-row blend chain is collapsed into a single masked matmul over the
    whole batch. The mask holds exactly one ``1.0`` per query, so every
    product is the wanted row or an exact ``0.0`` and the result is
    bit-identical to the per-row oblivious blends it replaces. Non-integer
    indices raise ``TypeError``.
    """
    indices = integer_indices(indices).astype(np.int64, copy=False).reshape(-1)
    for wanted in indices:
        if not 0 <= int(wanted) < table.num_rows:
            raise IndexError(f"index {wanted} out of range for table of "
                             f"{table.num_rows} rows")
    if indices.size == 0:
        return np.zeros((0, table.row_width), dtype=table.data.dtype)
    data = table.read_all()
    for _ in range(indices.size - 1):
        table.read_all()  # the remaining sweeps, one per query, as before
    onehot = (indices[:, None]
              == np.arange(table.num_rows)[None, :]).astype(data.dtype)
    return onehot @ data


def linear_scan_batch_vectorized(table_data: np.ndarray,
                                 indices: Sequence[int]) -> np.ndarray:
    """Vectorised scan used for *performance* runs (tracing disabled).

    Computes ``onehot(indices) @ table`` — the same arithmetic as the scalar
    scan (every row participates in every query's blend), expressed as a
    dense matmul so numpy's BLAS plays the role of AVX-512. The memory
    pattern is a full sequential sweep of the table per batch, which is what
    the AVX implementation streams as well. Non-integer indices raise
    ``TypeError``.
    """
    table_data = np.asarray(table_data)
    indices = integer_indices(indices).astype(np.int64, copy=False).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= table_data.shape[0]):
        raise IndexError("index out of range in linear_scan_batch_vectorized")
    onehot = np.zeros((indices.size, table_data.shape[0]), dtype=table_data.dtype)
    onehot[np.arange(indices.size), indices] = 1.0
    return onehot @ table_data
