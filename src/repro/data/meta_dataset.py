"""Synthetic stand-in for Meta's 2022 ``dlrm_datasets`` table-size traces.

The paper uses the Meta dataset only for its *table sizes*: 788 sparse
features whose cardinalities reach 4e7 (§VI-C). The original traces are not
available offline, so we draw sizes from a log-normal fitted to the
description (a long tail of small tables, a head of multi-million-row
tables, maximum 4e7), deterministic under a seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.utils.rng import SeedLike, new_rng

META_NUM_TABLES = 788
META_MAX_ROWS = 40_000_000
META_EMBEDDING_DIM = 64  # paper: "embedding dimension of 64 as in Terabyte"


def meta_table_sizes(seed: SeedLike = 2022,
                     num_tables: int = META_NUM_TABLES,
                     max_rows: int = META_MAX_ROWS) -> Tuple[int, ...]:
    """Synthetic per-table cardinalities for the Meta-like DLRM.

    A two-component log-normal mixture clipped to ``[2, max_rows]``, with
    the largest table pinned at ``max_rows`` so the published maximum is
    represented exactly:

    * ~30% "small" categorical features (median ~1e3 rows) — these are what
      the hybrid scheme linear-scans in Table VIII;
    * ~70% "large" id-style features (median ~4e6) sized so the aggregate
      raw footprint at dim 64 lands near the ~910 GB the paper reports.
    """
    rng = new_rng(seed)
    small_count = int(round(0.3 * num_tables))
    small = np.exp(rng.normal(np.log(1e3), 1.6, size=small_count))
    large = np.exp(rng.normal(np.log(4e6), 1.0,
                              size=num_tables - small_count))
    sizes = np.concatenate([small, large])
    sizes = np.clip(sizes, 2, max_rows).astype(np.int64)
    sizes[int(np.argmax(sizes))] = max_rows
    return tuple(int(s) for s in np.sort(sizes)[::-1])


def total_table_bytes(sizes, dim: int = META_EMBEDDING_DIM) -> int:
    """Raw table footprint of the whole model (paper quotes ~910 GB)."""
    return int(sum(sizes)) * dim * DEFAULT_PLATFORM.element_bytes
