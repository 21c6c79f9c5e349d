"""Memory-footprint models for every embedding representation (Table VI/VIII).

The tree-ORAM accounting follows ZeroTrace's sizing (leaves ~ n/Z), which is
what makes the paper's Tree-ORAM footprint land at ~330% of the raw table:
the tree allocates 2..4 block slots per real block (dummies included), plus
per-slot metadata and the recursive position-map trees.
"""

from __future__ import annotations

import math

from repro.costmodel.latency import (
    CIRCUIT_RECURSION_CUTOFF,
    PATH_RECURSION_CUTOFF,
    POSMAP_COMPRESSION,
    RING_DUMMIES,
    RING_RECURSION_CUTOFF,
    RING_STASH,
    BUCKET_SIZE,
    CIRCUIT_STASH,
    PATH_STASH,
    DheShape,
)
from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.utils.validation import check_in, check_positive

BLOCK_METADATA_BYTES = 16  # block id + assigned leaf per slot
POSMAP_LABEL_BYTES = 4


def table_bytes(num_rows: int, dim: int) -> int:
    """Raw embedding-table footprint (also the linear-scan footprint)."""
    check_positive("num_rows", num_rows)
    check_positive("dim", dim)
    return num_rows * dim * DEFAULT_PLATFORM.element_bytes


def _tree_slots(num_blocks: int, bucket_size: int = BUCKET_SIZE) -> int:
    """Block slots in a ZeroTrace-sized tree (leaves = 2^ceil(log2(n/Z)))."""
    leaves_needed = max(1, math.ceil(num_blocks / bucket_size))
    leaves = 1 << max(0, (leaves_needed - 1).bit_length())
    buckets = 2 * leaves - 1
    return buckets * bucket_size


def tree_oram_bytes(num_rows: int, dim: int, scheme: str = "circuit") -> int:
    """Footprint of a table stored in a tree ORAM, recursion included."""
    check_in("scheme", scheme, ("path", "circuit", "ring"))
    cutoff = {"path": PATH_RECURSION_CUTOFF,
              "circuit": CIRCUIT_RECURSION_CUTOFF,
              "ring": RING_RECURSION_CUTOFF}[scheme]
    stash = {"path": PATH_STASH, "circuit": CIRCUIT_STASH,
             "ring": RING_STASH}[scheme]
    # Ring buckets carry S dummy slots on top of the Z real ones.
    slot_factor = (BUCKET_SIZE + RING_DUMMIES) / BUCKET_SIZE \
        if scheme == "ring" else 1.0
    total = 0
    blocks = num_rows
    width_bytes = dim * DEFAULT_PLATFORM.element_bytes
    while True:
        slots = int(_tree_slots(blocks) * slot_factor) + stash
        total += slots * (width_bytes + BLOCK_METADATA_BYTES)
        if blocks <= cutoff:
            total += blocks * POSMAP_LABEL_BYTES  # flat position map
            break
        blocks = (blocks + POSMAP_COMPRESSION - 1) // POSMAP_COMPRESSION
        width_bytes = POSMAP_COMPRESSION * POSMAP_LABEL_BYTES
    return total


def dhe_bytes(shape: DheShape) -> int:
    """Footprint of one DHE stack (hash constants are negligible)."""
    return shape.parameter_bytes() + shape.k * 4 * 4  # a,b,p,m per hash


def mlp_bytes(layer_sizes) -> int:
    """Footprint of a dense MLP given its width chain."""
    sizes = list(layer_sizes)
    params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    return params * DEFAULT_PLATFORM.element_bytes
