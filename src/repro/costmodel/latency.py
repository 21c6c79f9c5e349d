"""Analytic per-technique latency models (seconds per embedding batch).

The byte/FLOP counts are derived from the *structure of our executable
implementations* (rows touched per ORAM access, FLOPs per DHE stack); only
the platform rates in :mod:`repro.costmodel.platform` are calibration
constants. This is what lets the benchmarks regenerate the paper's latency
figures (Figs 4, 5, 10, 12; Tables VII, VIII) without SGX hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.costmodel.platform import DEFAULT_PLATFORM
from repro.oram.tree import tree_levels_for
from repro.utils.validation import check_in, check_positive

#: Table VII: bottom/top MLP + feature interaction per DLRM batch. Shared by
#: the serving engine and the end-to-end experiments (one copy, not three).
MLP_OVERHEAD_SECONDS = 1.5e-3

BUCKET_SIZE = 4
PATH_STASH = 150
CIRCUIT_STASH = 10
RING_STASH = 80
RING_DUMMIES = 4
RING_EVICT_RATE = 4
PATH_RECURSION_CUTOFF = 1 << 16
CIRCUIT_RECURSION_CUTOFF = 1 << 12
RING_RECURSION_CUTOFF = 1 << 16
POSMAP_COMPRESSION = 16
POSMAP_ENTRY_BYTES = 4

#: Table IV note: DHE Varied scales ``k`` by 0.125x per decade of table size
#: below 10 M rows, never below 128 hashes.
VARIED_BASE_SIZE = 1e7
VARIED_RATE_PER_DECADE = 0.125
VARIED_MIN_K = 128


# ----------------------------------------------------------------------
# Non-secure lookup
# ----------------------------------------------------------------------
def lookup_latency(num_rows: int, dim: int, batch: int,
                   threads: int = 1) -> float:
    """Plain gather: one row fetched per query plus a small dispatch cost."""
    check_positive("num_rows", num_rows)
    row_bytes = dim * DEFAULT_PLATFORM.element_bytes
    fetch = batch * row_bytes / DEFAULT_PLATFORM.scan_bandwidth(
        num_rows * row_bytes, threads)
    return fetch + 1e-6  # kernel launch / python dispatch floor


# ----------------------------------------------------------------------
# Linear scan
# ----------------------------------------------------------------------
def linear_scan_latency(num_rows: int, dim: int, batch: int,
                        threads: int = 1) -> float:
    """Each query streams the full table through the blend unit."""
    check_positive("num_rows", num_rows)
    check_positive("batch", batch)
    table_bytes = num_rows * dim * DEFAULT_PLATFORM.element_bytes
    return batch * table_bytes / DEFAULT_PLATFORM.scan_bandwidth(table_bytes,
                                                                 threads)


# ----------------------------------------------------------------------
# DHE
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DheShape:
    """Architecture of one DHE stack: k hashes + an FC decoder chain."""

    k: int
    fc_sizes: Tuple[int, ...]
    out_dim: int

    def layer_dims(self) -> List[Tuple[int, int]]:
        dims = [self.k, *self.fc_sizes, self.out_dim]
        return list(zip(dims[:-1], dims[1:]))

    def flops_per_embedding(self) -> int:
        """Dense multiply-add FLOPs to decode one embedding."""
        return sum(2 * a * b for a, b in self.layer_dims())

    def hash_ops_per_embedding(self) -> int:
        return 4 * self.k  # multiply, add, two mods per hash function

    def parameter_count(self) -> int:
        return sum(a * b + b for a, b in self.layer_dims())

    def parameter_bytes(self) -> int:
        return self.parameter_count() * DEFAULT_PLATFORM.element_bytes

    def scaled(self, factor: float, min_width: int = 64) -> "DheShape":
        """Shrink every width by ``sqrt(factor)`` (parameters scale by ``factor``)."""
        if not 0 < factor <= 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        width_factor = math.sqrt(factor)

        def shrink(width: int) -> int:
            return max(min_width, int(round(width * width_factor)))

        return DheShape(k=shrink(self.k),
                        fc_sizes=tuple(shrink(w) for w in self.fc_sizes),
                        out_dim=self.out_dim)


#: Paper Table IV: DHE Uniform for the Criteo DLRMs.
DLRM_DHE_UNIFORM_16 = DheShape(k=1024, fc_sizes=(512, 256), out_dim=16)
DLRM_DHE_UNIFORM_64 = DheShape(k=1024, fc_sizes=(512, 256), out_dim=64)

#: Paper §VI-A3: GPT-2 medium DHE — 4 FC layers, widths 2x the embedding dim.
LLM_DHE_GPT2_MEDIUM = DheShape(k=2048, fc_sizes=(2048, 2048, 2048), out_dim=1024)


def varied_scale_factor(table_size: int) -> float:
    """DHE Varied sizing rule (Table IV note): the hash count ``k`` shrinks
    by ``VARIED_RATE_PER_DECADE`` (0.125x) per order of magnitude of table
    size below ``VARIED_BASE_SIZE``."""
    check_positive("table_size", table_size)
    if table_size >= VARIED_BASE_SIZE:
        return 1.0
    decades = math.log10(VARIED_BASE_SIZE / table_size)
    return max(VARIED_RATE_PER_DECADE ** decades, 1e-3)


def dhe_varied_shape(table_size: int, uniform: DheShape) -> DheShape:
    """The Varied-DHE stack for a table of ``table_size`` rows.

    Only ``k`` is scaled (0.125x per decade, floored at ``VARIED_MIN_K``);
    the FC decoder widths stay as in the Uniform model. This is what matches the
    paper's measured Varied/Uniform ratios — memory 33.4/68.2 MB and
    embedding latency ~0.57x on Kaggle — which an all-width shrink would
    overshoot by an order of magnitude.
    """
    factor = varied_scale_factor(table_size)
    scaled_k = max(VARIED_MIN_K, int(round(uniform.k * factor)))
    return DheShape(k=scaled_k, fc_sizes=uniform.fc_sizes,
                    out_dim=uniform.out_dim)


def dhe_table_shape(table_size: int, dim: int,
                    uniform: Optional[DheShape],
                    varied: bool = True) -> DheShape:
    """The DHE stack a ``table_size``-row, ``dim``-wide table is built and
    priced with: its Varied stack (§IV-B1), or the Uniform one itself.

    Raises :class:`ValueError` when no Uniform shape is given or its output
    width is not ``dim``.
    """
    if uniform is None:
        raise ValueError("no DHE uniform shape was given; DHE techniques "
                         "are unavailable")
    if dim != uniform.out_dim:
        raise ValueError(f"embedding dim {dim} does not match the DHE "
                         f"uniform shape's out_dim {uniform.out_dim}")
    return dhe_varied_shape(table_size, uniform) if varied else uniform


def dhe_latency(shape: DheShape, batch: int, threads: int = 1) -> float:
    """Hash + decode latency for one batch of embeddings."""
    check_positive("batch", batch)
    flops = batch * (shape.flops_per_embedding() + shape.hash_ops_per_embedding())
    return flops / DEFAULT_PLATFORM.flop_rate(batch, threads)


# ----------------------------------------------------------------------
# Tree ORAM
# ----------------------------------------------------------------------
def _flat_posmap_rows(num_blocks: int) -> float:
    """Row-touch equivalent of an oblivious flat position-map lookup."""
    # read + write of every entry; entries are 8 B vs a d*4 B block row, so
    # convert to "row bytes" at the caller via POSMAP_ENTRY_BYTES.
    return 2 * num_blocks


def oram_access_bytes(scheme: str, num_rows: int, dim: int) -> float:
    """Bytes moved through the oblivious controller per single access.

    Derived from the structure of :class:`repro.oram.PathORAM` /
    :class:`repro.oram.CircuitORAM`: bucket sweeps plus the cmov stash scans
    that dominate software ORAM cost, plus recursive position-map accesses.
    """
    check_in("scheme", scheme, ("path", "circuit", "ring"))
    check_positive("num_rows", num_rows)
    row_bytes = dim * DEFAULT_PLATFORM.element_bytes
    total = 0.0
    blocks = num_rows
    width_bytes = row_bytes
    cutoff = {"path": PATH_RECURSION_CUTOFF,
              "circuit": CIRCUIT_RECURSION_CUTOFF,
              "ring": RING_RECURSION_CUTOFF}[scheme]
    while True:
        levels = tree_levels_for(blocks)
        path_len = levels + 1
        if scheme == "path":
            stash_total = PATH_STASH + BUCKET_SIZE * path_len
            rows = (
                2 * BUCKET_SIZE * path_len            # bucket fetch + clear
                + BUCKET_SIZE * path_len * stash_total  # per-slot stash scans
                + (2 + path_len) * stash_total        # remove/add + writeback scans
                + BUCKET_SIZE * path_len              # writeback bucket writes
            )
        elif scheme == "ring":
            slots_per_bucket = BUCKET_SIZE + RING_DUMMIES
            stash_total = RING_STASH + slots_per_bucket * path_len
            # One slot read per bucket, plus the amortised EvictPath
            # (full-path read + write of Z+S slots every A accesses) and
            # stash scans for remove/add + eviction drains.
            rows = (
                path_len                               # single-slot reads
                + (2 * slots_per_bucket * path_len) / RING_EVICT_RATE
                + (2 + (2 * path_len) / RING_EVICT_RATE) * stash_total
            )
        else:
            stash_total = CIRCUIT_STASH + 2
            rows = (
                2 * BUCKET_SIZE * path_len            # read path sweep (r+w)
                + 2 * (BUCKET_SIZE * path_len         # 2 evictions: metadata scan
                       + 2 * BUCKET_SIZE * path_len   #   evict sweep (r+w)
                       + 2 * stash_total)             #   stash scans
                + 3 * stash_total                     # read/remove/add stash scans
            )
        total += rows * width_bytes
        if blocks <= cutoff:
            total += _flat_posmap_rows(blocks) * POSMAP_ENTRY_BYTES
            break
        # Recurse into the position-map ORAM (16 labels per block).
        blocks = (blocks + POSMAP_COMPRESSION - 1) // POSMAP_COMPRESSION
        width_bytes = POSMAP_COMPRESSION * POSMAP_ENTRY_BYTES
    return total


def oram_latency(scheme: str, num_rows: int, dim: int, batch: int,
                 threads: int = 1) -> float:
    """Batch latency of a tree ORAM (accesses are inherently sequential).

    ``threads`` barely helps (§V-A1: internal structures update sequentially);
    we allow a small pipelining credit only for the memory streaming. This
    is our optimized build; Fig 10 multiplies it by
    :func:`zerotrace_variant_factor` for the ZeroTrace levels.
    """
    check_positive("batch", batch)
    per_access_bytes = oram_access_bytes(scheme, num_rows, dim)
    # The cmov-hardened controller streams at the oblivious single-thread
    # rate regardless of residency (the scans are predication-bound).
    per_access = (per_access_bytes / DEFAULT_PLATFORM.scan_dram_bw
                  + DEFAULT_PLATFORM.oram_fixed_overhead)
    return batch * per_access


def sqrt_oram_access_bytes(num_rows: int, dim: int) -> float:
    """Bytes moved per square-root ORAM access, reshuffle amortised.

    Mirrors :class:`repro.oram.sqrt_oram.SqrtORAM`: a full position-map
    R+W scan, an oblivious shelter sweep (⌈√n⌉ slots, peek + write), one
    permuted-store row read, and 1/⌈√n⌉-th of the read+write reshuffle
    sweep over the n + ⌈√n⌉ store slots.
    """
    check_positive("num_rows", num_rows)
    row_bytes = dim * DEFAULT_PLATFORM.element_bytes
    shelter = math.ceil(math.sqrt(num_rows))
    posmap = 2 * num_rows * POSMAP_ENTRY_BYTES
    shelter_sweeps = 2 * shelter * row_bytes
    store_read = row_bytes
    reshuffle = 2 * (num_rows + shelter) * row_bytes / shelter
    return posmap + shelter_sweeps + store_read + reshuffle


def sqrt_oram_latency(num_rows: int, dim: int, batch: int,
                      threads: int = 1) -> float:
    """Batch latency of the square-root scheme (accesses sequential).

    Like the tree ORAMs, the cmov-hardened scans are predication-bound:
    the oblivious single-thread streaming rate applies and ``threads``
    buys nothing.
    """
    check_positive("batch", batch)
    del threads  # scans are predication-bound; parallelism buys nothing
    per_access_bytes = sqrt_oram_access_bytes(num_rows, dim)
    per_access = (per_access_bytes / DEFAULT_PLATFORM.scan_dram_bw
                  + DEFAULT_PLATFORM.oram_fixed_overhead)
    return batch * per_access


# ----------------------------------------------------------------------
# ZeroTrace optimization levels (Fig 10)
# ----------------------------------------------------------------------
#: Multipliers relative to our optimized build (ZT-Gramine-Opt == 1.0),
#: from §V-A1: enclave-resident trees cut ZT-Original by 20% (Path) / 60%
#: (Circuit); recursion + cmov inlining cuts a further 29% / 54%.
ZEROTRACE_VARIANTS = {
    ("path", "zt-original"): 1.0 / (0.80 * 0.71),
    ("path", "zt-gramine"): 1.0 / 0.71,
    ("path", "zt-gramine-opt"): 1.0,
    ("circuit", "zt-original"): 1.0 / (0.40 * 0.46),
    ("circuit", "zt-gramine"): 1.0 / 0.46,
    ("circuit", "zt-gramine-opt"): 1.0,
}


def zerotrace_variant_factor(scheme: str, variant: str) -> float:
    key = (scheme, variant)
    if key not in ZEROTRACE_VARIANTS:
        raise ValueError(f"unknown ZeroTrace variant {key}")
    return ZEROTRACE_VARIANTS[key]
