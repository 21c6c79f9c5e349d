"""Tree-based ORAM controllers (Path ORAM and Circuit ORAM) with recursion."""

from repro.oram.circuit_oram import CircuitORAM
from repro.oram.controller import AccessStats, OramController
from repro.oram.lookahead import (
    LOOKAHEAD_REGION,
    BatchPlan,
    SequentialLeakingBatcher,
    contrasting_batches,
    lookahead_access_batch,
    lookahead_subjects,
)
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM
from repro.oram.position_map import (
    POSMAP_COMPRESSION,
    FlatPositionMap,
    OramPositionMap,
    PositionMap,
)
from repro.oram.stash import Stash, StashOverflowError
from repro.oram.tree import DUMMY, BucketTree, bit_reverse, tree_levels_for

__all__ = [
    "CircuitORAM",
    "bit_reverse",
    "LOOKAHEAD_REGION",
    "BatchPlan",
    "SequentialLeakingBatcher",
    "contrasting_batches",
    "lookahead_access_batch",
    "lookahead_subjects",
    "AccessStats",
    "OramController",
    "PathORAM",
    "RingORAM",
    "SqrtORAM",
    "POSMAP_COMPRESSION",
    "FlatPositionMap",
    "OramPositionMap",
    "PositionMap",
    "Stash",
    "StashOverflowError",
    "DUMMY",
    "BucketTree",
    "tree_levels_for",
]
