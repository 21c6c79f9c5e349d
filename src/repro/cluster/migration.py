"""Live, audited table migration between plan epochs.

Moving tables between nodes is the restructuring analogue of an ORAM
eviction: it happens *ahead of* accesses, against live traffic, and if the
order or pacing of the moves is keyed on observed load it leaks exactly
the per-table heat the paper's defences hide (LAORAM's lesson — the
restructuring must itself stay access-pattern-oblivious). The engine here
makes the whole transition a function of public metadata:

* the **move-set** between two :class:`~repro.cluster.epoch.PlanEpoch`
  snapshots is minimal — only tables whose owner set changed move, which
  the consistent-hash ring keeps at ~``tables x R / nodes`` for a one-node
  reshard (the incrementality the router tests pin);
* moves execute in **bounded-size steps**; while a table is in flight it
  is **double-served** from both its source and target owners, so at
  replication >= 2 no request ever finds the table ownerless and zero
  requests drop across the cutover;
* the **move order** is chosen by a :class:`MigrationPlanner` that — like
  the shard planner — *accepts* the observed workload argument a
  heat-keyed scheduler would want and must ignore it. Every intermediate
  assignment (which tables are pending / in flight / moved at each step)
  is recorded in the ``cluster.migration`` tracer region and replayed
  under contrasting workloads by the
  :class:`~repro.telemetry.audit.LeakageAuditor` in exact mode.
  :class:`HotFirstMigrationPlanner` (move the hottest tables first — the
  "natural" warm-up order) is the in-tree negative control the audit must
  flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.epoch import PlanEpoch
from repro.cluster.placement import AUDIT_SECRET_LENGTH
from repro.cluster.router import route_tables
from repro.oblivious.trace import WRITE, MemoryTracer
from repro.serving.batcher import BatchingPolicy
from repro.serving.engine import ServingConfig
from repro.serving.requests import ArrivalsLike, RequestQueue
from repro.telemetry.audit import (
    MODE_EXACT,
    AuditSubject,
    contrasting_secrets,
)
from repro.telemetry.runtime import get_registry
from repro.utils.validation import check_positive

#: tracer region every intermediate migration assignment is recorded under
MIGRATION_REGION = "cluster.migration"

#: phases a table passes through during a migration (trace encoding)
PHASE_PENDING, PHASE_IN_FLIGHT, PHASE_MOVED = 0, 1, 2


@dataclass(frozen=True)
class TableMove:
    """One table's ownership change between epochs."""

    table_id: int
    from_owners: Tuple[int, ...]
    to_owners: Tuple[int, ...]
    new_owners: Tuple[int, ...]      # owners that must receive a copy
    bytes_modelled: int              # footprint x copies provisioned

    def to_dict(self) -> Dict[str, object]:
        return {
            "table_id": self.table_id,
            "from_owners": list(self.from_owners),
            "to_owners": list(self.to_owners),
            "new_owners": list(self.new_owners),
            "bytes_modelled": self.bytes_modelled,
        }


@dataclass(frozen=True)
class MigrationStep:
    """One bounded batch of concurrent table moves."""

    index: int
    moves: Tuple[TableMove, ...]

    @property
    def table_ids(self) -> Tuple[int, ...]:
        return tuple(move.table_id for move in self.moves)

    @property
    def bytes_modelled(self) -> int:
        return sum(move.bytes_modelled for move in self.moves)


@dataclass(frozen=True)
class BandwidthContentionModel:
    """Data-copy traffic contending with serving traffic, per step.

    A migration step streams ``bytes_modelled`` table bytes between nodes
    over the same fabric the scatter-gather fan-out uses. Instead of
    treating the copy as free (the pure byte count PR 5 reported), this
    model prices the contention: the fraction of a step's serving window
    the copy occupies inflates every request latency in that window by up
    to ``contention_weight`` (full overlap doubles nothing worse than
    ``1 + contention_weight``x). The inputs — move-set bytes and the
    public arrival window — are secret-free, so the inflation is a
    function of the plan, never of request content.
    """

    copy_bandwidth_bytes_per_second: float = 12.5e9   # ~100 Gbit/s fabric
    contention_weight: float = 0.8                    # slowdown at full overlap

    def __post_init__(self) -> None:
        check_positive("copy_bandwidth_bytes_per_second",
                       self.copy_bandwidth_bytes_per_second)
        if not 0.0 <= self.contention_weight:
            raise ValueError(f"contention_weight must be >= 0, got "
                             f"{self.contention_weight!r}")

    def copy_seconds(self, bytes_modelled: int) -> float:
        """Wire time to stream one step's copy bytes."""
        return bytes_modelled / self.copy_bandwidth_bytes_per_second

    def multiplier(self, bytes_modelled: int,
                   window_seconds: float) -> float:
        """Service-latency inflation for a step serving ``window_seconds``.

        ``1 + weight x overlap`` where overlap is the copy time's share of
        the window, capped at 1 (a copy longer than the window saturates
        the link for the whole window; it cannot contend more than that).
        A degenerate zero-length window is treated as fully overlapped —
        the conservative direction.
        """
        copy = self.copy_seconds(bytes_modelled)
        if copy <= 0.0:
            return 1.0
        overlap = 1.0 if window_seconds <= 0.0 else min(
            1.0, copy / window_seconds)
        return 1.0 + self.contention_weight * overlap

    def to_dict(self) -> Dict[str, object]:
        return {
            "copy_bandwidth_bytes_per_second":
                self.copy_bandwidth_bytes_per_second,
            "contention_weight": self.contention_weight,
        }


class MigrationPlanner:
    """Orders the move-set by static metadata only (table id).

    ``workload`` exists so the :func:`migration_subject` audit can verify it
    is ignored — the same enforced-not-assumed contract the shard planner
    honours for placement.
    """

    def move_order(self, moves: Sequence[TableMove],
                   workload: Optional[Sequence[int]] = None
                   ) -> List[TableMove]:
        return sorted(moves, key=lambda move: move.table_id)


class HotFirstMigrationPlanner(MigrationPlanner):
    """The anti-pattern: migrate the hottest tables first.

    Bins the observed workload into per-table heat and schedules the
    hottest moves into the earliest steps — the "natural" order that warms
    the target fastest and leaks per-table popularity through step
    membership. Kept only as the negative control for the migration
    leakage audit; never use it to drive a real migration.
    """

    def move_order(self, moves: Sequence[TableMove],
                   workload: Optional[Sequence[int]] = None
                   ) -> List[TableMove]:
        if workload is None or not moves:
            return super().move_order(moves, workload)
        observed = np.asarray(workload, dtype=np.int64)
        size = max(move.table_id for move in moves) + 1
        heat = np.bincount(observed % size, minlength=size)
        return sorted(moves, key=lambda move: (-int(heat[move.table_id]),
                                               move.table_id))


class TransitioningOwnerMap:
    """The owner view mid-migration: pending / in-flight / moved tables.

    Pending tables route through the source epoch, moved tables through
    the target epoch, and in-flight tables are **double-served**: both the
    first live source-side owner and the first live target-side owner
    carry the table, so a request finds it as long as either side has a
    live replica. Its ``assignment`` is the router's own walk
    (:func:`~repro.cluster.router.route_tables`) over two owner groups per
    in-flight table, which is what lets the scatter-gather engine fan out
    against a transition without knowing one is happening.
    """

    def __init__(self, source: PlanEpoch, target: PlanEpoch,
                 moved: frozenset, in_flight: frozenset) -> None:
        if moved & in_flight:
            raise ValueError("a table cannot be both moved and in flight: "
                             f"{sorted(moved & in_flight)}")
        self.source = source
        self.target = target
        self.moved = moved
        self.in_flight = in_flight

    # ------------------------------------------------------------------
    def owners(self, table_id: int) -> Tuple[int, ...]:
        """Every node holding the table right now (source side first)."""
        combined: List[int] = []
        for group in self._owner_groups(table_id):
            combined += [node for node in group if node not in combined]
        return tuple(combined)

    def _owner_groups(self, table_id: int) -> List[Tuple[int, ...]]:
        """The owner sets that each independently serve the table."""
        if table_id in self.moved:
            return [self.target.owners(table_id)]
        if table_id in self.in_flight:
            return [self.source.owners(table_id),
                    self.target.owners(table_id)]
        return [self.source.owners(table_id)]

    def assignment(self, num_tables: int, now_seconds: float = 0.0,
                   dispatcher=None) -> Tuple[Dict[int, List[int]],
                                             List[int]]:
        """(node -> served table ids, unroutable table ids) right now.

        An in-flight table appears on *both* its source-side and
        target-side serving node — that is the double-serve load the p99
        inflation gate prices — and is unroutable only when every owner on
        both sides is out.
        """
        return route_tables(self._owner_groups, num_tables, now_seconds,
                            dispatcher)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source_epoch": self.source.epoch,
            "target_epoch": self.target.epoch,
            "moved": sorted(self.moved),
            "in_flight": sorted(self.in_flight),
        }


@dataclass
class MigrationReport:
    """What one executed migration did and what it cost."""

    source_epoch: int
    target_epoch: int
    replication: int
    step_size: int
    moves: Tuple[TableMove, ...]
    step_cells: List[Dict[str, object]] = field(default_factory=list)
    window_latencies: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64))
    num_requests: int = 0
    shed_requests: int = 0
    unroutable_events: int = 0

    # ------------------------------------------------------------------
    @property
    def tables_moved(self) -> int:
        return len(self.moves)

    @property
    def bytes_modelled(self) -> int:
        return sum(move.bytes_modelled for move in self.moves)

    @property
    def num_steps(self) -> int:
        return len(self.step_cells)

    @property
    def availability(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return 1.0 - self.shed_requests / self.num_requests

    @property
    def window_p99(self) -> float:
        """p99 over every request served inside the migration window."""
        if self.window_latencies.size == 0:
            return 0.0
        return float(np.percentile(self.window_latencies, 99))

    def to_dict(self) -> Dict[str, object]:
        return {
            "source_epoch": self.source_epoch,
            "target_epoch": self.target_epoch,
            "replication": self.replication,
            "step_size": self.step_size,
            "tables_moved": self.tables_moved,
            "bytes_modelled": self.bytes_modelled,
            "num_steps": self.num_steps,
            "num_requests": self.num_requests,
            "shed_requests": self.shed_requests,
            "unroutable_events": self.unroutable_events,
            "availability": self.availability,
            "window_p99_seconds": self.window_p99,
            "moves": [move.to_dict() for move in self.moves],
            "steps": self.step_cells,
        }


class MigrationEngine:
    """Computes and executes the epoch transition in bounded, audited steps."""

    def __init__(self, source: PlanEpoch, target: PlanEpoch,
                 step_size: int = 4,
                 planner: Optional[MigrationPlanner] = None,
                 moves: Optional[Sequence[TableMove]] = None,
                 contention: Optional[BandwidthContentionModel] = None
                 ) -> None:
        check_positive("step_size", step_size)
        if source.num_tables != target.num_tables:
            raise ValueError(
                f"epochs place different table sets: {source.num_tables} "
                f"vs {target.num_tables} tables")
        if target.epoch <= source.epoch:
            raise ValueError(
                f"target epoch {target.epoch} must succeed source epoch "
                f"{source.epoch}")
        self.source = source
        self.target = target
        self.step_size = step_size
        self.planner = planner if planner is not None else MigrationPlanner()
        # An explicit move list overrides the epoch diff: how a heal
        # re-replicates a dead node's tables under a plan that did not
        # change (the epoch diff would be empty). Every override move must
        # reference a table both epochs place.
        if moves is not None:
            for move in moves:
                if not 0 <= move.table_id < source.num_tables:
                    raise ValueError(
                        f"override move references table {move.table_id} "
                        f"outside the {source.num_tables}-table plan")
        self._moves_override = (None if moves is None else tuple(moves))
        self.contention = contention

    # ------------------------------------------------------------------
    def move_set(self) -> List[TableMove]:
        """The move-set: the epoch diff, or the explicit override."""
        if self._moves_override is not None:
            return list(self._moves_override)
        moves: List[TableMove] = []
        for table_id in range(self.source.num_tables):
            from_owners = self.source.owners(table_id)
            to_owners = self.target.owners(table_id)
            if set(from_owners) == set(to_owners):
                continue
            new_owners = tuple(node for node in to_owners
                               if node not in from_owners)
            footprint = self.target.footprint_of(table_id)
            moves.append(TableMove(
                table_id=table_id, from_owners=from_owners,
                to_owners=to_owners, new_owners=new_owners,
                bytes_modelled=footprint * len(new_owners)))
        return moves

    def plan_steps(self, workload: Optional[Sequence[int]] = None,
                   tracer: Optional[MemoryTracer] = None
                   ) -> List[MigrationStep]:
        """Chunk the ordered move-set into bounded steps; trace each state.

        The tracer records, per step, every table's phase (pending /
        in-flight / moved) — the full intermediate assignment, since both
        epochs are themselves workload-blind. Any workload-dependent move
        order shows up as trace divergence in the audit.
        """
        ordered = self.planner.move_order(self.move_set(), workload)
        steps = [MigrationStep(index, tuple(ordered[at:at + self.step_size]))
                 for index, at in enumerate(range(0, len(ordered),
                                                  self.step_size))]
        if tracer is not None:
            num_tables = self.source.num_tables
            moved: set = set()
            for step in steps:
                in_flight = set(step.table_ids)
                for table_id in range(num_tables):
                    phase = (PHASE_MOVED if table_id in moved
                             else PHASE_IN_FLIGHT if table_id in in_flight
                             else PHASE_PENDING)
                    tracer.record(
                        WRITE, MIGRATION_REGION,
                        (step.index * num_tables + table_id) * 3 + phase)
                moved |= in_flight
        return steps

    # ------------------------------------------------------------------
    def owner_map_for(self, step_index: int,
                      steps: Sequence[MigrationStep]
                      ) -> TransitioningOwnerMap:
        """The intermediate owner map while ``steps[step_index]`` is in flight."""
        moved = frozenset(table_id for step in steps[:step_index]
                          for table_id in step.table_ids)
        in_flight = frozenset(steps[step_index].table_ids)
        return TransitioningOwnerMap(self.source, self.target, moved,
                                     in_flight)

    def final_owner_map(self) -> TransitioningOwnerMap:
        """The post-cutover map: every move complete, nothing in flight."""
        moved = frozenset(move.table_id for move in self.move_set())
        return TransitioningOwnerMap(self.source, self.target, moved,
                                     frozenset())

    # ------------------------------------------------------------------
    def execute(self, engine, config: ServingConfig, arrivals: ArrivalsLike,
                policy: Optional[BatchingPolicy] = None) -> MigrationReport:
        """Run the migration against live traffic, one trace slice per step.

        ``engine`` is a :class:`~repro.cluster.scatter.ScatterGatherEngine`
        built over the full table set; each step serves its slice of the
        arrival trace against that step's transitioning owner map — the
        requests that arrive during step k are routed by step k's map,
        which is the "route by the epoch a request arrived in" contract
        scaled down to intermediate states.
        """
        queue = RequestQueue.coerce(arrivals)
        steps = self.plan_steps()
        report = MigrationReport(
            source_epoch=self.source.epoch, target_epoch=self.target.epoch,
            replication=self.source.replication, step_size=self.step_size,
            moves=tuple(self.planner.move_order(self.move_set())))
        registry = get_registry()
        with registry.span("cluster.migration",
                           source_epoch=self.source.epoch,
                           target_epoch=self.target.epoch,
                           steps=len(steps), tables=report.tables_moved):
            if not steps:
                return report
            slices = np.array_split(queue.arrivals, len(steps))
            window: List[np.ndarray] = []
            for step, chunk in zip(steps, slices):
                owner_map = self.owner_map_for(step.index, steps)
                cell: Dict[str, object] = {
                    "step": step.index,
                    "tables_in_flight": list(step.table_ids),
                    "bytes_modelled": step.bytes_modelled,
                    "num_requests": int(chunk.size),
                    "shed_requests": 0,
                    "unroutable_tables": 0,
                    "p99_seconds": 0.0,
                }
                if chunk.size:
                    result = engine.serve(config, RequestQueue(chunk),
                                          policy, owner_map=owner_map)
                    latencies = result.report.latencies
                    shed = result.shed_requests
                    if self.contention is not None:
                        latencies, shed, contended = self._apply_contention(
                            step, chunk, result)
                        cell.update(contended)
                    window.append(latencies)
                    report.num_requests += result.num_requests
                    report.shed_requests += shed
                    report.unroutable_events += len(
                        result.unroutable_tables)
                    cell["shed_requests"] = shed
                    cell["unroutable_tables"] = len(
                        result.unroutable_tables)
                    cell["p99_seconds"] = (
                        float(np.percentile(latencies, 99))
                        if self.contention is not None else result.p99)
                report.step_cells.append(cell)
            if window:
                report.window_latencies = np.concatenate(window)
        if registry.enabled:
            registry.counter("cluster.migration.steps_total").inc(len(steps))
            registry.counter("cluster.migration.tables_moved_total").inc(
                report.tables_moved)
            registry.counter("cluster.migration.bytes_total").inc(
                report.bytes_modelled)
            registry.counter("cluster.migration.shed_total").inc(
                report.shed_requests)
            registry.gauge("cluster.migration.window_p99_seconds").set(
                report.window_p99)
        return report

    # ------------------------------------------------------------------
    def _apply_contention(self, step: MigrationStep, chunk: np.ndarray,
                          result) -> Tuple[np.ndarray, int,
                                           Dict[str, object]]:
        """Inflate one step's service latencies by its copy contention.

        The step's copy bytes occupy the fabric for part of the step's
        arrival window; the service component (not the queueing component)
        of every request in the window inflates by the model's multiplier,
        and requests the inflation pushes past the deadline are shed with
        censored latencies — so scale events carry a real p99/availability
        cost instead of a free byte count.
        """
        window_seconds = float(chunk[-1] - chunk[0]) if chunk.size > 1 else 0.0
        multiplier = self.contention.multiplier(step.bytes_modelled,
                                                window_seconds)
        queue_delays = result.report.queue_delays
        inflated = queue_delays + ((result.report.latencies - queue_delays)
                                   * multiplier)
        deadline = result.deadline_seconds
        shed = result.shed_requests
        if math.isfinite(deadline):
            # Originally-shed requests sit censored *at* the deadline, so
            # a strict > recount sees them again once inflated; max()
            # keeps the count right for a multiplier of exactly 1.
            shed = max(shed, int(np.count_nonzero(inflated > deadline)))
            inflated = np.minimum(inflated, deadline)
        contended = {
            "copy_seconds": self.contention.copy_seconds(
                step.bytes_modelled),
            "window_seconds": window_seconds,
            "contention_multiplier": multiplier,
        }
        return inflated, shed, contended


# ----------------------------------------------------------------------
# The migration-level leakage check (judged by LeakageAuditor).
# ----------------------------------------------------------------------
def default_migration_workloads(num_tables: int,
                                move_table_ids: Sequence[int],
                                length: int = AUDIT_SECRET_LENGTH
                                ) -> List[Sequence[int]]:
    """Contrasting traffic profiles keyed to the (public) move-set.

    Hammer the first moving table, hammer the last moving table, and a
    uniform sweep — maximum contrast *within the move-set*, which is what
    a heat-keyed move order responds to. The move-set itself is derived
    from the two epochs, both workload-blind, so conditioning the audit
    workloads on it is secret-free.
    """
    head, tail, sweep = contrasting_secrets(num_tables, length)
    ids = sorted(set(move_table_ids))
    if ids:
        head, tail = [ids[0]] * length, [ids[-1]] * length
    return [head, tail, sweep]


def migration_subject(engine: MigrationEngine,
                      workloads: Optional[Sequence[Sequence[int]]] = None,
                      name: str = "migration-planner",
                      expect_oblivious: bool = True) -> AuditSubject:
    """Wrap a migration as an :class:`AuditSubject`: one replay per workload.

    ``LeakageAuditor().require(migration_subject(engine))`` is the gate a
    migration passes before it may execute against live traffic.
    """
    if workloads is None:
        workloads = default_migration_workloads(
            engine.source.num_tables,
            [move.table_id for move in engine.move_set()])

    def run(tracer: MemoryTracer, secret: Sequence[int]) -> None:
        engine.plan_steps(workload=secret, tracer=tracer)

    return AuditSubject(name, run, workloads, mode=MODE_EXACT,
                        expect_oblivious=expect_oblivious)
