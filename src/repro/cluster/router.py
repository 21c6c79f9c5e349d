"""Consistent-hash shard routing with replication and breaker failover.

The router answers "which node serves table t right now?". Ownership is
static and data-independent: each table's replica set is its planner
primary (when a :class:`~repro.cluster.placement.ShardPlan` is given)
followed by successors on a consistent-hash ring of virtual nodes, hashed
with SHA-256 over *table id* — never over request content. Liveness is
delegated to a :class:`~repro.resilience.dispatch.ResilientDispatcher`
whose per-node breakers/crash windows decide admission: :func:`route_tables`
serves each table from its first admitted owner, which is what makes a
node kill invisible at replication >= 2 (the sim's zero-loss gate).

Consistent hashing keeps reshards incremental: adding a node remaps only
the tables whose ring arc it captures, which keeps a migration's move-set
small.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import ShardPlan
from repro.resilience.dispatch import ResilientDispatcher
from repro.utils.validation import check_positive

#: ring points per node, fixed so every epoch hashes onto the same ring
VIRTUAL_NODES_PER_NODE = 32


def ring_hash(key: str) -> int:
    """Deterministic 64-bit ring position (SHA-256 prefix, seed-free)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8],
                          "big")


def route_tables(owner_groups: Callable[[int], Sequence[Tuple[int, ...]]],
                 num_tables: int, now_seconds: float = 0.0,
                 dispatcher: Optional[ResilientDispatcher] = None
                 ) -> Tuple[Dict[int, List[int]], List[int]]:
    """(node -> served table ids, unroutable table ids) right now.

    The one place owner sets meet replica health: each owner group of a
    table serves it from its first admitted owner (first owner without a
    dispatcher), and a table is unroutable only when every group is out.
    """
    check_positive("num_tables", num_tables)
    admitted = (None if dispatcher is None
                else set(dispatcher.admitted(now_seconds)))
    routed: Dict[int, List[int]] = {}
    unroutable: List[int] = []
    for table_id in range(num_tables):
        nodes: List[int] = []
        for group in owner_groups(table_id):
            live = (group[0] if admitted is None
                    else next((owner for owner in group
                               if owner in admitted), None))
            if live is not None and live not in nodes:
                nodes.append(live)
        if not nodes:
            unroutable.append(table_id)
        for node in nodes:
            routed.setdefault(node, []).append(table_id)
    return routed, unroutable


class ShardRouter:
    """Maps table ids to replica owner sets and routes around dead nodes."""

    def __init__(self, num_nodes: int, replication: int = 1,
                 plan: Optional[ShardPlan] = None) -> None:
        check_positive("num_nodes", num_nodes)
        check_positive("replication", replication)
        if replication > num_nodes:
            raise ValueError(
                f"replication {replication} exceeds num_nodes {num_nodes}; "
                f"a table cannot have more owners than there are nodes")
        if plan is not None and plan.num_nodes != num_nodes:
            raise ValueError(
                f"plan places onto {plan.num_nodes} nodes but the router "
                f"has {num_nodes}")
        self.num_nodes = num_nodes
        self.replication = replication
        self.plan = plan
        ring: List[Tuple[int, int]] = []
        for node in range(num_nodes):
            for virtual in range(VIRTUAL_NODES_PER_NODE):
                ring.append((ring_hash(f"node-{node}#vn-{virtual}"), node))
        ring.sort()
        self._ring = ring
        # The plan is fixed at construction, so each table's owner set is
        # computed once and kept for the router's lifetime.
        self._owners_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def _successors(self, table_id: int) -> List[int]:
        """Distinct nodes clockwise from the table's ring position."""
        position = ring_hash(f"table-{int(table_id)}")
        start = 0
        for index, (point, _) in enumerate(self._ring):
            if point >= position:
                start = index
                break
        nodes: List[int] = []
        for offset in range(len(self._ring)):
            _, node = self._ring[(start + offset) % len(self._ring)]
            if node not in nodes:
                nodes.append(node)
            if len(nodes) == self.num_nodes:
                break
        return nodes

    def _compute_owners(self, table_id: int) -> Tuple[int, ...]:
        """The unmemoized ring walk (the parity reference for the cache)."""
        successors = self._successors(table_id)
        if self.plan is not None:
            primary = self.plan.node_of(table_id)
            ordered = [primary] + [node for node in successors
                                   if node != primary]
        else:
            ordered = successors
        return tuple(ordered[:self.replication])

    def owners(self, table_id: int) -> Tuple[int, ...]:
        """The table's ordered replica set (primary first), memoized."""
        table_id = int(table_id)
        cached = self._owners_cache.get(table_id)
        if cached is None:
            cached = self._compute_owners(table_id)
            self._owners_cache[table_id] = cached
        return cached

    def assignment(self, num_tables: int, now_seconds: float = 0.0,
                   dispatcher: Optional[ResilientDispatcher] = None
                   ) -> Tuple[Dict[int, List[int]], List[int]]:
        """(node -> routed table ids, unroutable table ids) right now."""
        return route_tables(lambda table_id: (self.owners(table_id),),
                            num_tables, now_seconds, dispatcher)

    # ------------------------------------------------------------------
    def ownership_counts(self, num_tables: int) -> List[int]:
        """Tables per node counting every replica (capacity planning view)."""
        counts = [0] * self.num_nodes
        for table_id in range(num_tables):
            for owner in self.owners(table_id):
                counts[owner] += 1
        return counts

    def to_dict(self, num_tables: Optional[int] = None) -> Dict[str, object]:
        digest: Dict[str, object] = {
            "num_nodes": self.num_nodes,
            "replication": self.replication,
            "planned": self.plan is not None,
        }
        if num_tables is not None:
            digest["owners"] = {str(table_id): list(self.owners(table_id))
                                for table_id in range(num_tables)}
            digest["ownership_counts"] = self.ownership_counts(num_tables)
        return digest


def replica_table_sets(router: ShardRouter, table_sizes: Sequence[int]
                       ) -> Dict[int, List[int]]:
    """node -> every table id it must hold (primary or replica copy).

    This is the *provisioning* view — what each node stores — as opposed to
    :meth:`ShardRouter.assignment`, the *routing* view of who serves what
    right now.
    """
    holdings: Dict[int, List[int]] = {node: []
                                      for node in range(router.num_nodes)}
    for table_id in range(len(table_sizes)):
        for owner in router.owners(table_id):
            holdings[owner].append(table_id)
    return holdings
