"""Admission strategies and load gossip.

Three congestion-control strategies decide what a node does with each
incoming request:

* ``none``: execute while below the capacity threshold, else drop.
* ``passive``: execute while below threshold, else push the problem one hop
  toward the server; at the end of the path the request is dropped unless
  the scenario lets the server execute.
* ``proactive``: admit with probability q from the node's estimator state;
  rejected requests go to the least-loaded executor neighbor (one TTL tick
  per forward). Exhausted TTL falls back to execute-if-feasible.

``none`` and ``passive`` share one threshold rule, ``decide_threshold``;
they differ only in the overflow decision a node takes at or above the
threshold, which is fixed per node before a run (``DROP`` for ``none``,
``passive_overflow`` for ``passive``). Forward targets are whatever node
ids the caller's tables use.

Load gossip reaches a node's ``NeighborLoadTable`` through ``apply``, the
one place that decides whether an observation is stale.

Decisions are pure functions of their inputs (the RNG draw is passed in),
so the simulator, the CLI, and the tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .workload import EstimatorState


class Action(Enum):
    EXECUTE = "execute"
    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of a strategy for one request at one node."""

    action: Action
    target: int | None = None  # receiving node for FORWARD

    @staticmethod
    def forward(target: int) -> "AdmissionDecision":
        dec = _FORWARDS.get(target)
        if dec is None:
            dec = _FORWARDS[target] = AdmissionDecision(Action.FORWARD, target)
        return dec


_EXECUTE = AdmissionDecision(Action.EXECUTE)
DROP = AdmissionDecision(Action.DROP)
# Decisions are immutable, so one FORWARD instance per target is shared.
_FORWARDS: dict[int, AdmissionDecision] = {}


@dataclass
class NeighborLoadTable:
    """Last known load per executor neighbor, with observation timestamps.

    Entries are pre-seeded at load 0.0 so a fresh node has forwarding
    candidates before any gossip arrives.
    """

    loads: dict[int, float] = field(default_factory=dict)
    as_of: dict[int, float] = field(default_factory=dict)

    @staticmethod
    def seeded(neighbor_ids) -> "NeighborLoadTable":
        t = NeighborLoadTable()
        for nid in sorted(neighbor_ids):
            t.loads[nid] = 0.0
            t.as_of[nid] = 0.0
        return t

    def apply(self, sender: int, load: float, published_at: float) -> bool:
        """Install a neighbor's load published at ``published_at``; an
        unknown sender or an older observation than the one held loses."""
        as_of = self.as_of.get(sender)
        if as_of is None or published_at < as_of:
            return False
        self.loads[sender] = load
        self.as_of[sender] = published_at
        return True


def lightest_load_neighbor(table: NeighborLoadTable) -> int | None:
    """Neighbor with the smallest known load (ties to the lowest id);
    None signals an empty table (no forwarding candidates)."""
    best_id: int | None = None
    best_load = 0.0
    for nid, load in table.loads.items():
        if best_id is None or load < best_load or (load == best_load and nid < best_id):
            best_id = nid
            best_load = load
    return best_id


def decide_threshold(
    node_load: float, capacity_threshold: float, overflow: AdmissionDecision
) -> AdmissionDecision:
    """Execute below the threshold; at or above it, take ``overflow``."""
    return _EXECUTE if node_load < capacity_threshold else overflow


def passive_overflow(
    next_hop: int | None, server: int, server_executes: bool = False
) -> AdmissionDecision:
    """What a passive node does at or above threshold: forward to its next
    hop toward the server, or drop at the server and before a server that
    does not execute."""
    if next_hop is None or (next_hop == server and not server_executes):
        return DROP
    return AdmissionDecision.forward(next_hop)


def decide_proactive(
    state: EstimatorState,
    neighbors: NeighborLoadTable,
    cpu_capacity: float,
    mem_capacity: float,
    rng_draw: float,
    ttl_remaining: int,
    node_load: float,
    capacity_threshold: float,
    forwarding_enabled: bool = True,
) -> AdmissionDecision:
    """Probabilistic admission against the estimator's q.

    The caller records the arrival into ``state`` first, then supplies one
    uniform draw. TTL 0 means the request may travel no further: it executes
    if the node is below threshold and drops otherwise. The same feasibility
    fallback applies when no forwarding candidate exists.
    """
    if ttl_remaining <= 0:
        return decide_threshold(node_load, capacity_threshold, DROP)
    q = state.execution_probability(cpu_capacity, mem_capacity)
    if rng_draw < q:
        return _EXECUTE
    if not forwarding_enabled:
        return DROP
    target = lightest_load_neighbor(neighbors)
    if target is None:
        return decide_threshold(node_load, capacity_threshold, DROP)
    return AdmissionDecision.forward(target)


__all__ = [
    "DROP",
    "Action",
    "AdmissionDecision",
    "NeighborLoadTable",
    "decide_proactive",
    "decide_threshold",
    "lightest_load_neighbor",
    "passive_overflow",
]
