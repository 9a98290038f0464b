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

Decisions are pure functions of their inputs (the RNG draw is passed in),
so the simulator, the CLI, and the tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .topology import Topology
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
    def execute() -> "AdmissionDecision":
        return _EXECUTE

    @staticmethod
    def drop() -> "AdmissionDecision":
        return _DROP

    @staticmethod
    def forward(target: int) -> "AdmissionDecision":
        dec = _FORWARDS.get(target)
        if dec is None:
            dec = _FORWARDS[target] = AdmissionDecision(Action.FORWARD, target)
        return dec


_EXECUTE = AdmissionDecision(Action.EXECUTE)
_DROP = AdmissionDecision(Action.DROP)
# Decisions are immutable, so one FORWARD instance per target is shared.
_FORWARDS: dict[int, AdmissionDecision] = {}


@dataclass(frozen=True)
class GossipMessage:
    """One published load observation."""

    sender: int
    load: float
    published_at: float


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

    def apply(self, msg: GossipMessage) -> bool:
        """Install a received observation; stale (older) messages lose."""
        if msg.sender not in self.loads:
            return False
        if msg.published_at < self.as_of[msg.sender]:
            return False
        self.loads[msg.sender] = msg.load
        self.as_of[msg.sender] = msg.published_at
        return True


def publish_load(node_id: int, load: float, now: float) -> GossipMessage:
    """Snapshot this node's normalized load for dissemination."""
    return GossipMessage(sender=node_id, load=load, published_at=now)


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


def decide_none(node_load: float, capacity_threshold: float) -> AdmissionDecision:
    """Threshold-only admission; at or above threshold the request drops."""
    return _EXECUTE if node_load < capacity_threshold else _DROP


def decide_passive(
    node_load: float,
    capacity_threshold: float,
    node_id: int,
    topo: Topology,
    server_executes: bool = False,
) -> AdmissionDecision:
    """Threshold admission with overflow pushed along the server path."""
    if node_load < capacity_threshold:
        return _EXECUTE
    nxt = topo.next_hop_toward_server(node_id)
    if nxt is None:
        return _DROP
    if nxt == topo.server_id and not server_executes:
        return _DROP
    return AdmissionDecision.forward(nxt)


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
        return _EXECUTE if node_load < capacity_threshold else _DROP
    q = state.execution_probability(cpu_capacity, mem_capacity)
    if rng_draw < q:
        return _EXECUTE
    if not forwarding_enabled:
        return _DROP
    target = lightest_load_neighbor(neighbors)
    if target is None:
        return _EXECUTE if node_load < capacity_threshold else _DROP
    return AdmissionDecision.forward(target)


__all__ = [
    "Action",
    "AdmissionDecision",
    "GossipMessage",
    "NeighborLoadTable",
    "decide_none",
    "decide_passive",
    "decide_proactive",
    "lightest_load_neighbor",
    "publish_load",
]
