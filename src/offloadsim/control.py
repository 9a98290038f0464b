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
ids the caller's feeds use.

Decisions are shared instances: ``EXECUTE``, ``DROP`` and one forward per
target, so callers branch on ``dec is EXECUTE`` / ``dec is DROP`` and read
a forward's ``target`` (which may be node 0).

Load gossip is pulled: completions and heartbeats publish loads on
``LoadFeed``s, one per link delay, and ``lightest_load_neighbor`` reads
them when a node forwards, holding the one staleness rule.

Decisions depend only on their inputs (the RNG draw is passed in),
so the simulator, the CLI, and the tests share one code path.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
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
    @functools.cache
    def forward(target: int) -> "AdmissionDecision":
        """The one shared FORWARD decision to ``target``."""
        return AdmissionDecision(Action.FORWARD, target)


EXECUTE = AdmissionDecision(Action.EXECUTE)
DROP = AdmissionDecision(Action.DROP)


class LoadFeed:
    """Publications of one source over links of one delay. ``deliver(now)``
    is the latest ``(published_at, value)`` landed by ``now`` (at first
    ``(-inf, initial)``: 0.0, or all-zero loads for heartbeats). Each lands
    at published_at + delay, in order as time only moves forward, and
    whoever touches the feed first, reader or publisher, delivers for all."""

    __slots__ = ("delay", "latest", "in_flight")

    def __init__(self, delay: float, initial=0.0):
        self.delay = delay
        self.latest = (-math.inf, initial)
        self.in_flight: deque = deque()

    def deliver(self, now: float) -> tuple:
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= now:
            self.latest = in_flight.popleft()[1]
        return self.latest

    def publish(self, now: float, value) -> None:
        self.deliver(now)
        self.in_flight.append((now + self.delay, (now, value)))


def lightest_load_neighbor(neighbors: list[tuple], now: float) -> int | None:
    """Neighbor with the smallest load visible at ``now`` (ties to the
    lowest id) from ``(neighbor, completion feed, heartbeat feed)`` triples
    in id order; None signals no forwarding candidates.

    The one staleness rule: of a neighbour's latest delivered completion
    (p) and heartbeat (h), the later wins. At h == p the heartbeat, which
    ran after the completion, wins only over a link that delivers at once
    (h + delay == h); otherwise both land together, heartbeats first."""
    best_id: int | None = None
    best_load = 0.0
    for nid, sent, beats in neighbors:
        # Skip the delivery pass when nothing has landed by now.
        due = sent.in_flight
        p, load = sent.deliver(now) if due and due[0][0] <= now else sent.latest
        due = beats.in_flight
        h, loads = beats.deliver(now) if due and due[0][0] <= now else beats.latest
        if h > p or (h == p and h + beats.delay == h):
            load = loads[nid]
        if best_id is None or load < best_load:
            best_id = nid
            best_load = load
    return best_id


def decide_threshold(
    node_load: float, capacity_threshold: float, overflow: AdmissionDecision
) -> AdmissionDecision:
    """Execute below the threshold; at or above it, take ``overflow``."""
    return EXECUTE if node_load < capacity_threshold else overflow


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
    neighbors: list[tuple],
    now: float,
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
        return EXECUTE
    if not forwarding_enabled:
        return DROP
    target = lightest_load_neighbor(neighbors, now)
    if target is None:
        return decide_threshold(node_load, capacity_threshold, DROP)
    return AdmissionDecision.forward(target)


__all__ = [
    "DROP",
    "EXECUTE",
    "Action",
    "AdmissionDecision",
    "LoadFeed",
    "decide_proactive",
    "decide_threshold",
    "lightest_load_neighbor",
    "passive_overflow",
]
