"""Admission rules and load gossip.

Three congestion-control strategies decide what a node does with each
incoming request:

* ``none``: execute while below the capacity threshold, else drop.
* ``passive``: execute while below threshold, else push the problem one hop
  toward the server; at the end of the path the request is dropped unless
  the scenario lets the server execute.
* ``proactive``: admit with probability q from the node's estimator state;
  rejected requests go to the least-loaded executor neighbor (one TTL tick
  per forward). Exhausted TTL falls back to execute-if-feasible. The rule
  lives in the simulator's event loop, which draws once per arrival and,
  for a rejected request, forwards a node with one executor neighbour
  straight to it and calls ``lightest_load_neighbor`` only for a node with
  two or more.

``none`` and ``passive`` share one threshold rule, ``decide_threshold``;
they differ only in the overflow decision a node takes at or above the
threshold, which is fixed per node before a run (``DROP`` for ``none``,
``passive_overflow`` for ``passive``). Relays and the sink take the same
rule with a threshold of -inf: a relay's overflow is its next hop, the
sink's is ``DROP``.

A decision is a plain int: ``EXECUTE`` (-1), ``DROP`` (-2), or otherwise
the dense index of the node to forward to, which may be 0, so callers
compare against the two codes and never read a target by its truth value.

Load gossip is pulled: completions and heartbeats publish loads on
``LoadFeed``s, one per link delay, and ``lightest_load_neighbor`` reads
them when a node forwards, holding the one staleness rule. Only views with
a choice are built, so a run in which no node has one publishes nothing.
"""

from __future__ import annotations

import math
from collections import deque

#: Decision codes. Any other decision is the dense index (>= 0) of the
#: node to forward to.
EXECUTE = -1
DROP = -2


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
        # ``deliver(now)`` inline: publishing lands what is due first.
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= now:
            self.latest = in_flight.popleft()[1]
        in_flight.append((now + self.delay, (now, value)))


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


def decide_threshold(node_load: float, capacity_threshold: float, overflow: int) -> int:
    """Execute below the threshold; at or above it, take ``overflow``.

    The simulator passes a threshold of -inf for relays and the sink, which
    never execute, so they always take ``overflow``: ``x < -inf`` is False
    for every float, NaN included."""
    return EXECUTE if node_load < capacity_threshold else overflow


def passive_overflow(next_hop: int | None, server: int, server_executes: bool = False) -> int:
    """What a passive node does at or above threshold: forward to its next
    hop toward the server, or drop at the server and before a server that
    does not execute."""
    if next_hop is None or (next_hop == server and not server_executes):
        return DROP
    return next_hop


__all__ = [
    "DROP",
    "EXECUTE",
    "LoadFeed",
    "decide_threshold",
    "lightest_load_neighbor",
    "passive_overflow",
]
