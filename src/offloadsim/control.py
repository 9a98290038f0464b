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
threshold: ``DROP`` for ``none``, fixed before a run, and for ``passive``
the ``passive_overflow`` built at the node's first arrival at or above the
threshold. Relays and the sink take the same rule with a threshold of
-inf: a relay's overflow is its next hop, built at its first arrival, and
the sink's is ``DROP``.

A decision is a plain int: ``EXECUTE`` (-1), ``DROP`` (-2), or otherwise
the dense index of the node to forward to, which may be 0, so callers
compare against the two codes and never read a target by its truth value.

Load gossip is pulled: completions and heartbeats publish loads on
``LoadFeed``s, one per link delay, and ``lightest_load_neighbor`` reads
them when a node forwards, holding the one staleness rule. A node's view
is built by ``gossip_view`` at its first rejected request, and only at a
node with a choice of two or more neighbours, so a run in which no node
has one publishes nothing. Every publisher that a view may read keeps a
record from before its first publication: a feed over the slowest link
that reads it, which keeps only what that link can still deliver. A view's
feed over a faster link is derived from the record when first needed, and
from then on delivers what a feed built before the run would have.
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

    def over(self, delay: float) -> LoadFeed:
        """The same publications over a link of ``delay``, no slower than
        this feed's, as a feed that took every one of them would deliver
        them from now on. ``latest`` has landed over the faster link too,
        and each publication in flight lands at ``published_at + delay``,
        computed as ``publish`` computes it."""
        feed = LoadFeed(delay)
        feed.latest = self.latest
        feed.in_flight.extend((pub[0] + delay, pub) for _, pub in self.in_flight)
        return feed


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


def gossip_view(links: dict[int, float], feeds: list, beats: list[LoadFeed]) -> list[tuple]:
    """The ``(neighbour, completion feed, heartbeat feed)`` triples that
    ``lightest_load_neighbor`` reads for a node choosing among ``links``
    (neighbour: link delay, in id order). ``feeds[j]`` lists neighbour j's
    completion feeds and ``beats`` the heartbeat feeds, each list headed by
    its record, over the slowest link that reads it. A feed over another
    delay is derived from the record once, and then shared."""
    return [(j, _feed_over(feeds[j], d), _feed_over(beats, d)) for j, d in links.items()]


def _feed_over(feeds: list[LoadFeed], delay: float) -> LoadFeed:
    for feed in feeds:
        if feed.delay == delay:
            return feed
    feeds.append(feeds[0].over(delay))
    return feeds[-1]


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
    "gossip_view",
    "lightest_load_neighbor",
    "passive_overflow",
]
