"""Shared fixtures and small builders used across the test modules, and
the reference implementations that the fast paths are checked against."""

import contextlib
import csv
import io
import json
import math
import operator
import random
import statistics
import sys
import types
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from heapq import heapify, heappop, heappush
from unittest import mock

import pytest

from offloadsim import simulator as sim
from offloadsim.appstats import (
    DEFAULT_LIBRARY_POOL,
    AppRecord,
    Corpus,
    CorpusError,
    OverlapReport,
    SynthCorpus,
)
from offloadsim._inputs import _left_sum, _positive
from offloadsim.partition import CallGraph, ClassNode, MethodProfile
from offloadsim.topology import NodeSpec, Topology


def make_graph(edges, isolated=(), methods=None, tags=None):
    """Build a CallGraph from (u, v, weight) triples plus optional extras.

    ``methods`` maps class name to a list of MethodProfile kwargs dicts;
    ``tags`` maps class name to a tag set.
    """
    g = CallGraph()
    names = set(isolated)
    for u, v, _ in edges:
        names.add(u)
        names.add(v)
    for name in sorted(names):
        profs = [MethodProfile(**kw) for kw in (methods or {}).get(name, [])]
        g.add_class(ClassNode(name=name, tags=set((tags or {}).get(name, ())),
                              methods=profs))
    for u, v, w in edges:
        g.add_call(u, v, w)
    return g


def reference_modularity(edges, clusters):
    """Direct textbook evaluation of weighted modularity, from (u, v,
    weight) triples and a full partition of the names: the oracle for
    ``PartitionSet.modularity``."""
    total = sum(w for _, _, w in edges)
    if total == 0.0:
        return 0.0
    member = {}
    for i, cluster in enumerate(clusters):
        for name in cluster:
            member[name] = i
    q = 0.0
    for i, cluster in enumerate(clusters):
        w_in = sum(w for u, v, w in edges if member[u] == i and member[v] == i)
        w_tot = sum(w for u, v, w in edges if member[u] == i) + sum(
            w for u, v, w in edges if member[v] == i
        )
        q += w_in / total - (w_tot / (2.0 * total)) ** 2
    return q


def line_topology(n, cpu=1.0, mem=1.0, delay=1.0):
    """n nodes in a path, node 0 the access point, node n-1 the server."""
    nodes = [
        NodeSpec(i, cpu_capacity=cpu, mem_capacity=mem, is_access_point=(i == 0))
        for i in range(n)
    ]
    edges = [(i, i + 1, delay) for i in range(n - 1)]
    return Topology(nodes, edges, server_id=n - 1)


@pytest.fixture
def line4():
    return line_topology(4)


def edit_doc(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path`` (keys and indices)."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    node[last] = value
    return doc


def route_to_server(topo, node_id):
    """The next-hop chain from ``node_id``; fails on a loop or a dead end
    instead of following it forever."""
    path = [node_id]
    while path[-1] != topo.server_id:
        nxt = topo.next_hop_toward_server(path[-1])
        assert nxt is not None and nxt not in path, f"route {path} continues to {nxt}"
        path.append(nxt)
    return path


def reference_routes(adj, server_id):
    """Delay to the server and next hop of every node of ``adj``, by
    Dijkstra on tuple keys (delay, hops): the oracle for the routes
    ``Topology.next_hop_toward_server`` follows. A node the server cannot
    reach keeps an infinite delay."""
    inf = float("inf")
    key = {nid: (inf, 0) for nid in adj}
    key[server_id] = (0.0, 0)
    heap = [(0.0, 0, server_id)]
    while heap:
        d, h, u = heappop(heap)
        if (d, h) > key[u]:
            continue
        for v, w in adj[u].items():
            cand = (d + w, h + 1)
            if cand < key[v]:
                key[v] = cand
                heappush(heap, (d + w, h + 1, v))
    dist = {nid: k[0] for nid, k in key.items()}
    next_hop = {}
    for nid in adj:
        best = None
        for nb, w in adj[nid].items():
            if key[nb] < key[nid]:
                cand = (w + dist[nb], nb)
                if best is None or cand < best:
                    best = cand
        next_hop[nid] = best[1] if best else None
    return dist, next_hop


def reference_hop_diameter(topo):
    """Longest shortest path in hops by a dict BFS from every node: the
    oracle for ``Topology.hop_diameter``."""
    best = 0
    for src in topo.nodes:
        depth = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in topo.adj[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = max(best, max(depth.values()))
    return best


def reference_series_json(m):
    """A run's ``<prefix>_series.json`` text through the json module."""
    series = {
        "node_ids": m.sample_node_ids,
        "samples": [
            {"time_ms": t, "loads": row} for t, row in zip(m.sample_times_ms, m.sample_loads)
        ],
    }
    return json.dumps(series, sort_keys=True, indent=2) + "\n"


def reference_summary_json(m):
    """A run's ``<prefix>_summary.json`` text through the json module."""
    summary = {
        "strategy": m.strategy,
        "seed": m.seed,
        "tau": m.tau,
        "phi_ms": m.phi_ms,
        "psi": m.psi,
        "total_arrivals": m.total_arrivals,
        "executed": m.executed,
        "forwarded": m.forwarded,
        "dropped": m.dropped,
        "gross_arrivals": m.gross_arrivals,
        "gross_executed": m.gross_executed,
        "gross_dropped": m.gross_dropped,
        "per_node_mean_load": {str(k): v for k, v in m.per_node_mean_load.items()},
        "per_node_executed": {str(k): v for k, v in m.per_node_executed.items()},
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def reference_series_csv(m):
    """A run's ``<prefix>_series.csv`` text through the csv module."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time_ms", "node_id", "normalized_load"])
    for t, row in zip(m.sample_times_ms, m.sample_loads):
        for nid, load in zip(m.sample_node_ids, row):
            w.writerow([repr(t), nid, repr(load)])
    return buf.getvalue()


@contextlib.contextmanager
def scripted_runs(arrivals, durations, draws):
    """Inside the block, ``run_scenario`` and ``reference_run_scenario``
    take external arrivals at the given ``(time, k)`` pairs, at the k-th
    access point (modulo their number), and service times and admission
    draws in order from ``durations`` and ``draws`` (then 1 ms and 0.0).
    ``run_scenario`` takes both from ``random()``, which here returns a
    ``Draw`` that tells the two uses apart."""

    class Scripted:
        def __init__(self, _seed):
            self.durations = iter(durations)
            self.draws = deque(draws)

        def expovariate(self, _rate):
            return next(self.durations, 0.001)

        def random(self):
            return Draw(self, self.draws.popleft() if self.draws else None)

    class Draw:
        """A ``random()`` result: compared against q, the admission draw it
        took. Taken as ``1.0 - u``, which begins ``run_scenario``'s inline
        service draw ``-log(1.0 - u) / rate``, it hands its admission draw
        back and stands for the next service time instead."""

        def __init__(self, script, value):
            self.script = script
            self.value = value

        def __lt__(self, q):
            return (0.0 if self.value is None else self.value) < q

        def __rsub__(self, _one):
            if self.value is not None:
                self.script.draws.appendleft(self.value)
            return ServiceTime(self.script.expovariate(None))

    class ServiceTime:
        """Goes through ``-log(x) / rate`` unchanged, as the duration."""

        def __init__(self, duration):
            self.duration = duration

        def __neg__(self):
            return self

        def __truediv__(self, _rate):
            return self.duration

    def scripted_log(x):
        return x if isinstance(x, ServiceTime) else math.log(x)

    def scripted_arrivals(*args):
        aps = args[-1]
        return iter([(t, 0, aps[k % len(aps)]) for t, k in sorted(arrivals)])

    with contextlib.ExitStack() as stack:
        for module, stream in (
            (sim, "_iter_arrival_tuples"),
            (sys.modules[__name__], "reference_arrival_tuples"),
        ):
            fake = types.SimpleNamespace(Random=Scripted)
            stack.enter_context(mock.patch.object(module, "random", fake))
            stack.enter_context(mock.patch.object(module, stream, scripted_arrivals))
        stack.enter_context(mock.patch.object(sim, "log", scripted_log))
        yield


def reference_arrival_tuples(rate_per_s, horizon_s, seed, jitters, services, access_points):
    """The arrival stream with ``randrange`` origins and the segment's rate
    looked up and multiplied on every draw: the oracle for
    ``workload._iter_arrival_tuples``, for jitter windows that do not
    overlap. Its segment list is written here: each surge, in start order,
    that starts inside the horizon, then the base rate again from its end
    if that is inside too, all sorted by start."""
    if not _positive(horizon_s):
        raise ValueError("horizon must be positive and finite")
    segs = [(0.0, 1.0)]
    for j in sorted(jitters, key=lambda j: j.start_ms):
        start = j.start_ms / 1000.0
        end = (j.start_ms + j.duration_ms) / 1000.0
        if start < horizon_s:
            segs.append((start, j.rate_multiplier))
            if end < horizon_s:
                segs.append((end, 1.0))
    segs.sort(key=lambda seg: seg[0])
    if not all(_positive(rate_per_s * mult) for _, mult in segs):
        raise ValueError("arrival rate must be positive and finite in every rate segment")

    rng = random.Random(f"{seed}|arrivals")
    cum = []
    total_w = 0.0
    for s in services:
        total_w += s.popularity_weight
        cum.append(total_w)
    if total_w <= 0.0:
        raise ValueError("popularity weights must not all be zero")
    if not access_points:
        raise ValueError("access point list must not be empty")

    t = 0.0
    seg_i = 0
    last_seg = len(segs) - 1
    while True:
        while True:
            nxt = t + rng.expovariate(rate_per_s * segs[seg_i][1])
            if seg_i < last_seg and nxt >= segs[seg_i + 1][0]:
                seg_i += 1
                t = segs[seg_i][0]
                continue
            t = nxt
            break
        if t >= horizon_s:
            return
        u = rng.random() * total_w
        for svc, edge in enumerate(cum):
            if u < edge:
                break
        yield (t, svc, access_points[rng.randrange(len(access_points))])


def left_sum(values):
    """Left-to-right float sum; the same bits as the built-in ``sum`` of
    floats before Python 3.12, which switched to compensated summation."""
    return reduce(operator.add, values, 0.0)


def reference_admission_probability(
    lambda_eff, mu, cpu_avg, mem_avg, cpu_capacity, mem_capacity
):
    """The closed form as a free function, written for reading."""
    if cpu_capacity <= 0.0 or mem_capacity <= 0.0:
        raise ValueError("capacities must be positive")
    if lambda_eff <= 0.0:
        return 1.0
    headroom = min(
        cpu_capacity / (cpu_capacity + cpu_avg),
        mem_capacity / (mem_capacity + mem_avg),
    )
    q = headroom * (mu / lambda_eff)
    if q >= 1.0:
        return 1.0
    if q <= 0.0:
        return 0.0
    return q


class ReferenceCore:
    """The estimator core written plainly: attribute updates in place, a
    separate warm-up predicate and a free-function closed form. The window
    sums use ``left_sum`` so the oracle means the same on every Python. The
    oracle for ``workload.EstimatorState``, and the estimator of
    ``reference_run_scenario``."""

    def __init__(self, k):
        if k < 2:
            raise ValueError("buffer size k must be at least 2")
        self.k = k
        self.buf_lambda = [math.nan] * k
        self.buf_mu = [math.nan] * k
        self.buf_cpu = [math.nan] * k
        self.buf_mem = [math.nan] * k
        self.arrival_index = 0
        self.completion_index = 0
        self.arrival_count = 0
        self.completion_count = 0
        self.arrival_wraps = 0
        self.completion_wraps = 0
        self.interval_sum = 0.0
        self.last_arrival = math.nan
        self.lambda_hat = 0.0
        self.lambda_prev = 0.0
        self.delta_lambda = 0.0
        self.lambda_eff = 0.0
        self.mu = 0.0
        self.cpu_avg = 0.0
        self.mem_avg = 0.0

    def record_arrival(self, timestamp):
        k = self.k
        count = self.arrival_count
        idx = self.arrival_index
        if count > 0:
            if timestamp < self.last_arrival:
                raise ValueError("arrival timestamps must be non-decreasing")
            z = timestamp - self.last_arrival
            if count >= k:
                buf = self.buf_lambda
                y = buf[(idx + 1) % k] - buf[idx]
                self.interval_sum += z - y
            else:
                self.interval_sum += z
        self.buf_lambda[idx] = timestamp
        self.last_arrival = timestamp
        self.arrival_count = count + 1
        idx += 1
        if idx == k:
            idx = 0
        self.arrival_index = idx

        valid = count + 1
        if valid > k:
            valid = k
        if valid >= 2:
            s = self.interval_sum
            self.lambda_hat = (valid - 1) / s if s > 0.0 else math.inf
        d = self.lambda_hat - self.lambda_prev
        self.delta_lambda = d if d > 0.0 else 0.0
        self.lambda_eff = self.lambda_hat + self.delta_lambda

        if idx == 0:
            self.arrival_wraps += 1
            if self.arrival_wraps == 1:
                self.lambda_prev = self.lambda_hat
            else:
                self.lambda_prev = 0.5 * (self.lambda_prev + self.lambda_hat)

    def record_completion(self, exec_time, cpu_cost, mem_cost):
        if exec_time <= 0.0 or math.isnan(exec_time):
            raise ValueError("execution time must be positive")
        if cpu_cost < 0.0 or mem_cost < 0.0:
            raise ValueError("resource costs must be non-negative")
        k = self.k
        idx = self.completion_index
        self.buf_mu[idx] = exec_time
        self.buf_cpu[idx] = cpu_cost
        self.buf_mem[idx] = mem_cost
        self.completion_count += 1
        idx += 1
        if idx == k:
            idx = 0
        self.completion_index = idx
        if idx == 0:
            self.completion_wraps += 1
            mean_exec = left_sum(self.buf_mu) / k
            self.mu = 0.5 * (self.mu + 1.0 / mean_exec)
            self.cpu_avg = 0.5 * (self.cpu_avg + left_sum(self.buf_cpu) / k)
            self.mem_avg = 0.5 * (self.mem_avg + left_sum(self.buf_mem) / k)

    def is_warm(self):
        return self.arrival_count >= self.k and self.completion_wraps >= 1

    def execution_probability(self, cpu_capacity, mem_capacity):
        if not self.is_warm():
            return 1.0
        return reference_admission_probability(
            self.lambda_eff, self.mu, self.cpu_avg, self.mem_avg,
            cpu_capacity, mem_capacity,
        )


# Event kind ranks of the push-gossip loop; lower processes first at equal
# timestamps.
_REF_GOSSIP = 0
_REF_COMPLETION = 1
_REF_ARRIVAL = 2
_REF_HEARTBEAT = 3
_REF_SAMPLE = 4


@dataclass
class ReferenceLoadTable:
    """Last known load per executor neighbor, with observation timestamps,
    pre-seeded at load 0.0 as of 0.0."""

    loads: dict = field(default_factory=dict)
    as_of: dict = field(default_factory=dict)

    @staticmethod
    def seeded(neighbor_ids):
        t = ReferenceLoadTable()
        for nid in sorted(neighbor_ids):
            t.loads[nid] = 0.0
            t.as_of[nid] = 0.0
        return t

    def apply(self, sender, load, published_at):
        """Install a neighbor's load; an unknown sender or an older
        observation than the one held loses."""
        as_of = self.as_of.get(sender)
        if as_of is None or published_at < as_of:
            return False
        self.loads[sender] = load
        self.as_of[sender] = published_at
        return True


# Decisions of the reference loop, in its own codes: these two, or
# ("forward", target).
REF_EXECUTE = "execute"
REF_DROP = "drop"


def reference_decide_threshold(node_load, capacity_threshold, overflow):
    """Execute below the threshold, else take ``overflow``."""
    return REF_EXECUTE if node_load < capacity_threshold else overflow


def reference_passive_overflow(next_hop, server, server_executes):
    """Forward toward the server; drop at the end of the path and before a
    server that does not execute."""
    if next_hop is None or (next_hop == server and not server_executes):
        return REF_DROP
    return ("forward", next_hop)


def reference_decide_proactive(
    state, table, cpu_capacity, mem_capacity, rng_draw, ttl_remaining, node_load,
    capacity_threshold, forwarding_enabled=True,
):
    """The proactive decision over a pushed table: forward to the lightest
    known neighbor, ties to the lowest id."""
    if ttl_remaining <= 0:
        return reference_decide_threshold(node_load, capacity_threshold, REF_DROP)
    if rng_draw < state.execution_probability(cpu_capacity, mem_capacity):
        return REF_EXECUTE
    if not forwarding_enabled:
        return REF_DROP
    best_id = None
    best_load = 0.0
    for nid, load in table.loads.items():
        if best_id is None or load < best_load or (load == best_load and nid < best_id):
            best_id = nid
            best_load = load
    if best_id is None:
        return reference_decide_threshold(node_load, capacity_threshold, REF_DROP)
    return ("forward", best_id)


def reference_run_scenario(cfg):
    """``simulator.run_scenario`` as it was with push gossip: every
    completion and heartbeat schedules one gossip event per link delay, and
    each delivery applies to the receiver's table, and arrivals come from
    ``reference_arrival_tuples``. The oracle for the pull-based view and
    the arrival stream."""
    cfg.validate()
    topo = cfg.topology
    strategy = cfg.strategy
    horizon = cfg.horizon_s
    warmup = cfg.resolved_warmup()
    proactive = strategy == "proactive"
    # Only proactive forwarding spends TTL; the default TTL is twice the hop
    # diameter.
    ttl0 = None
    if proactive:
        ttl0 = 2 * reference_hop_diameter(topo) if cfg.ttl is None else cfg.ttl
    server_executes = cfg.server_executes
    fwd_enabled = cfg.proactive_forwarding
    threshold = cfg.capacity_threshold

    ids = sorted(topo.nodes)
    idx_of = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    server = idx_of[topo.server_id]
    is_relay = [topo.nodes[nid].is_relay for nid in ids]
    cpu_cap = [topo.nodes[nid].cpu_capacity for nid in ids]
    mem_cap = [topo.nodes[nid].mem_capacity for nid in ids]
    inv_cap = [1.0 / c for c in cpu_cap]
    # Executors run a strategy and may execute; the sink server and relays do not.
    executor = [
        not is_relay[i] and (i != server or server_executes) for i in range(n)
    ]
    # Link delays in seconds by dense index, read by every forward and by the
    # gossip groups.
    delay = [{idx_of[m]: d_ms / 1000.0 for m, d_ms in topo.adj[nid].items()} for nid in ids]
    next_hop: list[int | None] = [None] * n
    for nid, nh in reference_routes(topo.adj, topo.server_id)[1].items():
        if nh is not None:
            next_hop[idx_of[nid]] = idx_of[nh]
    # What none and passive do at or above the threshold, fixed per node.
    if strategy == "passive":
        overflow = [reference_passive_overflow(nh, server, server_executes) for nh in next_hop]
    else:
        overflow = [REF_DROP] * n

    svc_rate = [1.0 / s.mean_exec_time_s for s in cfg.services]
    svc_cpu = [s.cpu_cost for s in cfg.services]
    svc_mem = [s.mem_cost for s in cfg.services]

    aps = sorted(idx_of[a] for a in topo.access_points())

    estimators = [None] * n
    tables: list[ReferenceLoadTable | None] = [None] * n
    pub_groups: list[list[tuple[float, tuple]]] = [[] for _ in range(n)]
    hb_groups: list[tuple[float, list]] = []
    if proactive:
        for i in range(n):
            if executor[i]:
                estimators[i] = ReferenceCore(cfg.buffer_size)
                tables[i] = ReferenceLoadTable.seeded(j for j in delay[i] if executor[j])
        # Gossip events carry (receiver's ReferenceLoadTable.apply, sender)
        # pairs, grouped by link delay. Calling the stored bound method
        # costs a third less per delivery than looking up the receiver's
        # table, and heartbeats deliver over every link each period.
        by_delay: dict[float, list[tuple[int, int]]] = {}
        for i in range(n):
            if not executor[i]:
                continue
            groups: dict[float, list] = {}
            for j, d in delay[i].items():
                if executor[j]:
                    groups.setdefault(d, []).append((tables[j].apply, i))
                    by_delay.setdefault(d, []).append((j, i))
            pub_groups[i] = [(d, tuple(pairs)) for d, pairs in sorted(groups.items())]
        hb_groups = [
            (d, [(tables[j].apply, i) for j, i in sorted(pairs)])
            for d, pairs in sorted(by_delay.items())
        ]

    rng = random.Random(f"{cfg.seed}|sim")
    rng_random = rng.random
    rng_expo = rng.expovariate

    arrivals = reference_arrival_tuples(
        cfg.base_rate_per_s * cfg.load_multiplier,
        horizon,
        cfg.seed,
        cfg.jitters,
        cfg.services,
        aps,
    )

    queue = [deque() for _ in range(n)]
    busy = [False] * n
    load_num = [0.0] * n
    acc = [0.0] * n
    last_t = [0.0] * n

    counted_total = 0
    counted_exec = 0
    counted_fwd = 0
    counted_drop = 0
    gross_arrivals = 0
    gross_executed = 0
    gross_dropped = 0
    lat_sum = 0.0
    pne = [0] * n

    sample_dt = cfg.sample_interval_ms / 1000.0
    sample_times: list[float] = []
    sample_rows: list[list[float]] = []

    heap: list[tuple] = []
    seq = 0

    nxt = next(arrivals, None)
    if nxt is not None:
        heap.append((nxt[0], _REF_ARRIVAL, nxt[2], seq, None, True))
        seq += 1
    if proactive and hb_groups and cfg.gossip_period_ms > 0:
        hb_dt = cfg.gossip_period_ms / 1000.0
        if hb_dt < horizon:
            heap.append((hb_dt, _REF_HEARTBEAT, -1, seq))
            seq += 1
    if sample_dt > 0.0:
        heap.append((0.0, _REF_SAMPLE, -1, seq))
        seq += 1
    heapify(heap)

    # Request payload layout: [service, origin, t_origin, ttl, acc_delay_s,
    # counted, t_admitted]. Mutated in place across hops.

    def start_service(i: int, req: list, now: float) -> None:
        nonlocal seq
        dur = rng_expo(svc_rate[req[0]])
        heappush(heap, (now + dur, _REF_COMPLETION, i, seq, req, dur))
        seq += 1

    while heap:
        ev = heappop(heap)
        t = ev[0]
        kind = ev[1]

        if kind == _REF_ARRIVAL:
            i = ev[2]
            req = ev[4]
            if req is None:
                # External origination; schedule the next one right away.
                req = [nxt[1], i, t, ttl0, 0.0, t >= warmup, 0.0]
                gross_arrivals += 1
                if req[5]:
                    counted_total += 1
                nxt = next(arrivals, None)
                if nxt is not None:
                    heappush(heap, (nxt[0], _REF_ARRIVAL, nxt[2], seq, None, True))
                    seq += 1

            if is_relay[i]:
                # Ingress plumbing: push toward the server, TTL untouched.
                j = next_hop[i]
            else:
                if not executor[i]:
                    # Pure sink: the server absorbs nothing unless configured to.
                    dec = REF_DROP
                elif proactive:
                    est = estimators[i]
                    est.record_arrival(t)
                    dec = reference_decide_proactive(
                        est,
                        tables[i],
                        cpu_cap[i],
                        mem_cap[i],
                        rng_random(),
                        req[3],
                        load_num[i] * inv_cap[i],
                        threshold,
                        fwd_enabled,
                    )
                else:
                    dec = reference_decide_threshold(
                        load_num[i] * inv_cap[i], threshold, overflow[i]
                    )

                if dec == REF_EXECUTE:
                    lt = last_t[i]
                    if lt < horizon:
                        hi = t if t < horizon else horizon
                        lo = lt if lt > warmup else warmup
                        if hi > lo:
                            acc[i] += load_num[i] * inv_cap[i] * (hi - lo)
                    last_t[i] = t
                    load_num[i] += svc_cpu[req[0]]
                    req[6] = t
                    if busy[i]:
                        queue[i].append(req)
                    else:
                        busy[i] = True
                        start_service(i, req, t)
                    continue
                if dec == REF_DROP:
                    gross_dropped += 1
                    if req[5]:
                        counted_drop += 1
                    continue
                j = dec[1]
                if proactive:
                    req[3] -= 1
            # One forward path for relays and strategies alike.
            d = delay[i][j]
            req[4] += d
            if req[5]:
                counted_fwd += 1
            heappush(heap, (t + d, _REF_ARRIVAL, j, seq, req, False))
            seq += 1

        elif kind == _REF_COMPLETION:
            i = ev[2]
            req = ev[4]
            dur = ev[5]
            lt = last_t[i]
            if lt < horizon:
                hi = t if t < horizon else horizon
                lo = lt if lt > warmup else warmup
                if hi > lo:
                    acc[i] += load_num[i] * inv_cap[i] * (hi - lo)
            last_t[i] = t
            load_num[i] -= svc_cpu[req[0]]
            gross_executed += 1
            if req[5]:
                counted_exec += 1
                pne[i] += 1
                lat_sum += (t - req[6]) + 2.0 * req[4]
            if proactive and estimators[i] is not None:
                estimators[i].record_completion(dur, svc_cpu[req[0]], svc_mem[req[0]])
                if pub_groups[i]:
                    snap = {i: load_num[i] * inv_cap[i]}
                    for d, pairs in pub_groups[i]:
                        heappush(heap, (t + d, _REF_GOSSIP, i, seq, pairs, snap, t))
                        seq += 1
            if queue[i]:
                start_service(i, queue[i].popleft(), t)
            else:
                busy[i] = False

        elif kind == _REF_GOSSIP:
            # Completion gossip (node = sender) and heartbeat gossip (node =
            # -1) share one payload: (receiver's apply, sender) pairs, loads
            # indexed by sender, publication time.
            snap, t_pub = ev[5], ev[6]
            for apply, s in ev[4]:
                apply(s, snap[s], t_pub)

        elif kind == _REF_HEARTBEAT:
            snap = [load_num[i] * inv_cap[i] for i in range(n)]
            for d, pairs in hb_groups:
                heappush(heap, (t + d, _REF_GOSSIP, -1, seq, pairs, snap, t))
                seq += 1
            t_next = t + hb_dt
            if t_next < horizon:
                heappush(heap, (t_next, _REF_HEARTBEAT, -1, seq))
                seq += 1

        elif kind == _REF_SAMPLE:
            sample_times.append(t * 1000.0)
            sample_rows.append([load_num[i] * inv_cap[i] for i in range(n)])
            t_next = t + sample_dt
            if t_next <= horizon + 1e-12:
                heappush(heap, (t_next, _REF_SAMPLE, -1, seq))
                seq += 1

    if gross_executed + gross_dropped != gross_arrivals:
        raise RuntimeError(
            f"conservation violated: {gross_executed} executed + "
            f"{gross_dropped} dropped != {gross_arrivals} arrivals"
        )
    if counted_exec + counted_drop != counted_total:
        raise RuntimeError("conservation violated in the measurement window")

    span = horizon - warmup
    for i in range(n):
        lt = last_t[i]
        if lt < horizon:
            lo = lt if lt > warmup else warmup
            if horizon > lo:
                acc[i] += load_num[i] * inv_cap[i] * (horizon - lo)
            last_t[i] = horizon

    exec_nodes = [i for i in range(n) if executor[i]]
    tau = (
        _left_sum(acc[i] for i in exec_nodes) / (len(exec_nodes) * span) if exec_nodes else 0.0
    )
    phi_ms = (lat_sum / counted_exec) * 1000.0 if counted_exec else 0.0
    psi = counted_drop / counted_total if counted_total else 0.0

    return sim.RunMetrics(
        strategy=strategy,
        seed=cfg.seed,
        tau=tau,
        phi_ms=phi_ms,
        psi=psi,
        total_arrivals=counted_total,
        executed=counted_exec,
        forwarded=counted_fwd,
        dropped=counted_drop,
        per_node_mean_load={ids[i]: acc[i] / span for i in range(n)},
        per_node_executed={ids[i]: pne[i] for i in range(n)},
        gross_arrivals=gross_arrivals,
        gross_executed=gross_executed,
        gross_dropped=gross_dropped,
        sample_node_ids=list(ids),
        sample_times_ms=sample_times,
        sample_loads=sample_rows,
    )


def reference_shared_prefixes(corpus, depth):
    """Prefix -> sorted app ids containing it (only prefixes in 2+ apps)."""
    holders = {}
    for app in corpus.apps:
        for pkg in app.packages:
            pre = reference_prefix(pkg, depth)
            if pre is not None:
                holders.setdefault(pre, set()).add(app.app_id)
    return {p: sorted(a) for p, a in sorted(holders.items()) if len(a) >= 2}


def reference_prefix(pkg, depth):
    """First ``depth`` segments, or None for an obfuscated or too shallow path."""
    segments = pkg.split(".")
    if any(len(s) == 1 for s in segments) or len(segments) < depth:
        return None
    return ".".join(segments[:depth])


def reference_storage_savings(corpus, depth):
    """The savings as a separate pass of its own: validate, find the shared
    prefixes, then classify every package again while pricing it."""
    if depth < 1:
        raise CorpusError("prefix depth must be at least 1")
    if not corpus.apps:
        raise CorpusError("corpus holds no apps")
    sizes = {}
    for app in corpus.apps:
        classes = sum(app.packages.values())
        if classes == 0:
            raise CorpusError(f"app {app.app_id!r} declares zero classes")
        sizes[app.app_id] = app.dex_size_bytes / classes
    naive = float(sum(app.dex_size_bytes for app in corpus.apps))
    if naive == 0.0:
        return 0.0
    shared = reference_shared_prefixes(corpus, depth)
    dedup = 0.0
    shared_counts = {}
    for app in corpus.apps:
        unique_classes = 0
        for pkg, count in app.packages.items():
            pre = reference_prefix(pkg, depth)
            if pre is not None and pre in shared:
                key = (pre, app.app_id)
                shared_counts[key] = shared_counts.get(key, 0) + count
            else:
                unique_classes += count
        dedup += unique_classes * sizes[app.app_id]
    for pre, holders in shared.items():
        best_id = max(holders, key=lambda a: (sizes[a], shared_counts.get((pre, a), 0)))
        dedup += shared_counts.get((pre, best_id), 0) * sizes[best_id]
    saving = 1.0 - dedup / naive
    return saving if saving > 0.0 else 0.0


def reference_unique_class_fraction(corpus, depth):
    """The report as the multi-pass original computed it: shared prefixes
    first, every package classified again per app, and the savings from a
    pass of their own."""
    if depth < 1:
        raise CorpusError("prefix depth must be at least 1")
    if not corpus.apps:
        raise CorpusError("corpus holds no apps")
    shared = reference_shared_prefixes(corpus, depth)
    per_app = {}
    for app in corpus.apps:
        unique = 0
        for pkg, count in app.packages.items():
            pre = reference_prefix(pkg, depth)
            if pre is None or pre not in shared:
                unique += count
        per_app[app.app_id] = 100.0 * unique / sum(app.packages.values())
    values = list(per_app.values())
    return OverlapReport(
        depth=depth,
        per_app_unique_fraction=per_app,
        mean_unique_fraction=statistics.fmean(values),
        median_unique_fraction=statistics.median(values),
        storage_savings=reference_storage_savings(corpus, depth),
    )


def reference_synth_corpus(n_apps, seed=0):
    """The corpus generator as first written, with ``randrange`` and
    ``randint`` draws and per-package f-strings: the oracle for
    ``synth_corpus``, which must give the same apps and placements. Each
    app draws every ``DEFAULT_LIBRARY_POOL`` library with probability
    0.35, then adds 4 private packages and 1 obfuscated one. It checks
    only the app count."""
    if n_apps < 1:
        raise CorpusError("need at least one app")
    rng = random.Random(f"{seed}|corpus")
    apps = []
    placements = {path: [] for path, _ in DEFAULT_LIBRARY_POOL}
    for i in range(n_apps):
        app_id = f"app{i:04d}"
        packages = {}
        for path, class_count in DEFAULT_LIBRARY_POOL:
            if rng.random() < 0.35:
                packages[path] = class_count
                placements[path].append(app_id)
        for j in range(4):
            depth_extra = rng.randrange(3)
            pkg = f"com.vendor{i:04d}.app.feature{j}"
            for extra in range(depth_extra):
                pkg += f".part{extra}"
            packages[pkg] = rng.randint(5, 60)
        seg1 = chr(ord("a") + i % 16)
        seg2 = chr(ord("a") + i * 7 % 16)
        packages[f"{seg1}.{seg2}.impl{i}_0"] = rng.randint(10, 80)
        bytes_per_class = rng.randint(280, 900)
        total = sum(packages.values())
        apps.append(
            AppRecord(
                app_id=app_id,
                dex_size_bytes=total * bytes_per_class,
                packages=packages,
            )
        )
    placements = {p: sorted(a) for p, a in placements.items()}
    return SynthCorpus(corpus=Corpus(apps=apps), placements=placements)
