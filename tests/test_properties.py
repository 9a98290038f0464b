"""Generated scenarios: every run terminates, conserves requests, gives
finite metrics, repeats bit for bit under one seed, processes no more
events than ``simulator.planned_work`` and the forwards and completions it
causes allow, and exports the bytes of the json and csv modules.

Topologies are small lines, grids, trees and scale-free graphs with random
relay flags and per-link delays of 0 ms or more; scenarios vary the
strategy, ``server_executes``, ``proactive_forwarding``, the TTL and the
gossip period. The fast paths are checked against their references in
``conftest``: the pull-based gossip view against the push-gossip event
loop (also on scripted runs whose events fall on a grid of exact times, so
that many share an instant, and on pinned single-candidate, mixed and tree
shapes, whose gossip feeds and heartbeats must exist only where a node has
a choice of neighbour), the ``none`` and ``passive`` runs against the same
loop on that grid, where an external arrival, which waits beside the heap,
ties with completions, forwards and samples, the default-TTL run, which
computes the hop diameter only once a request's hop count reaches a lower
bound of the TTL, against the run with the explicit TTL of twice the
diameter, the bit-parallel hop diameter against a BFS from every node,
the lazily computed routes against a Dijkstra on (delay, hops) tuple
keys, the series and summary emitters and every CLI report against
``json.dumps`` and ``csv.writer``, the adjacency order of generated
topologies against a re-sort of the same links, and the specs generators
build unchecked against checked ones.
"""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from heapq import heappop
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from offloadsim import cli
from offloadsim import simulator as sim
from offloadsim import topology as tp
from offloadsim.appstats import synth_corpus, write_corpus
from offloadsim.emit import _json_object, _row_changes, _series_csv, _series_json, json_text
from offloadsim.workload import JitterSpec, ServiceSpec

from conftest import (
    reference_hop_diameter,
    reference_routes,
    reference_run_scenario,
    reference_series_csv,
    reference_series_json,
    reference_summary_json,
    route_to_server,
    scripted_runs,
)

DELAYS_MS = [0.0, 0.0, 0.5, 1.0, 3.0]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a run that outlives ``seconds`` instead of hanging the suite."""

    def expire(_signum, _frame):
        raise TimeoutError(f"run did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def topologies(draw, delays_ms=DELAYS_MS, kinds=("line", "grid", "tree", "scale_free")):
    kind = draw(st.sampled_from(kinds))
    if kind == "line":
        params = {"n": draw(st.integers(2, 6))}
    elif kind == "grid":
        params = {"width": draw(st.integers(1, 4)), "height": draw(st.integers(2, 4))}
    elif kind == "tree":
        params = {"branching": draw(st.integers(1, 3)), "depth": draw(st.integers(1, 3))}
    else:
        params = {"n": draw(st.integers(3, 12)), "m": draw(st.integers(1, 2))}
    base = tp.generate_topology(kind, params, seed=draw(st.integers(0, 50)))
    nodes = [
        dataclasses.replace(spec, is_relay=draw(st.booleans()) and nid != base.server_id)
        for nid, spec in base.nodes.items()
    ]
    edges = [(u, v, draw(st.sampled_from(delays_ms))) for u, v, _ in base.edges()]
    return tp.Topology(nodes, edges, base.server_id)


@st.composite
def scenarios(draw, strategies=sim.STRATEGIES, delays_ms=DELAYS_MS):
    """Scenarios with a catalog of one to three services whose costs mix
    zero, fractional and heavy cpu with and without memory, so a load change
    may be 0.0 and q may see memory headroom, and a capacity threshold of
    0.5, 1.0 or 2.0, so the threshold rule is compared at more than one
    limit."""
    services = [
        ServiceSpec(
            name=f"s{k}",
            mean_exec_time_s=draw(st.sampled_from([0.0005, 0.002, 0.01])),
            cpu_cost=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            mem_cost=draw(st.sampled_from([0.0, 2.0])),
            popularity_weight=draw(st.sampled_from([0.5, 1.0, 4.0])),
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    return sim.ScenarioConfig(
        topology=draw(topologies(delays_ms)),
        services=services,
        base_rate_per_s=draw(st.sampled_from([200.0, 1000.0, 4000.0])),
        horizon_s=draw(st.sampled_from([0.02, 0.05])),
        strategy=draw(st.sampled_from(strategies)),
        buffer_size=draw(st.integers(2, 8)),
        ttl=draw(st.one_of(st.none(), st.integers(0, 4))),
        gossip_period_ms=draw(st.sampled_from([0.5, 1.0, 5.0, 100.0])),
        capacity_threshold=draw(st.sampled_from([0.5, 1.0, 2.0])),
        server_executes=draw(st.booleans()),
        proactive_forwarding=draw(st.booleans()),
        sample_interval_ms=draw(st.sampled_from([0.0, 5.0])),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_generated_scenarios_terminate_conserve_and_repeat(cfg):
    for nid in cfg.topology.nodes:
        route_to_server(cfg.topology, nid)
    with time_limit(30):
        m = sim.run_scenario(cfg)
        again = sim.run_scenario(cfg)
    assert m.executed + m.dropped == m.total_arrivals
    assert m.gross_executed + m.gross_dropped == m.gross_arrivals
    assert m.total_arrivals <= m.gross_arrivals
    for value in (m.tau, m.phi_ms, m.psi):
        assert math.isfinite(value) and value >= 0.0
    assert m.psi <= 1.0
    assert m == again
    with tempfile.TemporaryDirectory() as out:
        _, csv_series = sim.export_metrics(m, "csv", out)
        _, json_series = sim.export_metrics(m, "json", out)
        assert csv_series.read_bytes() == reference_series_csv(m).encode()
        assert json_series.read_bytes() == reference_series_json(m).encode()


@st.composite
def planned_scenarios(draw):
    """Scenarios on small lines, grids and trees with random relay flags and
    delays, periods, rates and up to two jitter windows, measured from t = 0
    so that ``forwarded`` counts every forward."""
    horizon_s = draw(st.floats(0.005, 0.1))
    jitters = []
    start_ms = draw(st.floats(0.0, 1200.0 * horizon_s))
    for _ in range(draw(st.integers(0, 2))):
        jitters.append(JitterSpec(
            start_ms, draw(st.floats(0.1, 30.0)), draw(st.floats(0.05, 8.0))
        ))
        start_ms = jitters[-1].end_ms + draw(st.floats(0.0, 20.0))
    period_ms = st.floats(0.1, 20.0)
    return sim.ScenarioConfig(
        topology=draw(topologies(kinds=("line", "grid", "tree"))),
        services=[
            ServiceSpec(name="s", mean_exec_time_s=draw(st.sampled_from([0.0005, 0.002, 0.01])))
        ],
        base_rate_per_s=draw(st.floats(1.0, 3000.0)),
        horizon_s=horizon_s,
        strategy=draw(st.sampled_from(["proactive", "passive", "none"])),
        load_multiplier=draw(st.floats(0.25, 2.0)),
        jitters=jitters,
        buffer_size=draw(st.integers(2, 8)),
        gossip_period_ms=draw(period_ms),
        warmup_s=0.0,
        seed=draw(st.integers(0, 1000)),
        sample_interval_ms=draw(st.one_of(st.just(0.0), period_ms)),
        server_executes=draw(st.booleans()),
        proactive_forwarding=draw(st.sampled_from([True, False])),
    )


@settings(max_examples=150, deadline=None)
@given(planned_scenarios())
def test_planned_work_bounds_the_events_of_a_run(cfg):
    plan = sim.planned_work(cfg)
    pops = Counter()

    def counting_heappop(heap):
        ev = heappop(heap)
        pops[ev[1]] += 1
        return ev

    with mock.patch.object(sim, "heappop", counting_heappop), time_limit(30):
        m = sim.run_scenario(cfg)
    samples = pops[sim._SAMPLE]
    heartbeats = pops[sim._HEARTBEAT]
    assert pops[sim._END] == 1
    assert samples == len(m.sample_loads)
    if cfg.sample_interval_ms:
        # The loop samples through horizon_s + 1e-12 s, which absorbs the
        # drift of summed periods, so a row may fall that far (1e-9 ms)
        # past the planned horizon.
        assert samples <= plan["sample_interval_ms"] + 1 + 1e-9 / cfg.sample_interval_ms
    else:
        assert samples == 0
    assert heartbeats <= math.ceil(plan["gossip_period_ms"])
    # External arrivals wait beside the heap; every other event is popped.
    assert pops.total() - 1 == m.forwarded + m.gross_executed + heartbeats + samples
    # Bernstein's inequality for a Poisson count X of mean lam gives
    # P(X >= lam + t) <= exp(-t^2 / (2 (lam + t/3))), below e^-30 for
    # t = 10 sqrt(lam) + 20 at every lam >= 0.
    lam = plan["base_rate_per_s"]
    assert m.gross_arrivals <= lam + 10.0 * math.sqrt(lam) + 20.0


def busy_proactive(kind, params):
    """A proactive run on a generated topology, loaded enough to forward."""
    return sim.ScenarioConfig(
        topology=tp.generate_topology(kind, params),
        services=[ServiceSpec(name="s", mean_exec_time_s=0.002)],
        base_rate_per_s=4000.0,
        horizon_s=0.05,
        strategy="proactive",
        buffer_size=2,
        ttl=4,
        gossip_period_ms=0.5,
        seed=7,
        sample_interval_ms=5.0,
    )


# Pinned shapes of the proactive forward targets: every view a single
# candidate (a 3-node line: nodes 0 and 1 see only each other), mixed
# (a 4-node line: node 1 chooses between 0 and 2, which see only node 1),
# and a tree whose leaves see only their parent while inner nodes choose.
SINGLE_CANDIDATES = busy_proactive("line", {"n": 3})
MIXED_CANDIDATES = busy_proactive("line", {"n": 4})
TREE_LEAVES = busy_proactive("tree", {"branching": 2, "depth": 2})


@settings(max_examples=150, deadline=None)
@example(SINGLE_CANDIDATES)
@example(MIXED_CANDIDATES)
@example(TREE_LEAVES)
@given(scenarios(strategies=("proactive",)))
def test_pull_gossip_matches_the_push_gossip_loop(cfg):
    with time_limit(30):
        assert sim.run_scenario(cfg) == reference_run_scenario(cfg)


def candidate_counts(cfg) -> dict:
    """Per executor, the number of executor neighbours it may forward to."""
    topo = cfg.topology

    def executes(nid):
        return not topo.nodes[nid].is_relay and (nid != topo.server_id or cfg.server_executes)

    return {nid: sum(map(executes, topo.adj[nid])) for nid in topo.nodes if executes(nid)}


@settings(max_examples=100, deadline=None)
@example(SINGLE_CANDIDATES)
@example(MIXED_CANDIDATES)
@example(TREE_LEAVES)
@example(sim.preset_fig3("proactive"))
@given(scenarios(strategies=("proactive",)))
def test_gossip_is_built_and_sent_only_where_a_node_has_a_choice(cfg):
    # A node with one executor neighbour forwards to it without reading
    # gossip, so feeds exist only when some node chooses among two or more,
    # and heartbeats run only when there are feeds to publish on (the
    # first is queued at set-up, each later one pushed by the one before).
    built, beats = [], []
    make, push = sim.LoadFeed, sim.heappush

    def made(*args):
        built.append(make(*args))
        return built[-1]

    def pushed(heap, ev):
        if ev[1] == sim._HEARTBEAT:
            beats.append(ev[0])
        push(heap, ev)

    with time_limit(30), mock.patch.object(sim, "LoadFeed", made), mock.patch.object(
        sim, "heappush", pushed
    ):
        sim.run_scenario(cfg)
    counts = candidate_counts(cfg)
    choice = cfg.proactive_forwarding and any(c >= 2 for c in counts.values())
    assert bool(built) == choice
    assert bool(beats) == (choice and 2 * (cfg.gossip_period_ms / 1000.0) < cfg.horizon_s)
    if cfg is SINGLE_CANDIDATES or cfg.name == "fig3":
        assert counts and max(counts.values()) == 1
    elif cfg is MIXED_CANDIDATES or cfg is TREE_LEAVES:
        assert 1 in counts.values() and max(counts.values()) >= 2


# 2**-10 s in ms: sums of multiples of it are exact, so scripted runs on
# this grid put completions, arrivals and heartbeats at the same instants.
TICK_MS = 1000.0 / 1024.0
TICK_S = TICK_MS / 1000.0


@settings(max_examples=100, deadline=None)
@given(
    scenarios(strategies=("proactive",), delays_ms=[0.0, TICK_MS, 2 * TICK_MS]),
    st.sampled_from([TICK_MS, 2 * TICK_MS]),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 10)), min_size=20, max_size=80),
    st.lists(st.integers(1, 4), min_size=20, max_size=80),
    st.lists(st.sampled_from([0.0, 0.99]), min_size=40, max_size=160),
)
def test_pull_gossip_matches_the_push_gossip_loop_on_tied_instants(
    cfg, period_ms, arrivals, ticks, draws
):
    # Arrivals land before the shortest horizon (20 ms > 19 ticks).
    cfg = dataclasses.replace(cfg, gossip_period_ms=period_ms, buffer_size=2)
    with time_limit(30), scripted_runs(
        [(k * TICK_S, ap) for k, ap in arrivals], [k * TICK_S for k in ticks], draws
    ):
        assert sim.run_scenario(cfg) == reference_run_scenario(cfg)


@settings(max_examples=100, deadline=None)
@given(
    scenarios(strategies=("none", "passive"), delays_ms=[0.0, TICK_MS, 2 * TICK_MS]),
    st.sampled_from([0.0, TICK_MS, 4 * TICK_MS]),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 10)), min_size=20, max_size=80),
    st.lists(st.integers(1, 4), min_size=20, max_size=80),
)
def test_threshold_strategies_match_the_one_heap_loop_on_tied_instants(
    cfg, sample_ms, arrivals, ticks
):
    # External arrivals wait beside the heap; on the grid they tie with
    # completions, forwards and samples, and must be taken where one heap
    # holding every event would pop them.
    cfg = dataclasses.replace(cfg, sample_interval_ms=sample_ms)
    with time_limit(30), scripted_runs(
        [(k * TICK_S, ap) for k, ap in arrivals], [k * TICK_S for k in ticks], []
    ):
        assert sim.run_scenario(cfg) == reference_run_scenario(cfg)


@st.composite
def busy_default_ttl_scenarios(draw):
    """Proactive runs with the default TTL on a single node or a generated
    topology, loaded so that many requests are forwarded until their TTL
    is spent."""
    single = st.builds(tp.generate_topology, st.just("line"), st.just({"n": 1}))
    return sim.ScenarioConfig(
        topology=draw(st.one_of(single, topologies())),
        services=[ServiceSpec(name="s", mean_exec_time_s=draw(st.sampled_from([0.002, 0.01])))],
        base_rate_per_s=draw(st.sampled_from([2000.0, 8000.0])),
        horizon_s=0.05,
        strategy="proactive",
        buffer_size=draw(st.integers(2, 4)),
        gossip_period_ms=draw(st.sampled_from([0.5, 1.0])),
        server_executes=draw(st.booleans()),
        proactive_forwarding=draw(st.booleans()),
        sample_interval_ms=5.0,
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None)
@example(dataclasses.replace(busy_proactive("line", {"n": 6}), ttl=None))
@given(busy_default_ttl_scenarios())
def test_default_ttl_run_equals_the_explicit_twice_diameter_run(cfg):
    # The default-TTL run goes first, on a topology that has not computed
    # its diameter, so that it starts from the lower bound.
    computed = []
    diameter = tp._bit_parallel_diameter

    def counted(adj):
        computed.append(len(adj))
        return diameter(adj)

    with time_limit(30), mock.patch.object(tp, "_bit_parallel_diameter", counted):
        lazy = sim.run_scenario(cfg)
    event("diameter computed" if computed else "diameter not computed")
    explicit = dataclasses.replace(cfg, ttl=2 * cfg.topology.hop_diameter())
    with time_limit(30):
        assert lazy == sim.run_scenario(explicit)


@st.composite
def shaped_topologies(draw):
    """Generated lines up to 300 nodes, grids and trees, with unit or
    zero-delay links."""
    kind = draw(st.sampled_from(["line", "grid", "tree"]))
    if kind == "line":
        params = {"n": draw(st.integers(1, 300))}
    elif kind == "grid":
        params = {"width": draw(st.integers(1, 12)), "height": draw(st.integers(2, 12))}
    else:
        params = {"branching": draw(st.integers(1, 3)), "depth": draw(st.integers(0, 5))}
    params["delay_ms"] = draw(st.sampled_from([0.0, 1.0]))
    return tp.generate_topology(kind, params)


@st.composite
def connected_graphs(draw, delays_ms=DELAYS_MS):
    """A random spanning tree plus random extra links, any node the server,
    one node upward."""
    n = draw(st.integers(1, 40))
    links = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            links.add((min(u, v), max(u, v)))
    nodes = [tp.NodeSpec(i, 1.0, 1.0, is_access_point=i == 0) for i in range(n)]
    edges = [(u, v, draw(st.sampled_from(delays_ms))) for u, v in sorted(links)]
    return tp.Topology(nodes, edges, draw(st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(topologies(), shaped_topologies(), connected_graphs()))
def test_hop_diameter_matches_the_bfs_oracle(topo):
    assert topo.hop_diameter() == reference_hop_diameter(topo)


# Links of 0 ms and links of one equal delay leave many nodes tied on
# delay, so the hop count and the lowest-id rule decide their routes.
TIED_DELAYS_MS = [0.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        topologies(),
        topologies(TIED_DELAYS_MS),
        shaped_topologies(),
        connected_graphs(),
        connected_graphs(TIED_DELAYS_MS),
    )
)
def test_routes_match_the_tuple_keyed_dijkstra(topo):
    dist, next_hop = reference_routes(topo.adj, topo.server_id)
    assert {nid: topo.next_hop_toward_server(nid) for nid in topo.nodes} == next_hop
    assert topo.distance_to_server == dist


def _no_routing(_topo):
    raise AssertionError("routes were computed at construction")


@settings(max_examples=200, deadline=None)
@given(st.one_of(topologies(), connected_graphs()), st.data())
def test_unreachable_nodes_are_refused_at_construction(topo, data):
    # Drop some links; whatever the server no longer reaches is named in
    # the error, built from the same links as a file or as a Topology.
    edges = [e for e in topo.edges() if data.draw(st.booleans())]
    adj = {nid: {} for nid in topo.nodes}
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w
    dist, _ = reference_routes(adj, topo.server_id)
    unreachable = sorted(nid for nid, d in dist.items() if d == math.inf)
    nodes = list(topo.nodes.values())
    text = "".join(
        [f"nodes {len(nodes)} server {topo.server_id}\n"]
        + [f"{s.id} {s.cpu_capacity!r} {s.mem_capacity!r} {tp._node_flag(s)}\n" for s in nodes]
        + [f"{u} {v} {w!r}\n" for u, v, w in edges]
    )
    with mock.patch.object(tp.Topology, "_route", _no_routing):
        for build in (lambda: tp.Topology(nodes, edges, topo.server_id), lambda: tp.load_topology(text)):
            if unreachable:
                message = f"node(s) {unreachable} cannot reach the server {topo.server_id}"
                with pytest.raises(tp.TopologyError, match=f"^{re.escape(message)}$"):
                    build()
            else:
                build()


SPECIAL_FLOATS = [0.0, 3.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


def series_metrics(node_ids, times_ms, loads):
    """A RunMetrics carrying only a load series."""
    return sim.RunMetrics(
        strategy="none", seed=0, tau=0.0, phi_ms=0.0, psi=0.0,
        total_arrivals=0, executed=0, forwarded=0, dropped=0,
        per_node_mean_load={}, per_node_executed={},
        gross_arrivals=0, gross_executed=0, gross_dropped=0,
        sample_node_ids=node_ids, sample_times_ms=times_ms, sample_loads=loads,
    )


#: How a run may rewrite a load between two rows: to a new value, to an
#: equal value in a fresh float object, or to -0.0, NaN or an infinity.
REWRITES = ["new", "equal", "-0.0", "nan", "inf", "-inf"]


@st.composite
def series(draw):
    """Rows as runs make them, and rows no run makes:

    - a row may repeat one list object, back to back or apart, as runs
      share unchanged rows;
    - a row may be a copy of the row before with a few cells rewritten
      (``REWRITES``), as runs rewrite only the loads that changed;
    - a row may hold -0.0 where the row before it holds 0.0, which an
      emitter that compares cells by value would print as 0.0;
    - a row may be ragged, its length differing from the row before it
      and from the node ids.
    """
    node_ids = draw(st.lists(st.integers(-5, 10**6), unique=True, max_size=6))
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    times = draw(st.lists(value, max_size=8))
    fresh = st.lists(value, min_size=len(node_ids), max_size=len(node_ids))
    loads = []
    while len(loads) < len(times):
        how = draw(st.sampled_from(["fresh", "again", "earlier", "patched", "signed zero", "ragged"]))
        if how == "again" and loads:
            loads.append(loads[-1])
        elif how == "earlier" and loads:
            loads.append(loads[draw(st.integers(0, len(loads) - 1))])
        elif how == "patched" and loads and loads[-1]:
            row = loads[-1].copy()
            for _ in range(draw(st.integers(1, 3))):
                k = draw(st.integers(0, len(row) - 1))
                rewrite = draw(st.sampled_from(REWRITES))
                if rewrite == "new":
                    row[k] = draw(value)
                elif rewrite == "equal":
                    row[k] = float(repr(row[k]))
                else:
                    row[k] = float(rewrite)
            loads.append(row)
        elif how == "signed zero" and node_ids:
            row = draw(fresh)
            k = draw(st.integers(0, len(node_ids) - 1))
            row[k] = 0.0
            loads += [row, [*row[:k], -0.0, *row[k + 1 :]]]
        elif how == "ragged":
            taken = {len(node_ids), len(loads[-1]) if loads else -1}
            size = draw(st.sampled_from([k for k in range(len(node_ids) + 3) if k not in taken]))
            loads.append(draw(st.lists(value, min_size=size, max_size=size)))
        else:
            loads.append(draw(fresh))
    return series_metrics(node_ids, times, loads[: len(times)])


def assert_emitters_match_the_references(m):
    assert _series_json(m, _row_changes(m.sample_loads)) == reference_series_json(m)
    assert _series_csv(m, _row_changes(m.sample_loads)) == reference_series_csv(m)
    # One export in both formats, which scans the rows once for both, writes
    # the files and bytes of a CSV export and a JSON export.
    with tempfile.TemporaryDirectory() as out:
        both = sim.export_metrics(m, "both", Path(out, "both"))
        apart = [*sim.export_metrics(m, "csv", Path(out, "apart")),
                 *sim.export_metrics(m, "json", Path(out, "apart"))]
        assert [p.name for p in both] == [p.name for p in apart]
        assert [p.read_bytes() for p in both] == [p.read_bytes() for p in apart]


@settings(max_examples=300, deadline=None)
@given(series())
def test_series_emitters_match_the_json_and_csv_modules(m):
    assert_emitters_match_the_references(m)


def test_series_emitters_on_edge_series():
    shared = [0.0, 1.0]
    patched = [[0.0, 1.0, math.inf, math.nan]]
    for k, rewritten in [
        (1, 2.0),  # a new value
        (1, float("2.0")),  # an equal value in a fresh float object
        (0, -0.0),
        (1, math.nan),
        (2, -math.inf),
        (2, math.inf),
        (0, 0.0),
    ]:
        patched.append([*patched[-1][:k], rewritten, *patched[-1][k + 1 :]])
    for node_ids, times, loads in [
        ([], [], []),  # empty series without nodes
        ([0, 1, 2], [], []),  # empty series
        ([], [0.0, 1.0], [[], []]),  # empty node list
        ([7], [2.5], [[0.5]]),  # one node
        (list(range(6)), SPECIAL_FLOATS, [SPECIAL_FLOATS] * 6),
        ([0, 1], [math.inf, -0.0], [[math.nan, -math.inf], [1e308, 1e308]]),
        ([0, 1], [0.0, 1.0, 2.0, 3.0], [shared, shared, [-0.0, 1.0], shared]),  # reuse
        ([0, 1, 2, 3], [0.0] * len(patched), patched),  # copies with cells rewritten
        # ragged rows of 1, 4, 4 (patched), 0, 1 and 1 loads for 3 nodes
        ([0, 1, 2], [0.0] * 6, [[1.0], [1.0, 2.0, 3.0, 4.0], [5.0, 2.0, 3.0, 4.0], [], [0.5], [0.5]]),
        ([0, 1, 2], [0.0] * 3, [[0.0, 1.0], [-0.0, 1.0], [-0.0, math.nan]]),  # ragged, then patched
    ]:
        assert_emitters_match_the_references(series_metrics(node_ids, times, loads))


def test_series_json_writes_node_ids_of_a_hand_built_topology_as_json():
    # Node ids need not be ints; a str id is a JSON string, escaped.
    for node_ids in (["a", "b"], ['q"\\', "caf\u00e9"], [10**400]):
        m = series_metrics(node_ids, [0.0, 1.0], [[0.5] * len(node_ids)] * 2)
        assert _series_json(m, _row_changes(m.sample_loads)) == reference_series_json(m)


def test_series_csv_quotes_node_ids_of_a_hand_built_topology():
    # The JSON test's ids, plus ids holding the delimiter, a quote, line
    # breaks and nothing, which csv.writer quotes (or not) in its own way.
    for node_ids in (["a", "b"], ['q"\\', "caf\u00e9"], [10**400],
                     ["a,b", 'q"'], ["line\nbreak", "cr\rid", ""], [True, 2.5, -1]):
        m = series_metrics(node_ids, [0.0, 1.0], [[0.5] * len(node_ids)] * 2)
        assert _series_csv(m, _row_changes(m.sample_loads)) == reference_series_csv(m)


#: Seed text that the summary must escape: quotes, backslashes, control
#: characters, non-ASCII letters, a line separator and an astral character.
SEED_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters())
)

#: Node ids whose string order is not their numeric order: 2 sorts after 10,
#: and negatives sort before their digits.
NODE_IDS = st.lists(st.one_of(st.sampled_from([-10, -2, -1, 0, 1, 2, 10, 100]), st.integers()),
                    unique=True, max_size=8)


@st.composite
def summaries(draw):
    """RunMetrics with every summary field drawn: seeds of either type,
    floats that json spells apart (NaN, the infinities, -0.0, subnormals)
    and per-node maps, possibly empty, over ``NODE_IDS``."""
    number = st.one_of(st.sampled_from([*SPECIAL_FLOATS, -0.0, 1e-310, math.nan, -math.inf]),
                       st.floats())
    count = st.integers(-(2**70), 2**70)
    ids = draw(NODE_IDS)
    return sim.RunMetrics(
        strategy=draw(st.one_of(st.sampled_from(sim.STRATEGIES), SEED_TEXT)),
        seed=draw(st.one_of(st.integers(), SEED_TEXT)),
        tau=draw(number), phi_ms=draw(number), psi=draw(number),
        total_arrivals=draw(count), executed=draw(count), forwarded=draw(count),
        dropped=draw(count),
        per_node_mean_load={i: draw(number) for i in ids},
        per_node_executed={i: draw(count) for i in ids},
        gross_arrivals=draw(count), gross_executed=draw(count), gross_dropped=draw(count),
        sample_node_ids=[], sample_times_ms=[], sample_loads=[],
    )


@settings(max_examples=300, deadline=None)
@given(summaries())
def test_summary_emitter_matches_the_json_module(m):
    with tempfile.TemporaryDirectory() as out:
        summary, _ = sim.export_metrics(m, "json", out)
        assert summary.read_bytes() == reference_summary_json(m).encode()


def test_summary_emitter_on_edge_summaries():
    base = series_metrics([], [], [])
    for edit in [
        {},  # empty per-node maps
        {"seed": 'a"b\\c\x01\u00e9\u2028'},
        {"tau": math.nan, "phi_ms": math.inf, "psi": -math.inf},
        {"tau": -0.0, "phi_ms": 5e-324, "psi": 1.7976931348623157e308},
        {"per_node_mean_load": {10: 0.5, 2: math.nan, -1: -0.0}, "per_node_executed": {10: 3, 2: 0, -1: 1}},
        {"per_node_mean_load": {1: 1e300, 2: 1e300}, "per_node_executed": {1: 2**64, 2: -5}},
        # ids of a hand-built topology need not be ints
        {"per_node_mean_load": {'a"b': 0.5, "\u00e9\\": 1.0}, "per_node_executed": {'a"b': 1, "\u00e9\\": 0}},
    ]:
        m = dataclasses.replace(base, **edit)
        assert _json_object(sim._summary_dict(m), "") + "\n" == reference_summary_json(m)


def json_dumps_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


#: Scalars the json module spells apart: null, true and false, ints past
#: the float range, NaN, the infinities, -0.0, subnormals, and strings that
#: need escapes or hold non-ASCII characters.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**53 + 1, 0]),
    st.floats(),
    st.sampled_from([*SPECIAL_FLOATS, math.nan, math.inf, -math.inf, -0.0]),
    SEED_TEXT,
)


def json_containers(inner):
    """Lists and str-keyed dicts of ``inner``, empty ones included, and the
    runs of floats alone or ints alone that the emitter renders in one pass."""
    return st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(SEED_TEXT, inner, max_size=5),
        st.lists(st.floats(), max_size=5),
        st.dictionaries(SEED_TEXT, st.one_of(st.integers(), st.just(10**400)), max_size=5),
    )


@settings(max_examples=500, deadline=None)
@given(st.recursive(JSON_SCALARS, json_containers, max_leaves=40))
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example([True, False, None, 10**400, -0.0, math.nan, math.inf, -math.inf])
@example({"é": {'q"\\': ["\x00 \U0001f600"]}})
def test_json_text_matches_the_json_module(payload):
    assert json_text(payload) == json_dumps_text(payload)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": object()}, 1j, b"x"])
def test_json_text_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        json_text(value)


def emitted_payloads(argv):
    """Run ``argv`` through ``cli.dispatch``; returns the exit code and each
    payload written as JSON with its text."""
    written = []

    def record(payload):
        text = json_text(payload)
        written.append((payload, text))
        return text

    with (mock.patch.object(cli, "json_text", record),
          mock.patch.object(sim, "json_text", record),
          contextlib.redirect_stdout(io.StringIO())):
        code = cli.dispatch(list(map(str, argv))).exit_code
    return code, written


def assert_payloads_match_the_json_module(argv):
    code, written = emitted_payloads(argv)
    assert code == 0
    assert len(written) == 1
    payload, text = written[0]
    assert text == json_dumps_text(payload)
    return payload


#: Class names that the reports write: escapes, non-ASCII and astral
#: characters, and one that the tag rule below pins.
CLASS_NAMES = ["core.Heavy", "core.Mate", "ui.Main", "café.Bar", 'q"uo\\te.X',
               "line sep.Y", "astral.\U0001f600", "util.Helper"]


@st.composite
def call_graph_docs(draw):
    names = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=1, max_size=6, unique=True))
    number = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6))
    vertices = [
        {"name": name, "methods": [
            {"name": f"m{k}", "invocations": draw(number), "t_local_ms": draw(number),
             "in_bytes": draw(number), "out_bytes": draw(number), "energy_mj": draw(number)}
            for k in range(draw(st.integers(0, 2)))
        ]}
        for name in names
    ]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = [
        {"a": a, "b": b, "weight": draw(st.one_of(st.integers(1, 20), st.floats(0.5, 20.0)))}
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs
    ] if pairs else []
    return {"vertices": vertices, "edges": edges}


@settings(max_examples=60, deadline=None)
@given(call_graph_docs(), st.booleans(), st.sampled_from([("5", "5e6", "4"), ("200", "1e5", "1")]))
def test_partition_and_decide_reports_match_the_json_module(doc, weighted, link):
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "graph.json")
        graph.write_text(json.dumps(doc))
        rules = Path(tmp, "rules.json")
        rules.write_text(json.dumps([{"prefix": "ui", "tag": "pinned"}]))
        files = ["--graph", graph, "--rules", rules]
        assert_payloads_match_the_json_module(
            ["partition", *files, *(["--weighted"] if weighted else [])])
        rtt, bandwidth, speedup = link
        verdict = assert_payloads_match_the_json_module(
            ["decide", *files, "--rtt-ms", rtt, "--bandwidth-bytes-per-s", bandwidth,
             "--cpu-speedup", speedup])
        event(f"chosen_N is {type(verdict['chosen_N']).__name__}")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**6), st.integers(1, 4))
def test_appstats_reports_match_the_json_module(n_apps, seed, depth):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "corpus.tsv")
        write_corpus(synth_corpus(n_apps, seed=seed).corpus, path)
        assert_payloads_match_the_json_module(
            ["appstats", "--corpus", path, "--depth", depth])


#: Two planted modules, the second pinned by the ``ui`` rule.
CALL_GRAPH = {
    "vertices": [
        {"name": name, "methods": [
            {"name": "work", "invocations": 10, "t_local_ms": 50.0,
             "in_bytes": 100, "out_bytes": 100, "energy_mj": 1.0}]}
        for name in ["core.Heavy", "core.Mate", "ui.Main", "util.A", "util.B"]
    ],
    "edges": [
        {"a": "core.Heavy", "b": "core.Mate", "weight": 8},
        {"a": "core.Mate", "b": "ui.Main", "weight": 1},
        {"a": "ui.Main", "b": "util.A", "weight": 1},
        {"a": "util.A", "b": "util.B", "weight": 5},
    ],
}


def test_every_cli_payload_shape_matches_the_json_module(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CALL_GRAPH))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"prefix": "ui", "tag": "pinned"}]))
    files = ["--graph", graph, "--rules", rules]
    report = assert_payloads_match_the_json_module(["partition", *files])
    assert report["sets"] and all(type(ok) is bool for s in report["sets"] for ok in s["offloadable"])
    chosen = assert_payloads_match_the_json_module(
        ["decide", *files, "--rtt-ms", 5, "--bandwidth-bytes-per-s", 5e6, "--cpu-speedup", 4])
    assert type(chosen["chosen_N"]) is int
    local = assert_payloads_match_the_json_module(
        ["decide", *files, "--rtt-ms", 200, "--bandwidth-bytes-per-s", 1e5])
    assert (local["chosen_N"], local["local_only"]) == (None, True)
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("café\t1000\tlib.core.alpha=4;own.pkg.x=6\n"
                      'q"uote\t2000\tlib.core.beta=5;own.pkg.y=5\n')
    stats = assert_payloads_match_the_json_module(["appstats", "--corpus", corpus, "--depth", 2])
    assert list(stats["per_app_unique_fraction"]) == ["café", 'q"uote']
    batch = assert_payloads_match_the_json_module(
        ["simulate", "--preset", "fig3", "--seeds", f"{10**400},-1", "--out", tmp_path / "o"])
    assert [run["seed"] for run in batch["per_seed"]] == [10**400, -1]


def json_writer_calls(tree):
    """Calls of ``json.dump``/``json.dumps``, or of either imported by name."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names if alias.name in ("dump", "dumps")
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            yield f"json.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in imported:
            yield func.id


def test_no_module_calls_the_json_writers():
    # Every JSON output goes through offloadsim.emit.json_text.
    assert list(json_writer_calls(ast.parse("json.dumps(x)\nfrom json import dump\ndump(x, f)"))) \
        == ["json.dumps", "dump"]
    paths = sorted(Path(sim.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    for path in paths:
        calls = list(json_writer_calls(ast.parse(path.read_text())))
        assert not calls, f"{path.name} calls {calls}"


def package_imports(tree):
    """(module, name) for each name that a module of the package imports
    from the package: the module's name within the package, and the name
    imported from it, or None for the whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("offloadsim."):
                    yield alias.name.removeprefix("offloadsim."), None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "offloadsim":
                    continue
                module = module.removeprefix("offloadsim").removeprefix(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)


def test_the_package_is_layered():
    # Input reading and output text are leaves, and the simulator stack
    # reads its input without loading the call-graph partitioner.
    example = "from .partition import A\nfrom . import emit as e\nimport offloadsim.cli\n" \
              "from offloadsim._inputs import b\nimport json\nfrom json import dumps"
    assert list(package_imports(ast.parse(example))) == [
        ("partition", "A"), ("emit", None), ("cli", None), ("_inputs", "b")
    ]
    paths = sorted(Path(sim.__file__).parent.glob("*.py"))
    imports = {path.stem: list(package_imports(ast.parse(path.read_text()))) for path in paths}
    for leaf in ("_inputs", "emit"):
        assert imports[leaf] == [], f"{leaf} imports {imports[leaf]}"
    for module, found in imports.items():
        private = [name for m, name in found if m == "partition" and (name or "").startswith("_")]
        assert not private, f"{module} imports {private} from partition"
    for module in ("workload", "topology", "control", "simulator", "appstats"):
        assert "partition" not in {m for m, _ in imports[module]}, f"{module} imports partition"


def test_importing_the_simulator_stack_leaves_the_partitioner_unloaded():
    code = (
        "import sys, offloadsim.simulator, offloadsim.appstats\n"
        "print('offloadsim.partition' in sys.modules, 'offloadsim.workload' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parent.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False True\n"


GENERATOR_CASES = [
    ("line", {"n": 1}),
    ("line", {"n": 7}),
    ("grid", {"width": 4, "height": 3}),
    ("grid", {"width": 1, "height": 5}),
    ("tree", {"branching": 3, "depth": 3}),
    ("tree", {"branching": 1, "depth": 4}),
    ("scale_free", {"n": 40, "m": 1}),
    ("scale_free", {"n": 60, "m": 3}),
]


@st.composite
def generated_topologies(draw):
    kind, params = draw(st.sampled_from(GENERATOR_CASES))
    params = {**params, "delay_ms": draw(st.sampled_from([0.0, 1.0, 2.5]))}
    return tp.generate_topology(kind, params, seed=draw(st.integers(0, 50)))


def adjacency_order(topo):
    return {nid: list(nbrs.items()) for nid, nbrs in topo.adj.items()}


@settings(max_examples=150, deadline=None)
@given(st.one_of(generated_topologies(), connected_graphs()), st.data())
def test_adjacency_is_in_neighbour_order_whatever_the_link_order(topo, data):
    # Topology.__eq__ ignores dict order, so the order itself is compared:
    # the in-order links a generator gives against the same links with some
    # endpoints swapped, then shuffled, or sorted by (u, v) as given (in
    # order but for u > v), or sorted by u alone (v out of order).
    swaps = data.draw(st.booleans())
    edges = [
        (v, u, w) if swaps and data.draw(st.booleans()) else (u, v, w)
        for u, v, w in data.draw(st.permutations(topo.edges()))
    ]
    order = data.draw(st.sampled_from(["shuffled", "by (u, v)", "by u"]))
    if order == "by (u, v)":
        edges.sort()
    elif order == "by u":
        edges.sort(key=lambda e: e[0])
    rebuilt = tp.Topology(list(topo.nodes.values()), edges, topo.server_id)
    assert adjacency_order(rebuilt) == adjacency_order(topo)
    assert all(list(nbrs) == sorted(nbrs) for nbrs in topo.adj.values())


@pytest.mark.parametrize("kind, params", GENERATOR_CASES)
def test_generated_specs_are_the_checked_specs(kind, params, tmp_path):
    topo = tp.generate_topology(kind, params, seed=3)
    path = tmp_path / "topo.txt"
    tp.write_topology(topo, path)
    for built in (topo, tp.load_topology(path)):
        for spec in built.nodes.values():
            checked = tp.NodeSpec(**dataclasses.asdict(spec))
            assert type(spec) is tp.NodeSpec
            assert (spec, hash(spec), repr(spec)) == (checked, hash(checked), repr(checked))
            assert vars(spec) == vars(checked)
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.cpu_capacity = 0.0
