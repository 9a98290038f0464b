"""Shared fixtures and small builders used across the test modules, and
the reference implementations that the fast paths are checked against."""

import csv
import io
import json

import pytest

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


def route_to_server(topo, node_id):
    """The next-hop chain from ``node_id``; fails on a loop or a dead end
    instead of following it forever."""
    path = [node_id]
    while path[-1] != topo.server_id:
        nxt = topo.next_hop_toward_server(path[-1])
        assert nxt is not None and nxt not in path, f"route {path} continues to {nxt}"
        path.append(nxt)
    return path


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


def reference_series_csv(m):
    """A run's ``<prefix>_series.csv`` text through the csv module."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time_ms", "node_id", "normalized_load"])
    for t, row in zip(m.sample_times_ms, m.sample_loads):
        for nid, load in zip(m.sample_node_ids, row):
            w.writerow([repr(t), nid, repr(load)])
    return buf.getvalue()
