"""Network descriptions: edge-list parsing, validation, routing, generators."""

import math
import re
import sys

import pytest

from offloadsim import topology as tp

from conftest import line_topology, reference_hop_diameter, reference_routes, route_to_server
from interp_values import SCALE_FREE_CASES, topology_digest

LINE4 = """\
# c - n1 - n2 - s, unit delays
nodes 4 server 3
0 1.0 1.0 1
1 1.0 1.0 0
2 1.0 1.0 0
3 8.0 8.0 0
0 1 1.0
1 2 1.0
2 3 1.0
"""


def test_line_file_routes_along_unique_path(tmp_path):
    path = tmp_path / "line.topo"
    path.write_text(LINE4)
    topo = tp.load_topology(path)
    assert topo.next_hop_toward_server(1) == 2
    assert topo.next_hop_toward_server(2) == 3
    assert topo.next_hop_toward_server(0) == 1


def test_server_has_no_next_hop():
    topo = line_topology(4)
    assert topo.next_hop_toward_server(3) is None
    with pytest.raises(tp.TopologyError):
        topo.next_hop_toward_server(99)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.topo"
    path.write_text("")
    with pytest.raises(tp.TopologyError, match="no nodes"):
        tp.load_topology(path)


def test_self_loop_reported_with_line_number():
    bad = LINE4 + "1 1 0.5\n"
    with pytest.raises(tp.TopologyError, match="self-loop at line 10"):
        tp.load_topology(bad)


def test_duplicate_link_rejected():
    bad = LINE4 + "0 1 2.0\n"
    with pytest.raises(tp.TopologyError, match="duplicate"):
        tp.load_topology(bad)


def test_negative_delay_rejected():
    bad = LINE4.replace("2 3 1.0", "2 3 -1.0")
    with pytest.raises(tp.TopologyError):
        tp.load_topology(bad)


def test_disconnected_graph_rejected():
    specs = [tp.NodeSpec(i, 1.0, 1.0) for i in range(3)]
    with pytest.raises(tp.TopologyError, match="cannot reach"):
        tp.Topology(specs, [(0, 1, 1.0)], server_id=2)


# Each delay is finite, but a route over both sums past the float range.
OVERFLOWING_DELAYS = """\
nodes 3 server 2
0 1.0 1.0 1
1 1.0 1.0 0
2 1.0 1.0 0
0 1 1e308
1 2 1e308
"""


def test_link_delays_that_sum_past_the_float_range_are_refused():
    specs = [tp.NodeSpec(i, 1.0, 1.0) for i in range(3)]
    for build in (
        lambda: tp.Topology(specs, [(0, 1, 1e308), (1, 2, 1e308)], server_id=2),
        lambda: tp.load_topology(OVERFLOWING_DELAYS),
    ):
        with pytest.raises(tp.TopologyError, match="^total link delay is not finite"):
            build()
    tp.Topology(specs, [(0, 1, 1e308), (1, 2, 7e307)], server_id=2)


def test_two_servers_impossible_by_construction():
    # server_id is a single field, so the invariant is structural; an
    # unknown id must still be caught.
    specs = [tp.NodeSpec(0, 1.0, 1.0), tp.NodeSpec(1, 1.0, 1.0)]
    with pytest.raises(tp.TopologyError):
        tp.Topology(specs, [(0, 1, 1.0)], server_id=7)


def test_capacity_validation():
    with pytest.raises(ValueError):
        tp.NodeSpec(0, cpu_capacity=0.0, mem_capacity=1.0)
    with pytest.raises(ValueError):
        tp.NodeSpec(0, cpu_capacity=1.0, mem_capacity=-2.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["cpu_capacity", "mem_capacity"])
def test_node_spec_rejects_non_finite(field, value):
    kwargs = {"id": 0, "cpu_capacity": 1.0, "mem_capacity": 1.0, field: value}
    with pytest.raises(tp.TopologyError, match="finite"):
        tp.NodeSpec(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE)
def test_edge_delay_rejects_non_finite(value):
    specs = [tp.NodeSpec(0, 1.0, 1.0), tp.NodeSpec(1, 1.0, 1.0)]
    with pytest.raises(tp.TopologyError, match="finite"):
        tp.Topology(specs, [(0, 1, value)], server_id=1)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["cpu", "mem", "delay"])
def test_edge_list_rejects_non_finite(field, text):
    line = {"cpu": ("1 1.0 1.0 0", f"1 {text} 1.0 0"),
            "mem": ("1 1.0 1.0 0", f"1 1.0 {text} 0"),
            "delay": ("1 2 1.0", f"1 2 {text}")}[field]
    bad = LINE4.replace(*line)
    assert bad != LINE4
    with pytest.raises(tp.TopologyError, match="finite"):
        tp.load_topology(bad)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("param", ["cpu", "mem", "delay_ms"])
def test_generator_rejects_non_finite(param, value):
    with pytest.raises(tp.TopologyError, match="finite"):
        tp.generate_topology("line", {"n": 3, param: value})


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("line", {"n": 4.7}, "n"),
        ("line", {"n": True}, "n"),
        ("line", {"n": "4"}, "n"),
        ("line", {"n": 3, "cpu": "2.5"}, "cpu"),
        ("line", {"n": 3, "mem": False}, "mem"),
        ("line", {"n": 3, "delay_ms": None}, "delay_ms"),
        ("grid", {"width": 3.0, "height": 3}, "width"),
        ("grid", {"width": 3, "height": "3"}, "height"),
        ("tree", {"branching": 2, "depth": 1.5}, "depth"),
        ("tree", {"branching": True, "depth": 2}, "branching"),
        ("scale_free", {"n": 30, "m": 1.5}, "m"),
        ("scale_free", {"n": 30, "access_points": 2.99}, "access_points"),
        ("scale_free", {"n": 30, "access_points": None}, "access_points"),
    ],
)
def test_generator_refuses_parameters_of_the_wrong_type(kind, params, key):
    # int() would truncate 4.7 to 4 and True to 1, float() would read "2.5".
    with pytest.raises(tp.TopologyError, match=f"^{key} must be an? (integer|number), not "):
        tp.generate_topology(kind, params)


def test_generator_refuses_a_count_past_sys_maxsize():
    # list(range(n)) cannot hold a count past sys.maxsize.
    message = f"^n must be an integer no larger than {sys.maxsize}$"
    with pytest.raises(tp.TopologyError, match=message):
        tp.generate_topology("line", {"n": 10**20})


# (kind, params within a cap of 10 nodes, params past it); all but the
# last tree pair sit at the cap and one node past it.
CAPPED_SIZES = [
    ("line", {"n": 10}, {"n": 11}),
    ("grid", {"width": 2, "height": 5}, {"width": 1, "height": 11}),
    ("tree", {"branching": 1, "depth": 9}, {"branching": 1, "depth": 10}),
    ("tree", {"branching": 9, "depth": 1}, {"branching": 10, "depth": 1}),
    ("tree", {"branching": 2, "depth": 2}, {"branching": 2, "depth": 3}),
    ("scale_free", {"n": 10}, {"n": 11}),
]


@pytest.mark.parametrize("kind, at_cap, past_cap", CAPPED_SIZES)
def test_generator_builds_at_most_the_node_cap(monkeypatch, kind, at_cap, past_cap):
    monkeypatch.setattr(tp, "MAX_GENERATED_NODES", 10)
    assert len(tp.generate_topology(kind, at_cap).nodes) <= 10
    with pytest.raises(tp.TopologyError, match=r"gives more than MAX_GENERATED_NODES = 10 nodes$"):
        tp.generate_topology(kind, past_cap)


# Positive and finite, but their reciprocals overflow to inf.
SUBNORMAL = [5e-324, 1e-310]


@pytest.mark.parametrize("value", SUBNORMAL)
@pytest.mark.parametrize("field", ["cpu_capacity", "mem_capacity"])
def test_node_spec_rejects_capacities_without_a_finite_reciprocal(field, value):
    assert math.isinf(1.0 / value)
    kwargs = {"id": 0, "cpu_capacity": 1.0, "mem_capacity": 1.0, field: value}
    with pytest.raises(tp.TopologyError, match="1/capacity"):
        tp.NodeSpec(**kwargs)


@pytest.mark.parametrize("value", SUBNORMAL)
@pytest.mark.parametrize("param", ["cpu", "mem"])
def test_generator_rejects_capacities_without_a_finite_reciprocal(param, value):
    with pytest.raises(tp.TopologyError, match="1/capacity"):
        tp.generate_topology("line", {"n": 3, param: value})


@pytest.mark.parametrize("field", ["cpu", "mem"])
def test_edge_list_rejects_capacities_without_a_finite_reciprocal(field):
    line = {"cpu": "1 5e-324 1.0 0", "mem": "1 1.0 5e-324 0"}[field]
    bad = LINE4.replace("1 1.0 1.0 0", line)
    assert bad != LINE4
    with pytest.raises(tp.TopologyError, match="line 4: node 1 capacity and 1/capacity"):
        tp.load_topology(bad)


def test_roundtrip_preserves_topology(tmp_path):
    topo = tp.generate_topology("grid", {"width": 3, "height": 3})
    path = tmp_path / "grid.topo"
    tp.write_topology(topo, path)
    again = tp.load_topology(path)
    assert again == topo


def test_shortest_path_tie_breaks_to_lowest_id():
    # Diamond: 0 reaches server 3 via 1 or 2 at equal cost.
    specs = [tp.NodeSpec(i, 1.0, 1.0, is_access_point=(i == 0)) for i in range(4)]
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    topo = tp.Topology(specs, edges, server_id=3)
    assert topo.next_hop_toward_server(0) == 1


def test_routing_follows_delays_not_hops():
    # Direct link is slower than the two-hop detour.
    specs = [tp.NodeSpec(i, 1.0, 1.0, is_access_point=(i == 0)) for i in range(3)]
    edges = [(0, 2, 5.0), (0, 1, 1.0), (1, 2, 1.0)]
    topo = tp.Topology(specs, edges, server_id=2)
    assert topo.next_hop_toward_server(0) == 1


def test_iterating_next_hops_reaches_server():
    topo = tp.generate_topology("scale_free", {"n": 40, "m": 2}, seed=3)
    n = len(topo.nodes)
    for nid in topo.nodes:
        if nid == topo.server_id:
            continue
        steps = 0
        cur = nid
        while cur != topo.server_id:
            cur = topo.next_hop_toward_server(cur)
            steps += 1
            assert steps < n
        assert steps <= n - 1


def test_line_generator_structure():
    topo = tp.generate_topology("line", {"n": 4})
    assert len(topo.nodes) == 4
    assert len(topo.edges()) == 3
    assert len(topo.access_points()) == 1
    assert topo.server_id == 3


def test_grid_generator_structure():
    topo = tp.generate_topology("grid", {"width": 2, "height": 2})
    assert len(topo.nodes) == 4
    assert len(topo.edges()) == 4


def test_grid_access_points_are_its_leaves_or_else_its_perimeter():
    """The degree-one nodes other than the server; with none, the perimeter
    less the server."""
    for w in range(1, 9):
        for h in range(1, 9):
            if w * h < 2:
                continue
            topo = tp.generate_topology("grid", {"width": w, "height": h})
            degree = dict.fromkeys(topo.nodes, 0)
            for u, v, _ in topo.edges():
                degree[u] += 1
                degree[v] += 1
            leaves = [i for i in sorted(degree) if degree[i] == 1 and i != topo.server_id]
            perimeter = [
                r * w + c
                for r in range(h)
                for c in range(w)
                if (r in (0, h - 1) or c in (0, w - 1)) and r * w + c != topo.server_id
            ]
            assert sorted(topo.access_points()) == (leaves or perimeter), (w, h)


def test_tree_generator_connected():
    topo = tp.generate_topology("tree", {"depth": 3, "branching": 2})
    assert len(topo.nodes) == 15
    assert len(topo.edges()) == 14
    assert topo.access_points()


def test_scale_free_deterministic():
    a = tp.generate_topology("scale_free", {"n": 50}, seed=7)
    b = tp.generate_topology("scale_free", {"n": 50}, seed=7)
    assert a == b
    c = tp.generate_topology("scale_free", {"n": 50}, seed=8)
    assert a != c


# sha256 of (edges, server, access points), recorded from the generator
# that drew through ``rng.randrange`` and kept the edges in a set.
SCALE_FREE_DIGESTS = [
    "75a341919e1d19872cfa29b463736dce7c433591ea2ed5c96392f29e193c800a",
    "90037e408eabb0dfad2f1f026a280e6b57ba06c712678b522efab8a11a76b258",
    "f20bf4c3959576b8061269c00d521010547e022104cb0c56e31fe8e5dafd75c0",
    "0421ad21347272fcb78c4619127b80dc49854e0cb61086569113ada063f22598",
    "fa8b26426d085565fabad5894a01bcaa71b1d76dadb5db45c16f32f64c7f64cc",
    "6b94dc252d253aba3018e483bd5c977eb89a1613e2fd3c7cfe26a1edc26412c1",
    "024812cafeca555a299cbd1aa43ad5c117ac954c8f82597627995af56ba9609b",
    "944f7ab51c59265846d4aef16aefa637087b860dca5e94a890855bbbb16701f8",
    "4d178973ce77b96b913b315cb0e536114a8ca463d5a0cddb58cd73979f332821",
    "9060e4f675606f53966ddb24faa768d38079822fa752407353785d26104db4e0",
]


@pytest.mark.parametrize(
    "seed, params, digest",
    [(*case, digest) for case, digest in zip(SCALE_FREE_CASES, SCALE_FREE_DIGESTS, strict=True)],
)
def test_scale_free_topologies_are_pinned(seed, params, digest):
    assert topology_digest(tp.generate_topology("scale_free", params, seed=seed)) == digest


def test_scale_free_access_point_sampling():
    topo = tp.generate_topology("scale_free", {"n": 30, "access_points": 5}, seed=1)
    assert len(topo.access_points()) == 5


def test_unknown_generator_kind():
    with pytest.raises(ValueError):
        tp.generate_topology("torus", {"n": 4})


def test_relay_flag_roundtrip(tmp_path):
    text = LINE4.replace("0 1.0 1.0 1", "0 1.0 1.0 2")
    topo = tp.load_topology(text)
    assert topo.nodes[0].is_relay
    assert topo.nodes[0].is_access_point
    path = tmp_path / "relay.topo"
    tp.write_topology(topo, path)
    assert tp.load_topology(path) == topo


@pytest.mark.parametrize("bad", ["a", True, 1.5])
def test_write_refuses_an_id_the_format_cannot_carry(tmp_path, bad):
    # A hand-built topology may hold ids that load_topology cannot read
    # back; the writer names the node and creates no file.
    ids = [bad, "b"] if isinstance(bad, str) else [0, bad]
    topo = tp.Topology(
        [tp.NodeSpec(nid, 1.0, 1.0, is_access_point=(k == 0)) for k, nid in enumerate(ids)],
        [(ids[0], ids[1], 1.0)],
        server_id=ids[1],
    )
    path = tmp_path / "bad.topo"
    with pytest.raises(tp.TopologyError, match=f"^node {re.escape(repr(bad))}: "):
        tp.write_topology(topo, path)
    assert not path.exists()


def test_hop_diameter():
    assert line_topology(4).hop_diameter() == 3
    assert tp.generate_topology("grid", {"width": 3, "height": 3}).hop_diameter() == 4


def test_one_node_has_diameter_zero():
    lone = tp.Topology([tp.NodeSpec(5, 1.0, 1.0, is_access_point=True)], [], server_id=5)
    assert lone.hop_diameter() == 0
    assert tp.generate_topology("line", {"n": 1}).hop_diameter() == 0


@pytest.mark.parametrize(
    "kind,params",
    [
        ("scale_free", {"n": 400, "m": 2}),
        ("scale_free", {"n": 1600, "m": 2}),
        ("line", {"n": 1000}),
        ("grid", {"width": 30, "height": 30}),
        ("tree", {"branching": 2, "depth": 8}),
    ],
)
def test_hop_diameter_matches_the_bfs_oracle_at_scale(kind, params):
    topo = tp.generate_topology(kind, params, seed=1)
    assert topo.hop_diameter() == reference_hop_diameter(topo)


def test_zero_delay_line_routes_toward_the_server():
    topo = tp.generate_topology("line", {"n": 3, "delay_ms": 0.0})
    assert [topo.next_hop_toward_server(i) for i in range(3)] == [1, 2, None]


@pytest.mark.parametrize(
    "kind,params",
    [
        ("line", {"n": 7}),
        ("grid", {"width": 4, "height": 3}),
        ("tree", {"branching": 2, "depth": 3}),
        ("scale_free", {"n": 40, "m": 2}),
    ],
)
def test_zero_delay_routes_reach_the_server(kind, params):
    topo = tp.generate_topology(kind, {**params, "delay_ms": 0.0}, seed=5)
    for nid in topo.nodes:
        assert len(route_to_server(topo, nid)) - 1 <= len(topo.nodes)


def test_a_fewer_hop_path_found_later_still_orders_equal_delay_nodes():
    # Node 4 is first reached at delay 1.0 in 4 hops (0-1-2-3-4), then at
    # the same delay in 2 (0-5-4, the last link free). Node 7 sits at delay
    # 1.0 in 3 hops (0-8-9-7), and node 6 joins 4 and 7 by free links. Only
    # with 4's hop count lowered to 2 does 6 route through 4, not 7.
    nodes = [tp.NodeSpec(i, 1.0, 1.0, is_access_point=(i == 6)) for i in range(10)]
    edges = [(0, 1, 0.25), (1, 2, 0.25), (2, 3, 0.25), (3, 4, 0.25), (0, 5, 1.0),
             (4, 5, 0.0), (4, 6, 0.0), (6, 7, 0.0), (0, 8, 0.5), (8, 9, 0.5), (7, 9, 0.0)]
    topo = tp.Topology(nodes, edges, server_id=0)
    _, next_hop = reference_routes(topo.adj, topo.server_id)
    assert {nid: topo.next_hop_toward_server(nid) for nid in topo.nodes} == next_hop
    assert route_to_server(topo, 6) == [6, 4, 3, 2, 1, 0]


def test_mixed_delay_routes_are_shortest_and_loop_free():
    # A zero-delay triangle hangs off a one-hop link to the server; every
    # node in it is at delay 1.0, so only the hop count orders them.
    nodes = [tp.NodeSpec(i, 1.0, 1.0, is_access_point=(i == 0)) for i in range(5)]
    edges = [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0), (2, 3, 1.0), (3, 4, 0.0), (0, 4, 5.0)]
    topo = tp.Topology(nodes, edges, server_id=4)
    dist, next_hop = reference_routes(topo.adj, topo.server_id)
    assert dist == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0}
    assert {nid: topo.next_hop_toward_server(nid) for nid in topo.nodes} == next_hop
    assert route_to_server(topo, 0) == [0, 2, 3, 4]
    assert route_to_server(topo, 1) == [1, 2, 3, 4]
    for nid in topo.nodes:
        nxt = topo.next_hop_toward_server(nid)
        if nxt is not None:
            assert dist[nid] == topo.adj[nid][nxt] + dist[nxt]
