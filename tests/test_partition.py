"""Call-graph clustering checked against brute-force graph oracles.

The oracles enumerate what the algorithms compute incrementally: all
shortest paths for betweenness, all set partitions for the modularity
maximum, the textbook summation for Q itself, and a from-scratch divisive
loop for the single-pass Girvan-Newman.
"""

import heapq
import itertools
import json
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import partition as pt
from offloadsim._inputs import _left_sum

from conftest import make_graph, reference_modularity


def brute_force_betweenness(names, adj):
    """Enumerate every shortest path of every vertex pair; each path adds
    1/(number of shortest paths for that pair) to each edge it uses."""
    scores = {}
    for a in adj:
        for b in adj[a]:
            if a < b:
                scores[(a, b)] = 0.0

    def all_shortest_paths(src, dst):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if dst not in dist:
            return []
        paths = []

        def walk(node, acc):
            if node == dst:
                paths.append(list(acc))
                return
            for nxt in adj[node]:
                if dist.get(nxt) == dist[node] + 1 and dist[nxt] <= dist[dst]:
                    acc.append(nxt)
                    walk(nxt, acc)
                    acc.pop()

        walk(src, [src])
        return paths

    for s, t in itertools.combinations(sorted(names), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        share = 1.0 / len(paths)
        for path in paths:
            for u, v in zip(path, path[1:]):
                key = (u, v) if u < v else (v, u)
                scores[key] += share
    return scores


def all_set_partitions(items):
    """Every way to split items into non-empty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def reference_components(names, adj):
    """Connected components by a dict DFS, each sorted, ordered by smallest
    member: the name-keyed kernel the dense ``_components`` replaced."""
    seen = set()
    comps = []
    for start in names:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def betweenness(graph, weighted=False):
    """``pt._edge_betweenness`` over the whole of ``graph``, as the first
    cut of the divisive pass scores it, keyed by name pair."""
    ix = pt._dense_index(graph)
    n = len(ix.names)
    edges, nbrs, arcs, lens = pt._betweenness_graph(ix, weighted)
    score = [0.0] * len(edges)
    pt._edge_betweenness(range(n), nbrs, arcs, lens, score, pt._source_arrays(n), weighted)
    names = ix.names
    return {(names[a], names[b]): sc for (a, b), sc in zip(edges, score)}


def reference_edge_betweenness(names, adj, weighted):
    """Brandes's accumulation over name-keyed dicts with predecessor lists:
    the kernel the dense ``_edge_betweenness`` replaced, and the oracle its
    scores must equal bit for bit."""
    scores = {}
    for a in names:
        for b in adj[a]:
            if a < b:
                scores[(a, b)] = 0.0
    for s in names:
        sigma = {s: 1.0}
        preds = {s: []}
        order = []
        if not weighted:
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    order.append(u)
                    du = dist[u]
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = du + 1
                            sigma[v] = 0.0
                            preds[v] = []
                            nxt.append(v)
                        if dist[v] == du + 1:
                            sigma[v] += sigma[u]
                            preds[v].append(u)
                frontier = nxt
        else:
            dist = {}
            heap = [(0.0, s)]
            found = {s: 0.0}
            while heap:
                d, u = heapq.heappop(heap)
                if u in dist:
                    continue
                dist[u] = d
                order.append(u)
                for v, w in adj[u].items():
                    if v in dist:
                        continue
                    nd = d + 1.0 / w
                    old = found.get(v)
                    if old is None or nd < old - 1e-12:
                        found[v] = nd
                        sigma[v] = sigma[u]
                        preds[v] = [u]
                        heapq.heappush(heap, (nd, v))
                    elif abs(nd - old) <= 1e-12:
                        sigma[v] += sigma[u]
                        preds[v].append(u)
        delta = {v: 0.0 for v in order}
        for w_v in reversed(order):
            for u in preds[w_v]:
                share = sigma[u] / sigma[w_v] * (1.0 + delta[w_v])
                key = (u, w_v) if u < w_v else (w_v, u)
                scores[key] += share
                delta[u] += share
    return {k: v / 2.0 for k, v in scores.items()}


def reference_girvan_newman(graph, n_clusters, weighted=False, trace=None):
    """Divisive clustering from scratch for one N: rescore the whole graph
    and recompute all of its components after every cut."""
    names = graph.names()
    work = {u: dict(vs) for u, vs in graph.adj.items()}
    comps = reference_components(names, work)
    while len(comps) < n_clusters:
        scores = reference_edge_betweenness(names, work, weighted)
        best_edge, best_score = None, -1.0
        for edge in sorted(scores):
            sc = scores[edge]
            if sc > best_score + 1e-12:
                best_edge, best_score = edge, sc
        a, b = best_edge
        del work[a][b]
        del work[b][a]
        if trace is not None:
            trace.append(best_edge)
        comps = reference_components(names, work)
    id_of = {v: i for i, v in enumerate(names)}
    comps = [[id_of[v] for v in comp] for comp in comps]
    return pt._partition_set(graph, comps, pt._dense_index(graph), pt._modularity_total(graph))


def reference_partition_sets(graph, weighted=False, upper=None):
    """One from-scratch run per N from 2 to ``upper`` (default: Louvain's)."""
    if upper is None:
        upper = min(pt.louvain_optimal(graph).n_clusters, len(graph.vertices))
    return [reference_girvan_newman(graph, n, weighted) for n in range(2, upper + 1)]


def random_graph(rng, n, p=0.45, max_w=5):
    names = [f"v{i}" for i in range(n)]
    edges = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < p:
            edges.append((a, b, float(rng.randint(1, max_w))))
    isolated = [x for x in names if not any(x in (a, b) for a, b, _ in edges)]
    return make_graph(edges, isolated=isolated)


def two_cliques_with_bridge(size=5):
    edges = []
    left = [f"l{i}" for i in range(size)]
    right = [f"r{i}" for i in range(size)]
    for grp in (left, right):
        edges.extend((a, b, 1.0) for a, b in itertools.combinations(grp, 2))
    edges.append((left[0], right[0], 1.0))
    return make_graph(edges), set(left), set(right), (left[0], right[0])


def test_graph_construction_counts():
    g = make_graph([("A", "B", 1.0), ("B", "C", 2.0)])
    assert g.names() == ["A", "B", "C"]
    assert len(g.edge_list()) == 2


def test_parallel_edges_merge():
    g = make_graph([("A", "B", 3.0)])
    g.add_call("A", "B", 2.0)
    assert g.adj["A"]["B"] == 5.0
    assert g.edge_list() == [("A", "B", 5.0)]


def test_edge_to_missing_class_names_it():
    g = make_graph([("A", "B", 1.0)])
    with pytest.raises(pt.CallGraphError, match="Zed"):
        g.add_call("A", "Zed", 1.0)


def test_self_edge_rejected():
    g = make_graph([("A", "B", 1.0)])
    with pytest.raises(pt.CallGraphError):
        g.add_call("A", "A", 1.0)


def test_nonpositive_weight_rejected():
    g = make_graph([("A", "B", 1.0)])
    with pytest.raises(pt.CallGraphError):
        g.add_call("A", "B", 0.0)


def test_tag_rule_prefix_match():
    g = make_graph([("android.view.Button", "com.app.Logic", 1.0)])
    pt.apply_tag_rules(g, [pt.TagRule("android.view", "pinned")])
    assert "pinned" in g.vertices["android.view.Button"].tags
    assert not g.vertices["com.app.Logic"].tags


def test_tag_rule_longest_prefix_wins():
    g = make_graph([("a.b.C", "z.Z", 1.0)])
    rules = [pt.TagRule("a", "outer"), pt.TagRule("a.b", "inner")]
    pt.apply_tag_rules(g, rules)
    assert g.vertices["a.b.C"].tags == {"inner"}


def test_tag_rule_requires_dot_boundary():
    g = make_graph([("androidx.view.B", "other.C", 1.0)])
    pt.apply_tag_rules(g, [pt.TagRule("android", "pinned")])
    assert not g.vertices["androidx.view.B"].tags


def test_betweenness_single_edge():
    g = make_graph([("A", "B", 1.0)])
    assert betweenness(g) == {("A", "B"): 1.0}


def test_betweenness_star_symmetric():
    g = make_graph([("hub", "a", 1.0), ("hub", "b", 1.0), ("hub", "c", 1.0)])
    scores = betweenness(g)
    values = set(scores.values())
    assert len(values) == 1


def test_bridge_dominates_betweenness():
    g, _, _, bridge = two_cliques_with_bridge()
    scores = betweenness(g)
    key = tuple(sorted(bridge))
    top = max(scores.values())
    assert scores[key] == top
    assert sum(1 for v in scores.values() if v == top) == 1


def test_betweenness_matches_brute_force():
    rng = random.Random(31)
    for trial in range(25):
        g = random_graph(rng, rng.randint(2, 7))
        want = brute_force_betweenness(g.names(), g.adj)
        got = betweenness(g)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9)


def test_girvan_newman_recovers_planted_cliques():
    g, left, right, bridge = two_cliques_with_bridge()
    trace = []
    pset = pt.girvan_newman(g, 2, trace=trace)
    groups = [set(c) for c in pset.clusters]
    assert {frozenset(left), frozenset(right)} == {frozenset(c) for c in groups}
    assert trace[0] == tuple(sorted(bridge))


def test_girvan_newman_extremes():
    g, left, right, _ = two_cliques_with_bridge(size=3)
    whole = pt.girvan_newman(g, 1)
    assert whole.n_clusters == 1
    assert whole.modularity == pytest.approx(0.0)
    singles = pt.girvan_newman(g, len(g.names()))
    assert singles.n_clusters == len(g.names())
    assert all(len(c) == 1 for c in singles.clusters)


def test_girvan_newman_refinement_is_nested():
    rng = random.Random(88)
    g = random_graph(rng, 8, p=0.5)
    comps = len(pt.girvan_newman(g, 1).clusters)
    prev = None
    for n in range(comps, len(g.names()) + 1):
        pset = pt.girvan_newman(g, n)
        blocks = [frozenset(c) for c in pset.clusters]
        if prev is not None:
            for block in blocks:
                assert any(block <= old for old in prev)
        prev = blocks


def test_girvan_newman_bad_cluster_count():
    g = make_graph([("A", "B", 1.0)])
    with pytest.raises(pt.CallGraphError):
        pt.girvan_newman(g, 3)
    with pytest.raises(pt.CallGraphError):
        pt.girvan_newman(g, 0)


def test_modularity_single_cluster_is_zero():
    # A path through every class is one component, uncut at N = 1.
    rng = random.Random(5)
    for _ in range(10):
        names = [f"v{i}" for i in range(rng.randint(2, 6))]
        rng.shuffle(names)
        g = make_graph([(a, b, float(rng.randint(1, 5))) for a, b in zip(names, names[1:])])
        pset = pt.girvan_newman(g, 1)
        assert pset.clusters == [g.names()]
        assert pset.modularity == pytest.approx(0.0, abs=1e-12)


def test_modularity_two_disconnected_cliques_split():
    edges = []
    for grp in (["a0", "a1", "a2"], ["b0", "b1", "b2"]):
        edges.extend((x, y, 1.0) for x, y in itertools.combinations(grp, 2))
    pset = pt.girvan_newman(make_graph(edges), 2)
    assert pset.clusters == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]
    assert pset.modularity == pytest.approx(0.5)


def test_modularity_matches_hand_formula():
    # Every set the commands score: each N of one divisive pass, Louvain's
    # optimum and each single-N clustering, weighted and not.
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        edges = g.edge_list()
        sets = [pt.louvain_optimal(g)]
        for weighted in (False, True):
            sets += pt.enumerate_partition_sets(g, weighted, natural=len(g.vertices))
            sets += [pt.girvan_newman(g, n, weighted) for n in range(1, len(g.vertices) + 1)]
        for pset in sets:
            want = reference_modularity(edges, pset.clusters)
            assert pset.modularity == pytest.approx(want, abs=1e-12)


def test_modularity_edgeless_graph_is_zero():
    g = make_graph([], isolated=["A", "B"])
    for pset in (pt.girvan_newman(g, 2), pt.louvain_optimal(g)):
        assert pset.clusters == [["A"], ["B"]]
        assert pset.modularity == 0.0


def test_louvain_splits_disconnected_cliques():
    edges = []
    for grp in (["a0", "a1", "a2"], ["b0", "b1", "b2"]):
        edges.extend((x, y, 1.0) for x, y in itertools.combinations(grp, 2))
    g = make_graph(edges)
    pset = pt.louvain_optimal(g)
    assert pset.n_clusters == 2
    assert pset.modularity == pytest.approx(0.5)


def test_louvain_matches_exhaustive_maximum():
    rng = random.Random(404)
    exact = 0
    trials = 20
    for _ in range(trials):
        g = random_graph(rng, rng.randint(3, 6), p=0.5)
        edges = g.edge_list()
        best = max(
            reference_modularity(edges, clusters)
            for clusters in all_set_partitions(g.names())
        )
        got = pt.louvain_optimal(g).modularity
        assert got <= best + 1e-9
        if got >= best - 1e-9:
            exact += 1
    assert exact >= 0.9 * trials


def test_louvain_deterministic():
    rng = random.Random(12)
    g = random_graph(rng, 9, p=0.4)
    a = pt.louvain_optimal(g)
    b = pt.louvain_optimal(g)
    assert a.clusters == b.clusters
    assert a.modularity == b.modularity


def test_louvain_never_below_singleton_floor():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        singleton_q = reference_modularity(g.edge_list(), [[n] for n in g.names()])
        assert pt.louvain_optimal(g).modularity >= singleton_q - 1e-12


def test_enumerate_partition_sets_range():
    g, _, _, _ = two_cliques_with_bridge(size=3)
    natural = pt.louvain_optimal(g).n_clusters
    sets = pt.enumerate_partition_sets(g)
    assert [p.n_clusters for p in sets] == list(range(2, natural + 1))
    # Every returned set covers the vertex set exactly.
    for pset in sets:
        names = sorted(n for c in pset.clusters for n in c)
        assert names == g.names()


def test_offloadable_fraction_tagging():
    g = make_graph(
        [("ui.A", "ui.B", 2.0), ("core.C", "core.D", 2.0), ("ui.B", "core.C", 1.0)],
        tags={"ui.A": {"pinned"}, "ui.B": {"pinned"}},
    )
    pset = pt.girvan_newman(g, 2)
    flags = pset.offloadable
    pinned_cluster = next(
        i for i, c in enumerate(pset.clusters) if "ui.A" in c
    )
    assert flags[pinned_cluster] is False
    assert pt.offloadable_fraction(g, pset) == pytest.approx(50.0)


def test_fully_untagged_graph_all_offloadable():
    g = make_graph([("A", "B", 1.0), ("C", "D", 1.0)])
    pset = pt.girvan_newman(g, 2)
    assert all(pset.offloadable)
    assert pt.offloadable_fraction(g, pset) == pytest.approx(100.0)


def test_offloadable_fraction_grows_with_refinement():
    # A pinned pair hangs off one end; finer partitions peel the free
    # classes away from it, so the offloadable share can only grow.
    g = make_graph(
        [("p.A", "p.B", 9.0), ("p.B", "f.C", 1.0), ("f.C", "f.D", 9.0),
         ("f.D", "f.E", 4.0)],
        tags={"p.A": {"pinned"}, "p.B": {"pinned"}},
    )
    fractions = []
    for n in range(1, 5):
        pset = pt.girvan_newman(g, n)
        fractions.append(pt.offloadable_fraction(g, pset))
    assert fractions == sorted(fractions)
    assert fractions[0] == 0.0
    assert fractions[-1] == pytest.approx(60.0)


def test_build_call_graph_json_roundtrip(tmp_path):
    doc = {
        "vertices": [
            {"name": "A", "tags": ["pinned"], "methods": [
                {"name": "run", "invocations": 10, "t_local_ms": 5.0,
                 "in_bytes": 64, "out_bytes": 32, "energy_mj": 2.0}]},
            {"name": "B", "methods": []},
        ],
        "edges": [{"a": "A", "b": "B", "weight": 4}],
    }
    g = pt.build_call_graph(doc)
    assert g.vertices["A"].methods[0].t_local_s == pytest.approx(0.005)
    assert g.vertices["A"].methods[0].energy_local_j == pytest.approx(0.002)
    assert g.adj["A"]["B"] == 4.0
    path = tmp_path / "graph.json"
    path.write_text(__import__("json").dumps(doc))
    h = pt.build_call_graph(path)
    assert h.names() == g.names()
    assert h.edge_list() == g.edge_list()


def test_build_call_graph_rejects_bad_documents():
    with pytest.raises(pt.CallGraphError):
        pt.build_call_graph("{not json")
    with pytest.raises(pt.CallGraphError):
        pt.build_call_graph({"edges": []})
    with pytest.raises(pt.CallGraphError):
        pt.build_call_graph(
            {"vertices": [{"name": "A"}], "edges": [{"a": "A", "b": "Q", "weight": 1}]}
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param({"vertices": ["A"], "edges": []}, "expected an object holding name",
                     id="doc0-not an object"),
        pytest.param({"vertices": {"A": {}}, "edges": []}, "vertices must be a list",
                     id="doc1-'vertices' must be a list"),
        pytest.param({"vertices": [{"name": "A"}], "edges": [["A", "B", 1]]},
                     "expected an object holding a", id="doc2-not an object"),
        pytest.param({"vertices": [{"name": "A"}], "edges": 5}, "edges must be a list",
                     id="doc3-'edges' must be a list"),
        pytest.param({"vertices": [{"name": "A"}, {"name": 5}], "edges": []},
                     "name must be a string", id="doc4-'name' must be a string"),
        pytest.param({"vertices": [{"name": "A", "tags": "pinned"}]},
                     "tags must be a list of strings", id="doc5-'tags' must be a list of strings"),
        pytest.param({"vertices": [{"name": "A", "tags": ["pinned", 1]}]},
                     "tags must be a list", id="doc6-'tags' must be a list"),
    ],
)
def test_build_call_graph_rejects_malformed_entries(doc, message):
    with pytest.raises(pt.CallGraphError, match=message):
        pt.build_call_graph(doc)
    with pytest.raises(pt.CallGraphError, match=message):
        pt.build_call_graph(json.dumps(doc))


@pytest.mark.parametrize("weight", [1e200, 1e308])
def test_weights_whose_modularity_terms_overflow_are_rejected(weight):
    g = make_graph([("a", "b", weight), ("b", "c", weight), ("c", "d", 1.0)])
    for run in (
        pt.louvain_optimal,
        lambda g: pt.enumerate_partition_sets(g, natural=3),
        lambda g: pt.girvan_newman(g, 2),
    ):
        with pytest.raises(pt.CallGraphError, match="total edge weight W = .* overflow"):
            run(g)
    # Betweenness forms no modularity term, so it still runs.
    assert betweenness(g, weighted=True)[("a", "b")] == 3.0


def test_largest_weights_below_the_bound_keep_modularity_finite():
    # 2W = 4e153 squares to 1.6e307, still finite.
    g = make_graph([("a", "b", 1e153), ("b", "c", 1e153), ("c", "d", 1.0)])
    best = pt.louvain_optimal(g)
    assert math.isfinite(best.modularity) and best.n_clusters > 1
    assert all(math.isfinite(p.modularity) for p in pt.enumerate_partition_sets(g))


def four_cycle(weight):
    """The ring a-b-d-c-a, every edge of one weight: each edge carries two
    shortest paths' worth of betweenness."""
    return make_graph([("a", "b", weight), ("a", "c", weight), ("b", "d", weight),
                       ("c", "d", weight)])


def test_weighted_betweenness_refuses_path_lengths_that_overflow():
    # Lengths of 1e308: two of them already sum to inf, and inf - inf in
    # the tie test is NaN, which miscounted this ring as 3, 2, 2, 1.
    g = four_cycle(1e-308)
    for run in (
        lambda g: betweenness(g, weighted=True),
        lambda g: pt.girvan_newman(g, 2, weighted=True),
        lambda g: pt.enumerate_partition_sets(g, weighted=True, natural=2),
    ):
        with pytest.raises(pt.CallGraphError, match="too small for weighted betweenness"):
            run(g)
    # Hop counting sums no lengths.
    assert set(betweenness(g).values()) == {2.0}


def test_weighted_betweenness_with_tiny_finite_path_lengths_is_exact():
    assert set(betweenness(four_cycle(1e-300), weighted=True).values()) == {2.0}


def test_weighted_betweenness_mode_differs():
    # Heavy edges are short in the weighted metric, so the weighted mode
    # must route around the light (long) edge.
    g = make_graph([("A", "B", 10.0), ("B", "C", 10.0), ("A", "C", 1.0)])
    hop = betweenness(g, weighted=False)
    wtd = betweenness(g, weighted=True)
    assert hop[("A", "C")] == pytest.approx(1.0)
    assert wtd[("A", "C")] < hop[("A", "C")]


@st.composite
def divisive_cases(draw):
    """A small call graph and a betweenness mode. Graphs are often
    disconnected and tie-heavy: unit weights, or disjoint rings."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        names, edges = [], []
        for r, size in enumerate(sizes):
            ring = [f"r{r}.{i}" for i in range(size)]
            names.extend(ring)
            if size == 2:
                edges.append((ring[0], ring[1], 1.0))
            elif size > 2:
                edges.extend((ring[i], ring[(i + 1) % size], 1.0) for i in range(size))
    else:
        names = [f"c{i}" for i in range(draw(st.integers(1, 9)))]
        pairs = list(itertools.combinations(names, 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        unit = draw(st.booleans())
        weight = st.just(1.0) if unit else st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0])
        edges = [(a, b, draw(weight)) for a, b in chosen]
    pinned = draw(st.sets(st.sampled_from(names)))
    graph = make_graph(edges, isolated=names, tags={v: {pt.PINNED_TAG} for v in pinned})
    return graph, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(divisive_cases())
def test_single_pass_matches_from_scratch_oracle(case):
    g, weighted = case
    assert pt.enumerate_partition_sets(g, weighted) == reference_partition_sets(g, weighted)
    every = len(g.names())
    assert pt.enumerate_partition_sets(g, weighted, natural=every) == (
        reference_partition_sets(g, weighted, upper=every)
    )
    for n in range(1, every + 1):
        got_trace, want_trace = [], []
        got = pt.girvan_newman(g, n, weighted, trace=got_trace)
        want = reference_girvan_newman(g, n, weighted, trace=want_trace)
        assert got == want
        assert got_trace == want_trace


@st.composite
def shuffled_weight_cases(draw):
    """A call graph whose edges go in in a drawn order and orientation, so
    adjacency insertion order is not name order, with weights from
    {1, 2, 3, 6}: weighted path lengths tie within 1e-12 (1/3 + 1/6 = 1/2).
    Names sort apart from their numbers ("v10" before "v2"); a pair drawn
    twice merges into one heavier edge."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 16)))]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=48)) if pairs else []
    edges = [
        (b, a, w) if draw(st.booleans()) else (a, b, w)
        for (a, b), w in zip(chosen, draw(st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 6.0]), min_size=len(chosen), max_size=len(chosen)
        )))
    ]
    return make_graph(edges, isolated=names), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.one_of(divisive_cases(), shuffled_weight_cases()))
def test_betweenness_equals_dict_kernel_exactly(case):
    g, weighted = case
    want = reference_edge_betweenness(g.names(), g.adj, weighted)
    assert betweenness(g, weighted) == want


@pytest.mark.parametrize("weighted", [False, True])
def test_betweenness_equals_dict_kernel_on_larger_graphs(weighted):
    # Scores that are not small integers: a kernel that reorders one
    # division or sum differs in the last bit here.
    rng = random.Random(7)
    for n in (20, 30, 40):
        edges = random_graph(rng, n, p=0.15, max_w=6).edge_list()
        rng.shuffle(edges)
        g = make_graph([(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in edges],
                       isolated=[f"v{i}" for i in range(n)])
        want = reference_edge_betweenness(g.names(), g.adj, weighted)
        assert betweenness(g, weighted) == want


@settings(max_examples=100, deadline=None)
@given(shuffled_weight_cases())
def test_single_pass_matches_oracle_on_shuffled_graphs(case):
    g, weighted = case
    every = len(g.names())
    assert pt.enumerate_partition_sets(g, weighted, natural=every) == (
        reference_partition_sets(g, weighted, upper=every)
    )
    got_trace, want_trace = [], []
    pt.girvan_newman(g, every, weighted, trace=got_trace)
    reference_girvan_newman(g, every, weighted, trace=want_trace)
    assert got_trace == want_trace


@pytest.mark.parametrize("weighted", [False, True])
def test_single_pass_matches_oracle_on_larger_graphs(weighted):
    rng = random.Random(2024)
    for _ in range(3):
        g = random_graph(rng, 22, p=0.2, max_w=3)
        assert pt.enumerate_partition_sets(g, weighted) == reference_partition_sets(g, weighted)
        got_trace, want_trace = [], []
        n = len(g.names())
        assert pt.girvan_newman(g, n, weighted, trace=got_trace) == reference_girvan_newman(
            g, n, weighted, trace=want_trace
        )
        assert got_trace == want_trace


def test_enumerate_partition_sets_share_no_lists():
    # Starts in two components, so N=2 and N=1 repeat the uncut graph.
    g = make_graph([("a", "b", 1.0), ("c", "d", 1.0), ("d", "e", 1.0)])
    sets = pt.enumerate_partition_sets(g, natural=4)
    assert [p.n_clusters for p in sets] == [2, 3, 4]
    cluster_ids = [id(c) for p in sets for c in p.clusters]
    assert len(set(cluster_ids)) == len(cluster_ids)


def ring_of_cliques(k=4, size=4):
    """``k`` cliques of ``size`` classes, each joined to the next by one edge."""
    groups = [[f"c{i}v{j}" for j in range(size)] for i in range(k)]
    edges = [(a, b, 1.0) for grp in groups for a, b in itertools.combinations(grp, 2)]
    edges += [(groups[i][0], groups[(i + 1) % k][1], 1.0) for i in range(k)]
    return make_graph(edges)


@pytest.mark.parametrize("weighted", [False, True])
def test_divisive_pass_scores_only_what_a_cut_reads(weighted, monkeypatch):
    # One entry per betweenness pass, the number of its sources. The first
    # three cuts each score all 16 classes (the third rescores the ring the
    # second cut split in two), the fourth only the half the third cut
    # split. No pass follows the cut that gives the caller its last set.
    passes = []
    kernel = pt._edge_betweenness

    def counted(sources, *args):
        passes.append(len(sources))
        kernel(sources, *args)

    monkeypatch.setattr(pt, "_edge_betweenness", counted)
    g = ring_of_cliques()
    sets = pt.enumerate_partition_sets(g, weighted, natural=4)
    assert [sorted(map(len, p.clusters)) for p in sets] == [[8, 8], [4, 4, 8], [4, 4, 4, 4]]
    assert passes == [16, 16, 16, 8]
    passes.clear()
    assert pt.girvan_newman(g, 2, weighted).n_clusters == 2
    assert passes == [16, 16]


@settings(max_examples=100, deadline=None)
@given(st.one_of(divisive_cases(), shuffled_weight_cases()))
def test_divisive_pass_yields_the_uncut_graph_then_only_after_a_split(case):
    # A cut splits at most one component in two, so after the uncut graph
    # each yield has one component more than the last, up to one per class.
    g, weighted = case
    names = g.names()
    counts = [len(comps) for comps in pt._divisive_pass(pt._dense_index(g), weighted)]
    first = len(reference_components(names, g.adj))
    assert counts == list(range(first, len(names) + 1))


@pytest.mark.parametrize("weighted", [False, True])
def test_divisive_pass_skips_cuts_that_split_nothing(weighted):
    # The first cut opens the ring of cliques without splitting it.
    g = ring_of_cliques()
    counts = [len(comps) for comps in pt._divisive_pass(pt._dense_index(g), weighted)]
    assert counts == list(range(1, 17))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["invocations", "t_local_s", "in_bytes", "out_bytes", "energy_local_j",
              "cpu_scale_hint"]
)
def test_method_profile_rejects_non_finite(field, value):
    kwargs = {"name": "m", "invocations": 1.0, "t_local_s": 0.01, field: value}
    with pytest.raises(pt.CallGraphError, match="method 'm'"):
        pt.MethodProfile(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_edge_weight_rejects_non_finite(value):
    g = make_graph([("A", "B", 1.0)])
    with pytest.raises(pt.CallGraphError, match="finite positive weight"):
        g.add_call("A", "B", value)
    assert g.adj["A"]["B"] == 1.0


def test_call_graph_json_with_nan_weight_is_rejected():
    text = (
        '{"vertices": [{"name": "A"}, {"name": "B"}],'
        ' "edges": [{"a": "A", "b": "B", "weight": NaN}]}'
    )
    with pytest.raises(pt.CallGraphError):
        pt.build_call_graph(text)


def test_long_tag_rules_text_parses_as_json():
    entries = [{"prefix": f"com.example.module{i:03d}", "tag": pt.PINNED_TAG} for i in range(25)]
    text = json.dumps(entries)
    assert len(text) > 1024
    rules = pt.load_tag_rules(text)
    assert rules == [pt.TagRule(e["prefix"], e["tag"]) for e in entries]


def test_tag_rules_path_and_text_follow_one_rule(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('[{"prefix": "a.b", "tag": "pinned"}]')
    assert pt.load_tag_rules(path) == [pt.TagRule("a.b", "pinned")]
    # A str is JSON text, never a file name.
    with pytest.raises(pt.CallGraphError, match="not valid JSON"):
        pt.load_tag_rules(str(path))
    with pytest.raises(pt.CallGraphError, match="must be a JSON list"):
        pt.load_tag_rules('{"prefix": "a.b", "tag": "pinned"}')


def test_unreadable_inputs_raise_call_graph_error(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(pt.CallGraphError, match="cannot read tag rules"):
        pt.load_tag_rules(missing)
    with pytest.raises(pt.CallGraphError, match="cannot read call graph"):
        pt.build_call_graph(missing)
    with pytest.raises(pt.CallGraphError, match="cannot read call graph"):
        pt.build_call_graph(tmp_path)


def test_weight_sums_add_left_to_right():
    # A compensated sum (the built-in sum() since Python 3.12) would give
    # 1.0000000000000002 here; left to right both tiny weights round away.
    g = make_graph([("a", "b", 1.0), ("a", "c", 1e-16), ("a", "d", 1e-16)])
    assert g.total_weight() == 1.0
    assert _left_sum([1e16, 1.0, -1e16]) == 0.0
