"""Application call graphs and community-based partitioning.

The call graph is class granular: vertices carry per-method runtime
profiles, weighted edges count cross-class invocations. Partitioning uses
divisive edge-betweenness clustering (Girvan-Newman) to produce candidate
offload sets for every cluster count N between 2 and the count a
modularity-maximizing (Louvain) pass considers natural.

The divisive clustering is a single pass. Cutting one edge splits at most
one component in two, so the cuts that reach N clusters are a prefix of
the cuts that reach N + 1, and one cut sequence yields every offload set.
Betweenness sums over source vertices, and a vertex's shortest paths stay
inside its component, so after a cut only the component that lost the
edge is rescored; every other edge keeps the score it already had, which
is the same float a rescoring of the whole graph would give. That
rescoring waits until the next cut asks for it, so the cut that gives a
caller its last component list is never scored after.

The pass, betweenness, modularity and Louvain run on a dense index built
once per call: int ids in sorted name order, list adjacency, edge ids and
flat per-edge scores. Names appear only on input and in the returned
cluster lists and cut traces. Every order the name-keyed algorithms used
is kept, so every float comes out with the same bits:

* comparing ids orders vertices as comparing names does, which covers
  source order, the Dijkstra heap's ``(distance, vertex)`` tie-break and
  component order;
* edge ids follow sorted ``(a, b)`` name pairs, so the strict ``1e-12``
  tie scan over ascending ids cuts the same edge;
* each vertex's adjacency keeps the insertion order of ``graph.adj``,
  which ``sigma`` and the weight sums follow.

The unweighted pass keeps no predecessor lists. A vertex's predecessors
are its neighbours one hop nearer the source, and each (predecessor,
vertex) pair adds its share to its own ``delta`` entry and its own edge
score. So rescanning each vertex's ``(neighbour, edge id)`` arcs in the
backward pass, still in reverse visit order, adds the same floats in the
same order. That sweep also resets each vertex's distance as it leaves
it: the predecessors it still reads sit one level nearer the source,
earlier in the visit order, and are not reset yet. The weighted pass
keeps predecessor lists, because the ``1e-12`` tie rule decides a
predecessor when a vertex is reached, against the tentative distance of
that moment.

All algorithms here are deterministic: vertex sweeps run in sorted name
order, betweenness ties remove the lexicographically smallest edge, and
cluster lists are ordered by their smallest member.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from ._inputs import _left_sum, _load_json, _non_negative, _number, _objects, _positive
from ._inputs import _refuse_unknown, _strings, _typed

#: Classes tagged with this (via rules or directly) must stay on the device.
PINNED_TAG = "pinned"

# The least modularity gain for which Louvain moves a vertex.
_MIN_GAIN = 1e-12


class CallGraphError(ValueError):
    """Raised for malformed call-graph input."""


@dataclass(frozen=True)
class MethodProfile:
    """Runtime profile of one method (times seconds, energies joules)."""

    name: str
    invocations: float
    t_local_s: float
    in_bytes: float = 0.0
    out_bytes: float = 0.0
    energy_local_j: float = 0.0
    cpu_scale_hint: float = 1.0

    def __post_init__(self):
        if not _non_negative(self.invocations):
            raise CallGraphError(f"method {self.name!r}: invocations must be non-negative")
        if not _non_negative(self.t_local_s):
            raise CallGraphError(f"method {self.name!r}: local time must be non-negative")
        if not (_non_negative(self.in_bytes) and _non_negative(self.out_bytes)):
            raise CallGraphError(f"method {self.name!r}: byte counts must be non-negative")
        if not _non_negative(self.energy_local_j):
            raise CallGraphError(f"method {self.name!r}: energy must be non-negative")
        if not _positive(self.cpu_scale_hint):
            raise CallGraphError(f"method {self.name!r}: cpu_scale_hint must be positive")


@dataclass
class ClassNode:
    """One vertex: a class with its methods and capability tags."""

    name: str
    tags: set[str] = field(default_factory=set)
    methods: list[MethodProfile] = field(default_factory=list)


class CallGraph:
    """Undirected weighted multigraph of classes (parallel edges merged)."""

    def __init__(self):
        self.vertices: dict[str, ClassNode] = {}
        self.adj: dict[str, dict[str, float]] = {}

    def add_class(self, node: ClassNode) -> None:
        if node.name in self.vertices:
            raise CallGraphError(f"duplicate class {node.name!r}")
        self.vertices[node.name] = node
        self.adj[node.name] = {}

    def add_call(self, a: str, b: str, weight: float) -> None:
        for v in (a, b):
            if v not in self.vertices:
                raise CallGraphError(f"edge ({a!r}, {b!r}) references unknown class {v!r}")
        if a == b:
            raise CallGraphError(f"self-edge on class {a!r}")
        if not _positive(weight):
            raise CallGraphError(f"edge ({a!r}, {b!r}) must have a finite positive weight")
        self.adj[a][b] = self.adj[a].get(b, 0.0) + weight
        self.adj[b][a] = self.adj[b].get(a, 0.0) + weight

    def names(self) -> list[str]:
        return sorted(self.vertices)

    def edge_list(self) -> list[tuple[str, str, float]]:
        out = []
        for a in sorted(self.adj):
            for b, w in sorted(self.adj[a].items()):
                if a < b:
                    out.append((a, b, w))
        return out

    def total_weight(self) -> float:
        return _left_sum(w for _, _, w in self.edge_list())


# The keys docs/schemas/callgraph.json and tagrules.json declare.
_VERTEX_KEYS = frozenset(("name", "tags", "methods"))
_METHOD_KEYS = frozenset(
    ("name", "invocations", "t_local_ms", "in_bytes", "out_bytes", "energy_mj", "cpu_scale_hint")
)
_EDGE_KEYS = frozenset(("a", "b", "weight"))
_RULE_KEYS = frozenset(("prefix", "tag"))


def build_call_graph(source) -> CallGraph:
    """Load a call graph from a JSON file (``Path``), JSON text (``str``), or
    parsed dict (see docs/schemas/callgraph.json).

    Input schema: ``vertices`` is a list of ``{name, tags, methods}`` where
    each method carries ``name, invocations, t_local_ms`` (and optional
    ``in_bytes, out_bytes, energy_mj`` and ``cpu_scale_hint``); ``edges`` is
    a list of ``{a, b, weight}``. Times and energies convert to seconds and
    joules internally.
    """
    error = CallGraphError
    data = _load_json(source, "call graph", dict, error)
    _refuse_unknown(data, frozenset(("vertices", "edges")), "the call graph", error)
    graph = CallGraph()
    for v in _objects(data, "vertices", None, _VERTEX_KEYS, error):
        name = _typed(v, "name", None, (str,), "a string", error)
        tags = set(_strings(v, "tags", error))
        methods = [
            MethodProfile(
                name=_typed(m, "name", None, (str,), "a string", error),
                invocations=_number(m, "invocations", None, error),
                t_local_s=_number(m, "t_local_ms", None, error) / 1000.0,
                in_bytes=_number(m, "in_bytes", 0.0, error),
                out_bytes=_number(m, "out_bytes", 0.0, error),
                energy_local_j=_number(m, "energy_mj", 0.0, error) / 1000.0,
                cpu_scale_hint=_number(m, "cpu_scale_hint", 1.0, error),
            )
            for m in _objects(v, "methods", [], _METHOD_KEYS, error)
        ]
        graph.add_class(ClassNode(name=name, tags=tags, methods=methods))
    for e in _objects(data, "edges", [], _EDGE_KEYS, error):
        a = _typed(e, "a", None, (str,), "a string", error)
        b = _typed(e, "b", None, (str,), "a string", error)
        graph.add_call(a, b, _number(e, "weight", None, error))
    return graph


@dataclass(frozen=True)
class TagRule:
    """Apply ``tag`` to classes under ``prefix`` (dot-boundary match)."""

    prefix: str
    tag: str


def load_tag_rules(source) -> list[TagRule]:
    """Rules come as a JSON list of {prefix, tag} objects, read from a file
    (``Path``), parsed from JSON text (``str``), or given as a parsed list
    (see docs/schemas/tagrules.json)."""
    error = CallGraphError
    rules = []
    for i, e in enumerate(_load_json(source, "tag rules", list, error)):
        _refuse_unknown(e, _RULE_KEYS, f"tag rules[{i}]", error)
        prefix = _typed(e, "prefix", None, (str,), "a string", error)
        tag = _typed(e, "tag", None, (str,), "a string", error)
        if not prefix or not tag:
            raise error(f"tag rules[{i}]: {'tag' if prefix else 'prefix'} must not be empty")
        rules.append(TagRule(prefix, tag))
    return rules


def _prefix_matches(prefix: str, name: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def apply_tag_rules(graph: CallGraph, rules: list[TagRule]) -> CallGraph:
    """Tag classes by longest matching prefix; later duplicate prefixes win.

    Mutates and returns the graph.
    """
    by_prefix: dict[str, str] = {}
    for r in rules:
        by_prefix[r.prefix] = r.tag
    ordered = sorted(by_prefix.items(), key=lambda kv: len(kv[0]), reverse=True)
    for node in graph.vertices.values():
        for prefix, tag in ordered:
            if _prefix_matches(prefix, node.name):
                node.tags.add(tag)
                break
    return graph


@dataclass(frozen=True)
class _DenseIndex:
    """A call graph on int ids. Ids follow sorted name order, so comparing
    ids orders vertices as comparing names does. Each vertex's neighbours
    keep the insertion order of ``graph.adj``, with a parallel list of
    edge weights; ``degree`` holds each vertex's summed edge weight, added
    left to right."""

    names: list[str]
    id_of: dict[str, int]
    nbrs: list[list[int]]
    weights: list[list[float]]
    degree: list[float]

    def named(self, comps: list[list[int]]) -> list[list[str]]:
        names = self.names
        return [[names[i] for i in comp] for comp in comps]


def _dense_index(graph: CallGraph) -> _DenseIndex:
    names = graph.names()
    id_of = {v: i for i, v in enumerate(names)}
    weights = [list(graph.adj[v].values()) for v in names]
    return _DenseIndex(
        names=names,
        id_of=id_of,
        nbrs=[[id_of[u] for u in graph.adj[v]] for v in names],
        weights=weights,
        degree=[_left_sum(ws) for ws in weights],
    )


def _betweenness_graph(ix: _DenseIndex, weighted: bool):
    """``edges``, ``nbrs``, ``arcs`` and ``lens`` for a betweenness pass.

    ``edges`` lists the ``(a, b)`` pairs with ``a < b`` in sorted order, so
    ascending edge ids scan pairs as sorted names would. ``nbrs`` is a copy
    of the index adjacency the pass may cut; ``arcs`` holds each vertex's
    ``(neighbour, edge id)`` pairs and ``lens`` its path lengths
    ``1.0 / weight``, both parallel to it. A weighted pass whose
    paths of up to n - 1 edges could sum past the largest float is refused
    here, since the ``1e-12`` tie test would then compare ``inf - inf``.
    """
    n = len(ix.nbrs)
    edges: list[tuple[int, int]] = []
    eid_of: dict[int, int] = {}
    for a, vs in enumerate(ix.nbrs):
        for b in sorted(vs):
            if a < b:
                eid_of[a * n + b] = len(edges)
                edges.append((a, b))
    arcs = [
        [(b, eid_of[a * n + b] if a < b else eid_of[b * n + a]) for b in vs]
        for a, vs in enumerate(ix.nbrs)
    ]
    lens = [[1.0 / w for w in ws] for ws in ix.weights]
    if weighted:
        lightest = min((w for ws in ix.weights for w in ws), default=math.inf)
        if not math.isfinite((n - 1) * (1.0 / lightest)):
            raise CallGraphError(
                f"edge weight {lightest!r} is too small for weighted betweenness: "
                f"paths of up to {n - 1} edges of length 1/weight overflow"
            )
    return edges, [list(vs) for vs in ix.nbrs], arcs, lens


def _components(sources, nbrs: list[list[int]]) -> list[list[int]]:
    """Connected components reached from ``sources`` (ascending ids), each
    sorted. A component starts at its smallest source, so the list comes
    out ordered by smallest member."""
    seen = bytearray(len(nbrs))
    comps: list[list[int]] = []
    for start in sources:
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        for u in comp:
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def _source_arrays(n: int) -> tuple[list, list, list, list, list]:
    """``sigma``, ``delta``, ``dist``, ``found`` and ``preds`` for
    ``_edge_betweenness``, allocated once per pass. A source sets what it
    reads and resets ``dist`` and ``found`` where it reached."""
    return [0.0] * n, [0.0] * n, [-1] * n, [None] * n, [None] * n


def _edge_betweenness(
    sources, nbrs: list[list[int]], arcs: list[list[tuple[int, int]]],
    lens: list[list[float]], score: list[float], arrays: tuple, weighted: bool,
) -> None:
    """Brandes's per-source accumulation over the component(s) of
    ``sources`` (ascending ids). Overwrites ``score[e]`` of every edge in
    them: zeroed, summed over sources in order, then halved."""
    sigma, delta, dist, found, preds = arrays
    heappush, heappop = heapq.heappush, heapq.heappop
    live = [e for u in sources for v, e in arcs[u] if u < v]
    for e in live:
        score[e] = 0.0
    for s in sources:
        sigma[s] = 1.0
        delta[s] = 0.0
        if not weighted:
            # The BFS queue is the visit order. Predecessors are the
            # neighbours one hop nearer, found again on the way back.
            dist[s] = 0
            order = [s]
            for u in order:
                du1 = dist[u] + 1
                su = sigma[u]
                for v in nbrs[u]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = du1
                        sigma[v] = su
                        delta[v] = 0.0
                        order.append(v)
                    elif dv == du1:
                        sigma[v] += su
            # Predecessors come earlier in the visit order, so each vertex
            # is reset as the sweep leaves it; the source ends the sweep.
            for w in reversed(order):
                dp = dist[w] - 1
                dist[w] = -1
                if w == s:
                    break
                sw = sigma[w]
                cw = 1.0 + delta[w]
                for u, e in arcs[w]:
                    if dist[u] == dp:
                        share = sigma[u] / sw * cw
                        score[e] += share
                        delta[u] += share
        else:
            # Strong edges are short paths: length is the inverse weight.
            # Paths within 1e-12 tie, decided when a vertex is reached, so
            # predecessors are kept. ``dist`` marks settled vertices and
            # ``found`` holds tentative distances.
            found[s] = 0.0
            preds[s] = []
            order = []
            heap = [(0.0, s)]
            while heap:
                d, u = heappop(heap)
                if dist[u] >= 0:
                    continue
                dist[u] = d
                order.append(u)
                su = sigma[u]
                for (v, e), ln in zip(arcs[u], lens[u]):
                    if dist[v] >= 0:
                        continue
                    nd = d + ln
                    old = found[v]
                    if old is None or nd < old - 1e-12:
                        found[v] = nd
                        sigma[v] = su
                        delta[v] = 0.0
                        preds[v] = [(u, e)]
                        heappush(heap, (nd, v))
                    elif -1e-12 <= nd - old <= 1e-12:
                        sigma[v] += su
                        preds[v].append((u, e))
            for w in reversed(order):
                sw = sigma[w]
                cw = 1.0 + delta[w]
                for u, e in preds[w]:
                    share = sigma[u] / sw * cw
                    score[e] += share
                    delta[u] += share
            for v in order:
                dist[v] = -1
                found[v] = None
    # Every undirected pair was counted from both endpoints' trees.
    for e in live:
        score[e] /= 2.0


def edge_betweenness(graph: CallGraph, weighted: bool = False) -> dict[tuple[str, str], float]:
    """Shortest-path edge betweenness (fraction-weighted over tie paths).

    Unweighted hop counting by default; ``weighted=True`` treats heavier
    edges as shorter (length 1/weight).
    """
    ix = _dense_index(graph)
    n = len(ix.names)
    edges, nbrs, arcs, lens = _betweenness_graph(ix, weighted)
    score = [0.0] * len(edges)
    _edge_betweenness(range(n), nbrs, arcs, lens, score, _source_arrays(n), weighted)
    names = ix.names
    return {(names[a], names[b]): sc for (a, b), sc in zip(edges, score)}


@dataclass
class PartitionSet:
    """One clustering of the call graph into candidate offload units."""

    n_clusters: int
    clusters: list[list[str]]
    modularity: float
    offloadable: list[bool]


def _partition_set(
    graph: CallGraph, clusters: list[list[str]], ix: _DenseIndex, total: float
) -> PartitionSet:
    """``ix`` and ``total`` are the graph's dense index and its
    ``_modularity_total``."""
    offloadable = [
        all(PINNED_TAG not in graph.vertices[v].tags for v in cluster)
        for cluster in clusters
    ]
    return PartitionSet(
        n_clusters=len(clusters),
        clusters=clusters,
        modularity=_modularity(ix, clusters, total),
        offloadable=offloadable,
    )


def _divisive_pass(ix: _DenseIndex, weighted: bool, trace: list | None = None):
    """Girvan-Newman as one pass over a working copy of the dense index.

    Yields the component list (lists of ids, each sorted, ordered by
    smallest member) before any cut, then again after every cut that
    splits a component, until no edge is left. Each cut takes the
    highest-betweenness edge; a scan over ascending edge ids with a strict
    ``1e-12`` margin resolves score ties to the lexicographically smallest
    pair. After a cut only the component that lost the edge is rescored,
    at the top of the next cut, so nothing is scored after the cut whose
    component list a caller reads last. A cut deletes the edge's entry
    from ``nbrs``, ``arcs`` and ``lens`` at both ends. ``trace`` (if
    given) collects the cut edges by name, in order.
    """
    n = len(ix.names)
    edges, nbrs, arcs, lens = _betweenness_graph(ix, weighted)
    comps = _components(range(n), nbrs)
    yield comps
    component_of: list[list[int]] = [[]] * n
    for comp in comps:
        for v in comp:
            component_of[v] = comp
    score = [0.0] * len(edges)
    arrays = _source_arrays(n)
    live = list(range(len(edges)))
    # The first cut scores every edge, each later one only the component
    # that lost the previous cut's edge.
    comp = range(n)
    while live:
        # Components are sorted, so sources run in the order a whole-graph
        # pass would visit them and each rescored edge gets the same float.
        _edge_betweenness(comp, nbrs, arcs, lens, score, arrays, weighted)
        best, best_score = -1, -1.0
        for e in live:
            sc = score[e]
            if sc > best_score + 1e-12:
                best, best_score = e, sc
        live.remove(best)
        a, b = edges[best]
        for u, v in ((a, b), (b, a)):
            k = nbrs[u].index(v)
            del nbrs[u][k], arcs[u][k], lens[u][k]
        if trace is not None:
            trace.append((ix.names[a], ix.names[b]))
        comp = component_of[a]
        parts = _components(comp, nbrs)
        if len(parts) > 1:
            comps = sorted([c for c in comps if c is not comp] + parts, key=lambda c: c[0])
            for part in parts:
                for v in part:
                    component_of[v] = part
            yield comps


def girvan_newman(
    graph: CallGraph, n_clusters: int, weighted: bool = False, trace: list | None = None
) -> PartitionSet:
    """Divisive clustering: cut the highest-betweenness edge until the graph
    splits into at least ``n_clusters`` components.

    Ties cut the lexicographically smallest edge. A graph that is already
    more fragmented than requested is returned as-is. ``trace`` (if given)
    collects the removed edges in order. The cuts are those of the single
    pass that ``enumerate_partition_sets`` runs, stopped at ``n_clusters``.
    """
    if not 1 <= n_clusters <= len(graph.vertices):
        raise CallGraphError(
            f"cluster count must be within 1..{len(graph.vertices)}, got {n_clusters}"
        )
    ix = _dense_index(graph)
    total = _modularity_total(graph)
    # Cutting every edge leaves one component per class, so this ends.
    comps = next(c for c in _divisive_pass(ix, weighted, trace) if len(c) >= n_clusters)
    return _partition_set(graph, ix.named(comps), ix, total)


def _modularity_total(graph: CallGraph) -> float:
    """W, the total edge weight that modularity and Louvain divide by.
    Every term they form is at most (2W)^2, so a W whose (2W)^2 overflows
    is refused here instead of turning into infinities and NaN."""
    total = graph.total_weight()
    w2 = 2.0 * total
    if not math.isfinite(w2 * w2):
        raise CallGraphError(
            f"total edge weight W = {total!r} is too large: modularity terms up to "
            "(2W)^2 overflow"
        )
    return total


def modularity(graph: CallGraph, clusters) -> float:
    """Weighted Newman modularity of a full partition of the vertices."""
    return _modularity(_dense_index(graph), clusters, _modularity_total(graph))


def _modularity(ix: _DenseIndex, clusters, total: float) -> float:
    id_of = ix.id_of
    assigned = [-1] * len(ix.names)
    for ci, cluster in enumerate(clusters):
        for v in cluster:
            i = id_of.get(v)
            if i is None:
                raise CallGraphError(f"partition references unknown class {v!r}")
            if assigned[i] >= 0:
                raise CallGraphError(f"class {v!r} appears in more than one cluster")
            assigned[i] = ci
    missing = [name for name, ci in zip(ix.names, assigned) if ci < 0]
    if missing:
        raise CallGraphError(f"partition does not cover class(es) {missing}")
    if total == 0.0:
        return 0.0
    nbrs, weights, degree = ix.nbrs, ix.weights, ix.degree
    q = 0.0
    for ci, cluster in enumerate(clusters):
        w_in = 0.0
        w_tot = 0.0
        for v in cluster:
            i = id_of[v]
            w_tot += degree[i]
            for u, w in zip(nbrs[i], weights[i]):
                if assigned[u] == ci and i < u:
                    w_in += w
        q += w_in / total - (w_tot / (2.0 * total)) ** 2
    return q


def louvain_optimal(graph: CallGraph) -> PartitionSet:
    """Greedy modularity maximization (two-phase, hierarchical).

    Local sweeps visit vertices in ascending order and accept a move only
    when it improves modularity by more than ``_MIN_GAIN``; community ties
    resolve to the lowest community id. Deterministic for a given graph.
    """
    n = len(graph.vertices)
    if n == 0:
        raise CallGraphError("cannot partition an empty graph")
    ix = _dense_index(graph)
    names = ix.names
    total = _modularity_total(graph)
    if total == 0.0:
        return _partition_set(graph, [[v] for v in names], ix, total)
    w2 = 2.0 * total

    # Index-space working copy; aggregation introduces self-loops.
    nbrs: list[list[tuple[int, float]]] = [
        sorted(zip(vs, ws)) for vs, ws in zip(ix.nbrs, ix.weights)
    ]
    self_w = [0.0] * n
    membership = list(range(n))  # original vertex -> current community label

    while True:
        size = len(nbrs)
        k = [2.0 * self_w[i] + _left_sum(w for _, w in nbrs[i]) for i in range(size)]
        comm = list(range(size))
        comm_tot = k[:]
        moved_any = False
        while True:
            moved = False
            for i in range(size):
                ci = comm[i]
                link: dict[int, float] = {}
                for j, w in nbrs[i]:
                    if j != i:
                        cj = comm[j]
                        link[cj] = link.get(cj, 0.0) + w
                comm_tot[ci] -= k[i]
                stay = link.get(ci, 0.0) - comm_tot[ci] * k[i] / w2
                best_c, best_g = ci, stay
                for c in sorted(link):
                    if c == ci:
                        continue
                    g = link[c] - comm_tot[c] * k[i] / w2
                    if g > best_g:
                        best_c, best_g = c, g
                if best_c != ci and (best_g - stay) / total > _MIN_GAIN:
                    comm[i] = best_c
                    comm_tot[best_c] += k[i]
                    moved = True
                    moved_any = True
                else:
                    comm_tot[ci] += k[i]
                    comm[i] = ci
            if not moved:
                break
        if not moved_any:
            break

        # Renumber surviving communities and collapse the graph onto them.
        labels = sorted(set(comm))
        relabel = {c: i for i, c in enumerate(labels)}
        membership = [relabel[comm[membership[v]]] for v in range(n)]
        new_size = len(labels)
        agg: list[dict[int, float]] = [{} for _ in range(new_size)]
        new_self = [0.0] * new_size
        for i in range(size):
            ci = relabel[comm[i]]
            new_self[ci] += self_w[i]
            # Each undirected edge appears in both adjacency lists; take it
            # once (from the lower-index side) when folding communities.
            for j, w in nbrs[i]:
                if i >= j:
                    continue
                cj = relabel[comm[j]]
                if ci == cj:
                    new_self[ci] += w
                else:
                    agg[ci][cj] = agg[ci].get(cj, 0.0) + w
                    agg[cj][ci] = agg[cj].get(ci, 0.0) + w
        nbrs = [sorted(d.items()) for d in agg]
        self_w = new_self
        if new_size == 1:
            break

    groups: dict[int, list[str]] = {}
    for v, c in zip(names, membership):
        groups.setdefault(c, []).append(v)
    clusters = sorted((sorted(g) for g in groups.values()), key=lambda c: c[0])
    return _partition_set(graph, clusters, ix, total)


def enumerate_partition_sets(
    graph: CallGraph, weighted: bool = False, *, natural: int | None = None
) -> list[PartitionSet]:
    """Candidate partitions for every N from 2 up to the natural cluster
    count found by modularity maximization (ascending N).

    One Girvan-Newman pass gives every set: the set for N is the first
    component list of at least N components, so N at or below the graph's
    own component count repeats the uncut graph. ``natural`` is the
    ``louvain_optimal`` cluster count for callers that have already
    computed it; without it Louvain runs here.
    """
    if natural is None:
        natural = louvain_optimal(graph).n_clusters
    upper = min(natural, len(graph.vertices))
    ix = _dense_index(graph)
    total = _modularity_total(graph)
    sets: list[PartitionSet] = []
    n = 2
    for comps in _divisive_pass(ix, weighted):
        while n <= min(len(comps), upper):
            # Sets share no lists, even where N repeats one component list.
            sets.append(_partition_set(graph, ix.named(comps), ix, total))
            n += 1
        if n > upper:
            break
    return sets


def offloadable_fraction(graph: CallGraph, pset: PartitionSet) -> float:
    """Percentage of classes sitting in clusters free of pinned members."""
    if not graph.vertices:
        raise CallGraphError("cannot compute a fraction of an empty graph")
    movable = sum(
        len(cluster)
        for cluster, ok in zip(pset.clusters, pset.offloadable)
        if ok
    )
    return 100.0 * movable / len(graph.vertices)


__all__ = [
    "PINNED_TAG",
    "CallGraph",
    "CallGraphError",
    "ClassNode",
    "MethodProfile",
    "PartitionSet",
    "TagRule",
    "apply_tag_rules",
    "build_call_graph",
    "edge_betweenness",
    "enumerate_partition_sets",
    "girvan_newman",
    "load_tag_rules",
    "louvain_optimal",
    "modularity",
    "offloadable_fraction",
]
