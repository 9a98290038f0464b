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
is the same float a rescoring of the whole graph would give.

All algorithms here are deterministic: vertex sweeps run in sorted name
order, betweenness ties remove the lexicographically smallest edge, and
cluster lists are ordered by their smallest member.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

#: Classes tagged with this (via rules or directly) must stay on the device.
PINNED_TAG = "pinned"


class CallGraphError(ValueError):
    """Raised for malformed call-graph input."""


def _non_negative(x: float) -> bool:
    """Finite and at least zero (False for NaN and the infinities)."""
    return math.isfinite(x) and x >= 0.0


def _positive(x: float) -> bool:
    """Finite and above zero (False for NaN and the infinities)."""
    return math.isfinite(x) and x > 0.0


def _left_sum(values) -> float:
    """Float sum added left to right from 0.0. The built-in sum() adds
    floats with compensation since Python 3.12, so its bits depend on the
    interpreter; this gives Python 3.11's sum() bits on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


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

    def degree_weight(self, name: str) -> float:
        return _left_sum(self.adj[name].values())


def _read_text(source, what: str, error: type[ValueError]) -> str:
    """Text input for every loader: a ``Path`` is a UTF-8 file to read, a
    ``str`` is the text itself. Anything else, or a file that cannot be
    read or decoded, raises ``error``."""
    if isinstance(source, Path):
        try:
            return source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise error(f"cannot read {what} {source}: {exc}") from exc
    if isinstance(source, str):
        return source
    raise error(f"{what} must be a Path or text, not {type(source).__name__}")


def _write_text(path, text: str) -> None:
    """Text output for every writer: UTF-8 with ``\\n`` line ends whatever
    the locale and platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_json(source, what: str, error: type[ValueError] = CallGraphError):
    """Parse JSON input read by ``_read_text``."""
    try:
        return json.loads(_read_text(source, what, error))
    except json.JSONDecodeError as exc:
        where = f" {source}" if isinstance(source, Path) else ""
        raise error(f"{what}{where} is not valid JSON: {exc}") from exc


def build_call_graph(source) -> CallGraph:
    """Load a call graph from a JSON file (``Path``), JSON text (``str``), or
    parsed dict.

    Input schema: ``vertices`` is a list of ``{name, tags, methods}`` where
    each method carries ``name, invocations, t_local_ms, in_bytes,
    out_bytes, energy_mj`` (and optional ``cpu_scale_hint``); ``edges`` is a
    list of ``{a, b, weight}``. Times and energies convert to seconds and
    joules internally.
    """
    data = source if isinstance(source, dict) else _load_json(source, "call graph")

    graph = CallGraph()
    try:
        vertices = data["vertices"]
        edges = data.get("edges", [])
    except (TypeError, KeyError) as exc:
        raise CallGraphError("call graph needs 'vertices' and 'edges' lists") from exc
    for v in vertices:
        try:
            methods = [
                MethodProfile(
                    name=m["name"],
                    invocations=float(m["invocations"]),
                    t_local_s=float(m["t_local_ms"]) / 1000.0,
                    in_bytes=float(m.get("in_bytes", 0.0)),
                    out_bytes=float(m.get("out_bytes", 0.0)),
                    energy_local_j=float(m.get("energy_mj", 0.0)) / 1000.0,
                    cpu_scale_hint=float(m.get("cpu_scale_hint", 1.0)),
                )
                for m in v.get("methods", [])
            ]
            graph.add_class(
                ClassNode(name=v["name"], tags=set(v.get("tags", [])), methods=methods)
            )
        except (TypeError, KeyError) as exc:
            raise CallGraphError(f"malformed vertex entry {v!r}: {exc}") from exc
    for e in edges:
        try:
            graph.add_call(e["a"], e["b"], float(e["weight"]))
        except (TypeError, KeyError) as exc:
            raise CallGraphError(f"malformed edge entry {e!r}: {exc}") from exc
    return graph


@dataclass(frozen=True)
class TagRule:
    """Apply ``tag`` to classes under ``prefix`` (dot-boundary match)."""

    prefix: str
    tag: str


def load_tag_rules(source) -> list[TagRule]:
    """Rules come as a JSON list of {prefix, tag} objects, read from a file
    (``Path``), parsed from JSON text (``str``), or given as a list."""
    if isinstance(source, (list, tuple)):
        entries = source
    else:
        entries = _load_json(source, "tag rules")
        if not isinstance(entries, list):
            raise CallGraphError("tag rules must be a JSON list")
    rules = []
    for e in entries:
        if isinstance(e, TagRule):
            rules.append(e)
            continue
        try:
            rules.append(TagRule(prefix=e["prefix"], tag=e["tag"]))
        except (TypeError, KeyError) as exc:
            raise CallGraphError(f"malformed tag rule {e!r}") from exc
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


def _components(names: list[str], adj: dict[str, dict[str, float]]) -> list[list[str]]:
    seen: set[str] = set()
    comps: list[list[str]] = []
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


def _edge_betweenness(
    names: list[str], adj: dict[str, dict[str, float]], weighted: bool
) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    for a in names:
        for b in adj[a]:
            if a < b:
                scores[(a, b)] = 0.0
    for s in names:
        sigma = {s: 1.0}
        preds: dict[str, list[str]] = {s: []}
        order: list[str] = []
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
            # Strong edges are short paths: length is the inverse weight.
            dist: dict[str, float] = {}
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
    # Every undirected pair was counted from both endpoints' trees.
    return {k: v / 2.0 for k, v in scores.items()}


def edge_betweenness(graph: CallGraph, weighted: bool = False) -> dict[tuple[str, str], float]:
    """Shortest-path edge betweenness (fraction-weighted over tie paths).

    Unweighted hop counting by default; ``weighted=True`` treats heavier
    edges as shorter (length 1/weight).
    """
    return _edge_betweenness(graph.names(), graph.adj, weighted)


@dataclass
class PartitionSet:
    """One clustering of the call graph into candidate offload units."""

    n_clusters: int
    clusters: list[list[str]]
    modularity: float
    offloadable: list[bool]


def _partition_set(
    graph: CallGraph, clusters: list[list[str]], total: float | None = None
) -> PartitionSet:
    """``total`` is ``graph.total_weight()`` when the caller has it already."""
    if total is None:
        total = graph.total_weight()
    offloadable = [
        all(PINNED_TAG not in graph.vertices[v].tags for v in cluster)
        for cluster in clusters
    ]
    return PartitionSet(
        n_clusters=len(clusters),
        clusters=clusters,
        modularity=_modularity(graph, clusters, total),
        offloadable=offloadable,
    )


def _divisive_pass(graph: CallGraph, weighted: bool, trace: list | None = None):
    """Girvan-Newman as one pass over a working copy of the graph.

    Yields the component list (each sorted, ordered by smallest member)
    before any cut, then again after every cut that splits a component,
    until no edge is left. Each cut takes the highest-betweenness edge;
    a sorted scan with a strict ``1e-12`` margin resolves score ties to the
    lexicographically smallest pair. After a cut only the component that
    lost the edge is rescored. ``trace`` (if given) collects the cut edges
    in order.
    """
    names = graph.names()
    work = {u: dict(vs) for u, vs in graph.adj.items()}
    comps = _components(names, work)
    yield comps
    component_of = {v: comp for comp in comps for v in comp}
    scores = _edge_betweenness(names, work, weighted)
    edges = sorted(scores)
    while edges:
        best_edge, best_score = None, -1.0
        for edge in edges:
            sc = scores[edge]
            if sc > best_score + 1e-12:
                best_edge, best_score = edge, sc
        a, b = best_edge
        del work[a][b]
        del work[b][a]
        edges.remove(best_edge)
        del scores[best_edge]
        if trace is not None:
            trace.append(best_edge)
        # Components are sorted, so sources run in the order a whole-graph
        # pass would visit them and each rescored edge gets the same float.
        comp = component_of[a]
        scores.update(_edge_betweenness(comp, work, weighted))
        parts = _components(comp, work)
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
    names = graph.names()
    if not 1 <= n_clusters <= len(names):
        raise CallGraphError(
            f"cluster count must be within 1..{len(names)}, got {n_clusters}"
        )
    # Cutting every edge leaves one component per class, so this ends.
    comps = next(c for c in _divisive_pass(graph, weighted, trace) if len(c) >= n_clusters)
    return _partition_set(graph, comps)


def modularity(graph: CallGraph, clusters) -> float:
    """Weighted Newman modularity of a full partition of the vertices."""
    return _modularity(graph, clusters, graph.total_weight())


def _modularity(graph: CallGraph, clusters, total: float) -> float:
    names = set(graph.vertices)
    assigned: dict[str, int] = {}
    for ci, cluster in enumerate(clusters):
        for v in cluster:
            if v not in names:
                raise CallGraphError(f"partition references unknown class {v!r}")
            if v in assigned:
                raise CallGraphError(f"class {v!r} appears in more than one cluster")
            assigned[v] = ci
    if len(assigned) != len(names):
        missing = sorted(names - assigned.keys())
        raise CallGraphError(f"partition does not cover class(es) {missing}")
    if total == 0.0:
        return 0.0
    q = 0.0
    for cluster in clusters:
        members = set(cluster)
        w_in = 0.0
        w_tot = 0.0
        for v in cluster:
            w_tot += graph.degree_weight(v)
            for u, w in graph.adj[v].items():
                if u in members and v < u:
                    w_in += w
        q += w_in / total - (w_tot / (2.0 * total)) ** 2
    return q


def louvain_optimal(graph: CallGraph, min_gain: float = 1e-12) -> PartitionSet:
    """Greedy modularity maximization (two-phase, hierarchical).

    Local sweeps visit vertices in ascending order and accept a move only
    when it improves modularity by more than ``min_gain``; community ties
    resolve to the lowest community id. Deterministic for a given graph.
    """
    names = graph.names()
    n = len(names)
    if n == 0:
        raise CallGraphError("cannot partition an empty graph")
    total = graph.total_weight()
    if total == 0.0:
        return _partition_set(graph, [[v] for v in names], total)
    w2 = 2.0 * total

    # Index-space working copy; aggregation introduces self-loops.
    nbrs: list[list[tuple[int, float]]] = []
    self_w = [0.0] * n
    index = {v: i for i, v in enumerate(names)}
    for v in names:
        nbrs.append(sorted((index[u], w) for u, w in graph.adj[v].items()))
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
                if best_c != ci and (best_g - stay) / total > min_gain:
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
    return _partition_set(graph, clusters, total)


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
    total = graph.total_weight()
    sets: list[PartitionSet] = []
    n = 2
    for comps in _divisive_pass(graph, weighted):
        while n <= min(len(comps), upper):
            # Sets share no lists, even where N repeats one component list.
            sets.append(_partition_set(graph, [list(c) for c in comps], total))
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
