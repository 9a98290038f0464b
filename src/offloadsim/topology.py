"""Network topology: nodes, links, and shortest-path routing to the server.

Topologies come from an edge-list text format or from seeded generators
(line, grid, tree, scale_free). Every topology has exactly one server node;
routing toward it uses link-delay shortest paths (ties resolved toward the
lowest node id so routes are reproducible). A next hop is always strictly
closer to the server by (delay, hops), so zero-delay links cannot make a
route loop.

Node roles:

* executor: runs the admission strategy and can execute requests,
* access point: executor where external requests may originate,
* relay access point / relay: never executes, forwards everything toward
  the server (models client devices and plain routers),
* server: the path sink; executes only when the scenario says so.

File format (delays in milliseconds, '#' starts a comment)::

    nodes 4 server 3
    0 2.0 1.0 2
    1 2.0 1.0 0
    2 2.0 1.0 0
    3 8.0 8.0 0
    0 1 1.0
    1 2 1.0
    2 3 1.0

Node lines are ``id cpu mem access_flag`` with flags 0 executor,
1 executor access point, 2 relay access point, 3 relay.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from heapq import heappop, heappush

from ._inputs import _invertible, _non_negative, _number, _read_text, _typed
from .emit import _write_text

FLAG_EXECUTOR = 0
FLAG_ACCESS_POINT = 1
FLAG_RELAY_ACCESS_POINT = 2
FLAG_RELAY = 3


class TopologyError(ValueError):
    """Raised for malformed or inconsistent topology descriptions."""


@dataclass(frozen=True)
class NodeSpec:
    """Static per-node attributes."""

    id: int
    cpu_capacity: float
    mem_capacity: float
    is_access_point: bool = False
    is_relay: bool = False

    def __post_init__(self):
        if not (_invertible(self.cpu_capacity) and _invertible(self.mem_capacity)):
            raise TopologyError(f"node {self.id}: capacity and 1/capacity must be finite and > 0")


class Topology:
    """Immutable-by-convention network graph in which every node reaches
    the server. Routes and the hop diameter are computed on first read and
    kept, so a run that reads neither pays for neither."""

    def __init__(self, nodes: list[NodeSpec], edges: list[tuple[int, int, float]], server_id: int):
        self.nodes: dict[int, NodeSpec] = {}
        for spec in sorted(nodes, key=lambda n: n.id):
            if spec.id in self.nodes:
                raise TopologyError(f"duplicate node id {spec.id}")
            self.nodes[spec.id] = spec
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        if server_id not in self.nodes:
            raise TopologyError(f"server id {server_id} is not a declared node")
        if self.nodes[server_id].is_relay:
            raise TopologyError(f"server node {server_id} cannot be a relay")
        self.server_id = server_id

        self.adj: dict[int, dict[int, float]] = {nid: {} for nid in self.nodes}
        adj = self.adj
        total = 0.0
        # Edges given as strictly increasing (u, v) pairs with u < v, as the
        # generators give them, fill every adjacency dict in neighbour-id
        # order: a node's lower neighbours all come before its higher ones.
        in_order = True
        last = ()  # below every pair
        for u, v, delay in edges:
            if u not in adj or v not in adj:
                missing = u if u not in adj else v
                raise TopologyError(f"edge ({u}, {v}) references unknown node {missing}")
            if u == v:
                raise TopologyError(f"self-loop on node {u}")
            if not _non_negative(delay):
                raise TopologyError(f"edge ({u}, {v}) needs a non-negative finite delay, got {delay}")
            nbrs = adj[u]
            if v in nbrs:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            nbrs[v] = delay
            adj[v][u] = delay
            total += delay
            if in_order:
                pair = (u, v)
                in_order = u < v and pair > last
                last = pair
        # Every shortest delay is a sum of distinct links, so a finite total
        # keeps every route delay finite.
        if not math.isfinite(total):
            raise TopologyError("total link delay is not finite: the link delays sum past the float range")
        if not in_order:
            for nid in adj:
                adj[nid] = dict(sorted(adj[nid].items()))

        # Connectivity by a plain BFS from the server.
        seen = {server_id}
        order = [server_id]
        for u in order:
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        if len(seen) < len(self.nodes):
            unreachable = sorted(n for n in self.nodes if n not in seen)
            raise TopologyError(f"node(s) {unreachable} cannot reach the server {server_id}")
        self._next_hop: dict[int, int | None] = {}
        self._hop_diameter: int | None = None

    def _route(self) -> None:
        # Dijkstra on (delay, hops): the delay part is the plain shortest
        # delay, and the hop count orders nodes that zero-delay links leave
        # at equal delay.
        dist = dict.fromkeys(self.nodes, math.inf)
        hops = dict.fromkeys(self.nodes, 0)
        dist[self.server_id] = 0.0
        heap = [(0.0, 0, self.server_id)]
        while heap:
            d, h, u = heappop(heap)
            if d > dist[u] or (d == dist[u] and h > hops[u]):
                continue
            h += 1
            for v, w in self.adj[u].items():
                dv = d + w
                if dv < dist[v] or (dv == dist[v] and h < hops[v]):
                    dist[v] = dv
                    hops[v] = h
                    heappush(heap, (dv, h, v))
        for nid in self.nodes:
            # Only neighbors strictly closer by (delay, hops) qualify, so
            # every route ends at the server.
            d, h = dist[nid], hops[nid]
            best: tuple[float, int] | None = None
            for nb, w in self.adj[nid].items():
                if dist[nb] < d or (dist[nb] == d and hops[nb] < h):
                    cand = (w + dist[nb], nb)
                    if best is None or cand < best:
                        best = cand
            self._next_hop[nid] = best[1] if best else None

    def next_hop_toward_server(self, node_id: int) -> int | None:
        """Neighbor on a delay-shortest path to the server; None at the server."""
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node {node_id}")
        if not self._next_hop:
            self._route()
        return self._next_hop[node_id]

    def edges(self) -> list[tuple[int, int, float]]:
        out = []
        for u in self.adj:
            for v, w in self.adj[u].items():
                if u < v:
                    out.append((u, v, w))
        return out

    def access_points(self) -> list[int]:
        return [nid for nid, n in self.nodes.items() if n.is_access_point]

    def hop_diameter(self) -> int:
        """Longest shortest path in hops (unit edge weights), by an exact
        all-sources bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013).

        Computed on first use and kept per topology. Only a default-TTL
        proactive run asks, and only once some request's hop count reaches
        2, the TTL's lower bound; ``none``, ``passive`` and loading never ask.
        """
        if self._hop_diameter is None:
            self._hop_diameter = _bit_parallel_diameter(self.adj)
        return self._hop_diameter

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Topology)
            and self.nodes == other.nodes
            and self.adj == other.adj
            and self.server_id == other.server_id
        )


def _bit_parallel_diameter(adj: dict[int, dict[int, float]]) -> int:
    """Exact hop diameter by an all-sources bit-parallel BFS, the trick of
    Akiba, Iwata & Yoshida, "Fast exact shortest-path distance queries on
    large networks by pruned landmark labeling" (SIGMOD 2013).

    Node i (by dense index) holds one Python int whose set bits are the
    nodes within k hops of it. Each level ORs in the neighbours' ints, so
    the BFSs from all sources advance one layer together, a machine word of
    sources per OR step. A node whose int stops changing has reached its
    eccentricity and never changes again, and the diameter is the number of
    levels in which some int grew.
    """
    index = {nid: i for i, nid in enumerate(adj)}
    nbrs = [[index[v] for v in adj[u]] for u in adj]
    reach = [1 << i for i in range(len(nbrs))]
    growing = range(len(nbrs))
    level = 0
    while True:
        nxt = reach[:]
        still = []
        for u in growing:
            r = old = reach[u]
            for v in nbrs[u]:
                r |= reach[v]
            if r != old:
                nxt[u] = r
                still.append(u)
        if not still:
            return level
        reach = nxt
        growing = still
        level += 1


#: Each access flag's role: (is access point, is relay).
_FLAG_ROLES = {
    FLAG_EXECUTOR: (False, False),
    FLAG_ACCESS_POINT: (True, False),
    FLAG_RELAY_ACCESS_POINT: (True, True),
    FLAG_RELAY: (False, True),
}
_ROLE_FLAGS = {role: flag for flag, role in _FLAG_ROLES.items()}


def _node_flag(spec: NodeSpec) -> int:
    return _ROLE_FLAGS[spec.is_access_point, spec.is_relay]


def _checked_spec(
    nid: int, cpu: float, mem: float, is_access_point: bool = False, is_relay: bool = False
) -> NodeSpec:
    """A ``NodeSpec`` of capacities that the caller has checked, built
    without running the capacity check a second time. It is frozen, and
    equal and hash-equal to the one ``NodeSpec(...)`` builds."""
    spec = object.__new__(NodeSpec)
    spec.__dict__.update(
        id=nid,
        cpu_capacity=cpu,
        mem_capacity=mem,
        is_access_point=is_access_point,
        is_relay=is_relay,
    )
    return spec


def _spec_from_flag(nid: int, cpu: float, mem: float, flag: int, line_no: int) -> NodeSpec:
    role = _FLAG_ROLES.get(flag)
    if role is None:
        raise TopologyError(f"line {line_no}: unknown access flag {flag}")
    return _checked_spec(nid, cpu, mem, *role)


def load_topology(source) -> Topology:
    """Parse the edge-list format from a file (``Path``) or its text (``str``).

    Raises TopologyError naming the offending line for malformed input, and
    for a file that cannot be read.
    """
    text = _read_text(source, "topology", TopologyError)

    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    if not lines:
        raise TopologyError("no nodes: empty topology description")

    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 4 or parts[0] != "nodes" or parts[2] != "server":
        raise TopologyError(f"line {head_no}: expected header 'nodes N server S', got {head!r}")
    try:
        n_nodes = int(parts[1])
        server_id = int(parts[3])
    except ValueError:
        raise TopologyError(f"line {head_no}: header counts must be integers") from None
    if n_nodes <= 0:
        raise TopologyError(f"line {head_no}: node count must be positive")
    if len(lines) - 1 < n_nodes:
        raise TopologyError(f"expected {n_nodes} node lines, found {len(lines) - 1}")

    nodes: list[NodeSpec] = []
    for line_no, body in lines[1 : 1 + n_nodes]:
        fields = body.split()
        if len(fields) != 4:
            raise TopologyError(
                f"line {line_no}: expected 'id cpu mem access_flag', got {body!r}"
            )
        try:
            nid = int(fields[0])
            cpu = float(fields[1])
            mem = float(fields[2])
            flag = int(fields[3])
        except ValueError:
            raise TopologyError(f"line {line_no}: malformed node fields in {body!r}") from None
        if not (_invertible(cpu) and _invertible(mem)):
            raise TopologyError(
                f"line {line_no}: node {nid} capacity and 1/capacity must be finite and > 0"
            )
        nodes.append(_spec_from_flag(nid, cpu, mem, flag, line_no))

    edges: list[tuple[int, int, float]] = []
    for line_no, body in lines[1 + n_nodes :]:
        fields = body.split()
        if len(fields) != 3:
            raise TopologyError(f"line {line_no}: expected 'u v delay_ms', got {body!r}")
        try:
            u = int(fields[0])
            v = int(fields[1])
            delay = float(fields[2])
        except ValueError:
            raise TopologyError(f"line {line_no}: malformed edge fields in {body!r}") from None
        if u == v:
            raise TopologyError(f"self-loop at line {line_no} (node {u})")
        if not _non_negative(delay):
            raise TopologyError(
                f"line {line_no}: delay on edge ({u}, {v}) must be non-negative and finite"
            )
        edges.append((u, v, delay))

    return Topology(nodes, edges, server_id)


def write_topology(topo: Topology, path) -> None:
    """Serialize in the edge-list format (round-trips through load_topology).

    Raises ``TopologyError``, naming the node, for an id that the format
    cannot carry: one whose type is not ``int`` (a ``bool`` is not), checked
    before the file is opened."""
    for nid in (*topo.nodes, topo.server_id):
        if type(nid) is not int:
            raise TopologyError(f"node {nid!r}: the edge-list format carries only int ids")
    out = [f"nodes {len(topo.nodes)} server {topo.server_id}"]
    for nid, spec in topo.nodes.items():
        out.append(
            f"{nid} {spec.cpu_capacity!r} {spec.mem_capacity!r} {_node_flag(spec)}"
        )
    for u, v, w in topo.edges():
        out.append(f"{u} {v} {w!r}")
    _write_text(path, "\n".join(out) + "\n")


def _integer(params: dict, key: str, default) -> int:
    """A count: an int (``_typed``) no larger than ``sys.maxsize``, so that
    ``range`` and list sizes can hold it."""
    value = _typed(params, key, default, (int,), "an integer", TopologyError)
    if value > sys.maxsize:
        raise TopologyError(f"{key} must be an integer no larger than {sys.maxsize}")
    return value

#: The most nodes ``generate_topology`` builds. A 10^6-node line already
#: takes seconds and hundreds of MiB to build, so a larger count is refused
#: from the parameters, before anything is built.
MAX_GENERATED_NODES = 10**6


def _check_size(nodes: int, params: str) -> None:
    if nodes > MAX_GENERATED_NODES:
        raise TopologyError(
            f"{params} gives more than MAX_GENERATED_NODES = {MAX_GENERATED_NODES} nodes"
        )


def _tree_size(b: int, d: int) -> int:
    """1 + b + ... + b^d, summed only until it passes the cap: ``b ** d``
    for a depth near ``sys.maxsize`` would not finish."""
    if b == 1:
        return d + 1
    size = level = 1
    for _ in range(d):
        level *= b
        size += level
        if size > MAX_GENERATED_NODES:
            break
    return size


#: The parameters ``generate_topology`` reads for each kind.
KIND_PARAMS = {
    kind: frozenset(("cpu", "mem", "delay_ms", *params))
    for kind, params in (
        ("line", ("n",)),
        ("grid", ("width", "height")),
        ("tree", ("branching", "depth")),
        ("scale_free", ("n", "m", "access_points")),
    )
}

#: The parameters ``generate_topology`` reads, over all kinds.
GENERATOR_PARAMS = frozenset().union(*KIND_PARAMS.values())


def _uniform_specs(params: dict) -> tuple[float, float, float]:
    cpu = _number(params, "cpu", 1.0, TopologyError)
    mem = _number(params, "mem", 1.0, TopologyError)
    delay = _number(params, "delay_ms", 1.0, TopologyError)
    if not (_invertible(cpu) and _invertible(mem)):
        raise TopologyError("generator capacity and 1/capacity must be finite and > 0")
    if not _non_negative(delay):
        raise TopologyError("generator delay must be non-negative and finite")
    return cpu, mem, delay


def _finalize(
    count: int,
    edges: list[tuple[int, int, float]],
    server: int,
    aps: set[int],
    cpu: float,
    mem: float,
) -> Topology:
    # Nodes 0 .. count - 1. _uniform_specs has checked the one capacity
    # pair that all nodes share.
    nodes = [_checked_spec(i, cpu, mem, i in aps) for i in range(count)]
    return Topology(nodes, edges, server)


def generate_topology(kind: str, params: dict | None = None, seed=0) -> Topology:
    """Deterministic topology families.

    * ``line``: n nodes in a chain; server at one end, access point at the
      other (a single node is both).
    * ``grid``: width x height lattice; server at corner (0, 0), access
      points on the remaining perimeter (only the far end when the grid is
      one node wide, as a line's).
    * ``tree``: complete b-ary tree of given depth, breadth-first ids;
      server is the highest-id leaf, other leaves are access points.
    * ``scale_free``: preferential-attachment graph; server is the highest
      degree node, access points default to the degree-one nodes (or the
      minimum-degree nodes when none exist). ``access_points`` in params
      caps how many are drawn (seeded sample).

    Counts must be ints no larger than ``sys.maxsize``, and ``cpu``,
    ``mem`` and ``delay_ms`` numbers within the float range (not bools or
    strings), or TopologyError is raised. So is a node count over
    ``MAX_GENERATED_NODES``, before anything is built.
    """
    params = dict(params or {})
    cpu, mem, delay = _uniform_specs(params)

    if kind == "line":
        n = _integer(params, "n", 0)
        if n < 1:
            raise TopologyError("line topology needs n >= 1")
        _check_size(n, f"line n = {n}")
        edges = [(i, i + 1, delay) for i in range(n - 1)]
        server = n - 1
        aps = {0}  # with n == 1 the lone server doubles as the access point
        return _finalize(n, edges, server, aps, cpu, mem)

    if kind == "grid":
        w = _integer(params, "width", 0)
        h = _integer(params, "height", 0)
        if w < 1 or h < 1 or w * h < 2:
            raise TopologyError("grid topology needs width*height >= 2")
        _check_size(w * h, f"grid width * height = {w} * {h}")
        edges = []
        for r in range(h):
            for c in range(w):
                nid = r * w + c
                if c + 1 < w:
                    edges.append((nid, nid + 1, delay))
                if r + 1 < h:
                    edges.append((nid, nid + w, delay))
        server = 0
        if w == 1 or h == 1:  # a line: its far end is the one leaf besides the server
            aps = {w * h - 1}
        else:
            aps = {
                r * w + c
                for r in range(h)
                for c in range(w)
                if (r in (0, h - 1) or c in (0, w - 1)) and r * w + c != server
            }
        return _finalize(w * h, edges, server, aps, cpu, mem)

    if kind == "tree":
        b = _integer(params, "branching", 0)
        d = _integer(params, "depth", -1)
        if b < 1 or d < 0:
            raise TopologyError("tree topology needs branching >= 1 and depth >= 0")
        _check_size(_tree_size(b, d), f"tree branching = {b}, depth = {d}")
        edges = []
        frontier = [0]
        next_id = 1
        for _ in range(d):
            new_frontier = []
            for parent in frontier:
                for _ in range(b):
                    edges.append((parent, next_id, delay))
                    new_frontier.append(next_id)
                    next_id += 1
            frontier = new_frontier
        server = next_id - 1  # deepest, highest-numbered leaf (max eccentricity)
        if d == 0:
            aps = {0}
        else:
            aps = set(frontier) - {server}
            if not aps:  # b == 1 chains have a single leaf; use the root end
                aps = {0}
        return _finalize(next_id, edges, server, aps, cpu, mem)

    if kind == "scale_free":
        n = _integer(params, "n", 0)
        m = _integer(params, "m", 2)
        if n < 2:
            raise TopologyError("scale_free topology needs n >= 2")
        _check_size(n, f"scale_free n = {n}")
        if m < 1 or m >= n:
            raise TopologyError("scale_free attachment m must satisfy 1 <= m < n")
        rng = random.Random(f"{seed}|topology")
        getrandbits = rng.getrandbits
        edges = []
        # Preferential attachment over a repeated-endpoint urn, seeded with a
        # small clique so early picks are well defined. A pick is
        # ``randrange(len(urn))`` inlined: ``getrandbits`` of the length's
        # bit length, redrawn until below the length.
        urn: list[int] = []
        seed_size = m + 1
        for u in range(seed_size):
            for v in range(u + 1, seed_size):
                edges.append((u, v, delay))
                urn.extend((u, v))
        for new in range(seed_size, n):
            size = len(urn)
            k = size.bit_length()
            targets: set[int] = set()
            while len(targets) < m:
                r = getrandbits(k)
                while r >= size:
                    r = getrandbits(k)
                targets.add(urn[r])
            for t in sorted(targets):
                edges.append((t, new, delay))
                urn.extend((t, new))
        edges.sort()
        # The urn holds each node once per incident edge.
        degree = [0] * n
        for u in urn:
            degree[u] += 1
        server = degree.index(max(degree))
        pool = sorted(i for i in range(n) if degree[i] == 1 and i != server)
        if not pool:
            min_deg = min(degree[i] for i in range(n) if i != server)
            pool = sorted(i for i in range(n) if degree[i] == min_deg and i != server)
        if "access_points" in params:
            want = _integer(params, "access_points", None)
            if want < 1 or want > len(pool):
                raise TopologyError(
                    f"requested {want} access points, eligible pool has {len(pool)}"
                )
            aps = set(rng.sample(pool, want))
        else:
            aps = set(pool)
        return _finalize(n, edges, server, aps, cpu, mem)

    raise TopologyError(f"unknown topology kind {kind!r}")


__all__ = [
    "FLAG_ACCESS_POINT",
    "FLAG_EXECUTOR",
    "FLAG_RELAY",
    "FLAG_RELAY_ACCESS_POINT",
    "GENERATOR_PARAMS",
    "KIND_PARAMS",
    "MAX_GENERATED_NODES",
    "NodeSpec",
    "Topology",
    "TopologyError",
    "generate_topology",
    "load_topology",
    "write_topology",
]
