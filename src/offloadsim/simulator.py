"""Discrete-event simulator for in-network request offloading.

Each node is a single-server FIFO queue whose head is the request in
service, held for an exponentially distributed service time; the others
wait their turn. The normalized load is (sum of cpu costs of requests in
system) divided by cpu capacity, and it changes at one site in the loop,
for admissions and completions alike. Every arrival is decided by
``decide_threshold`` with the node's limit and overflow, except at a
proactive executor: relays take a limit of -inf and their next hop as
overflow, the sink -inf and ``DROP``, and ``none`` and ``passive``
executors the capacity threshold. Set-up fixes only each node's limit and,
under proactive forwarding, its count of executor neighbours. The rest of
a node's rule is built at its first need: a relay's next hop at its first
arrival, a passive executor's at its first arrival at or above the
threshold, and a proactive executor's forward target or gossip view at its
first rejected request. So routes are computed only in a run that forwards,
and a node that never acts costs only its entries in per-node lists.
``proactive`` lives in the event loop itself, which holds that rule: one
estimator call per arrival records it and returns q, and a rejected
request goes to the node's only executor neighbour, or to the lightest in
its gossip view when it has two or more.
A decision is a plain int: ``EXECUTE`` (-1), ``DROP`` (-2), or otherwise the
dense index of the node to forward to, which may be 0, so the loop compares
against the two codes and never reads a target by its truth value. Service
starts at one site too, and its time is drawn as ``-log(1.0 - random()) /
rate``, the expression ``random.expovariate`` evaluates, so every draw comes
from ``random()`` alone.

Event ordering is a strict total order: time, then kind rank (completions
before arrivals before heartbeats before samples), then node id, then a
global sequence number. Simultaneous events therefore replay identically
for a given seed, and a scenario config plus seed fully determines every
metric byte. The next external arrival waits beside the event heap rather
than in it, and the loop takes whichever of the two sorts first.

Gossip deliveries are not events: completions and heartbeats publish on
``LoadFeed``s, one per link delay, that deliver a publication at p over a
link of delay d at p + d. A node forwarding at t sees exactly the
publications already made that land by t. So over a 0 ms link a completion
reaches arrivals at its own instant, and a heartbeat, which runs after
them, does not. ``lightest_load_neighbor`` holds the one staleness rule,
and its tie rule, that at equal publication times the heartbeat wins only
over a link that delivers at once, rests on the kind order: completions
run before heartbeats at one instant, so a heartbeat at a completion's
instant was published after it. Heartbeats run only when some node has two
or more executor neighbours to choose from. Every publisher that such a
node may read keeps a record from before its first publication: a feed
over the slowest link that reads it, first in the publisher's list of
feeds, which keeps only what that link can still deliver. A feed over a
faster link is derived from the record when a view first needs it and is
then shared, so a view built late reads what one built before the run
would have; deliveries are lazy, so a feed nobody reads changes nothing a
later read sees.

Metrics (collected over [warmup, horizon), then settled so every admitted
request finishes):

* tau: mean normalized load across executor nodes, from exact
  time-weighted integrals (independent of the sampling cadence),
* phi: mean end-to-end latency in ms of executed requests, counting twice
  the traversed link delay (request out, response back) plus queueing and
  execution at the serving node,
* psi: fraction of requests dropped.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import chain
from math import log
from pathlib import Path

from ._inputs import _left_sum, _load_json, _non_negative, _number, _objects, _positive
from ._inputs import _refuse_unknown, _typed
from .emit import _row_changes, _series_csv, _series_json, _write_text, json_text
from .topology import GENERATOR_PARAMS, KIND_PARAMS, NodeSpec, Topology, generate_topology
from .topology import load_topology
from .workload import (
    JitterSpec,
    ServiceSpec,
    _arrival_inputs,
    _iter_arrival_tuples,
    _segment_boundaries,
    _validate_jitters,
    new_estimator,
)

STRATEGIES = ("none", "passive", "proactive")

# Event kind ranks; lower processes first at equal timestamps. Every event
# is a 5-tuple ``(t, kind, node, seq, payload)``, so the loop unpacks each
# one the same way; heartbeats and samples have node -1 and payload None.
# ``_END`` ranks ``_SENTINEL`` at the bottom of the event heap, which sorts
# after every real event, a completion that overflows to inf among them.
# ``_NO_ARRIVAL`` stands in for the next external arrival once the stream
# is exhausted; it sorts after that sentinel, so it is never taken.
_COMPLETION = 0
_ARRIVAL = 1
_HEARTBEAT = 2
_SAMPLE = 3
_END = 4
_SENTINEL = (math.inf, _END, -1, -1, None)
_NO_ARRIVAL = (math.inf, _END + 1, -1, -1, None)

#: Decision codes. Any other decision is the dense index (>= 0) of the
#: node to forward to.
EXECUTE = -1
DROP = -2
# The overflow of a relay or passive executor until its first need builds
# it: neither ``EXECUTE``, ``DROP`` nor a node index.
_UNBUILT = -3


class ConfigError(ValueError):
    """Raised for invalid scenario configurations."""


#: The most sample rows, or heartbeats, that a scenario may plan:
#: ``horizon_s * 1000 / sample_interval_ms`` and, for a proactive run with
#: forwarding on, ``horizon_s * 1000 / gossip_period_ms``. The presets plan
#: at most 2,500 of each; the cap lies far below 2**53, past which
#: ``t + period == t`` and a periodic event would stop the clock.
MAX_PERIODIC_EVENTS = 10**8

#: The most external arrivals that a scenario may expect: the integral of
#: ``base_rate_per_s * load_multiplier`` over ``[0, horizon_s)``, each
#: jitter's multiplier applied over its window. The presets expect at most
#: 20,000; at a few hundred thousand arrivals a second, a run at the cap
#: takes minutes.
MAX_PLANNED_ARRIVALS = 10**8

# What each count of ``planned_work`` is, by the field that sets it, and
# its cap.
_PLAN_CAPS = {
    "sample_interval_ms": ("sample rows", MAX_PERIODIC_EVENTS),
    "gossip_period_ms": ("heartbeats", MAX_PERIODIC_EVENTS),
    "base_rate_per_s": ("external arrivals", MAX_PLANNED_ARRIVALS),
}


_OVERFLOW = "loads overflow, cpu capacities are too small for the service cpu costs"


@dataclass
class ScenarioConfig:
    """Fully resolved description of one simulation run."""

    topology: Topology
    services: list[ServiceSpec]
    base_rate_per_s: float
    horizon_s: float
    strategy: str = "none"
    load_multiplier: float = 1.0
    jitters: list[JitterSpec] = field(default_factory=list)
    buffer_size: int = 128
    ttl: int | None = None
    gossip_period_ms: float = 1.0
    capacity_threshold: float = 1.0
    warmup_s: float | None = None
    seed: int | str = 0
    sample_interval_ms: float = 1.0
    server_executes: bool = False
    proactive_forwarding: bool = True
    name: str = "custom"

    def resolved_warmup(self) -> float:
        return 0.1 * self.horizon_s if self.warmup_s is None else self.warmup_s

    def resolved_ttl(self) -> int:
        return 2 * self.topology.hop_diameter() if self.ttl is None else self.ttl

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r} (choose from {STRATEGIES})")
        for name in (
            "base_rate_per_s",
            "load_multiplier",
            "horizon_s",
            "gossip_period_ms",
            "capacity_threshold",
        ):
            if not _positive(getattr(self, name)):
                raise ConfigError(f"{name} must be positive and finite")
        w = self.resolved_warmup()
        if not 0.0 <= w < self.horizon_s:
            raise ConfigError("warmup must lie inside [0, horizon)")
        if isinstance(self.buffer_size, (int, float)) and self.buffer_size < 2:
            raise ConfigError("estimator buffer_size must be at least 2")
        if type(self.buffer_size) is not int:
            raise ConfigError(f"estimator buffer_size must be an integer, not {self.buffer_size!r}")
        if self.ttl is not None and self.ttl < 0:
            raise ConfigError("ttl must be non-negative")
        if not _non_negative(self.sample_interval_ms):
            raise ConfigError("sample_interval_ms must be non-negative and finite")
        # Overlapping jitter windows, a plan past a cap and every refusal of
        # the arrival stream's checks, in that order, raise a ConfigError. The
        # caps come first, so an overflowing rate is refused as a plan.
        try:
            for name, planned in planned_work(self).items():
                events, cap = _PLAN_CAPS[name]
                if planned > cap:
                    raise ValueError(
                        f"{name} {getattr(self, name)!r} plans {planned:.9g} {events} over"
                        f" horizon_s {self.horizon_s!r}, more than the cap of {cap:,}"
                    )
            rate = self.base_rate_per_s * self.load_multiplier
            aps = self.topology.access_points()
            _arrival_inputs(rate, self.horizon_s, self.jitters, self.services, aps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def planned_work(cfg: ScenarioConfig) -> dict[str, float]:
    """The work a scenario plans before any event runs, by the field that
    sets it: ``sample_interval_ms``, the sample rows; ``gossip_period_ms``,
    the heartbeats (none unless a proactive run forwards); and
    ``base_rate_per_s``, the expected external arrivals, the integral of
    ``base_rate_per_s * load_multiplier`` over the arrival stream's rate
    segments in ``[0, horizon_s)``. A count that overflows is inf; jitter
    windows that overlap raise ``ValueError``. ``horizon_s`` is taken as
    positive and finite, which ``validate`` checks before it plans.

    The sample rows planned are ``horizon_s * 1000 / sample_interval_ms``.
    A run also takes the row at t = 0, and samples while the summed periods
    stay within ``horizon_s + 1e-12``, so by rounding it may take more rows
    than this plan plus one."""
    horizon = cfg.horizon_s
    plan = {}
    for name, runs in (
        ("sample_interval_ms", True),
        ("gossip_period_ms", cfg.strategy == "proactive" and cfg.proactive_forwarding),
    ):
        period = getattr(cfg, name)
        plan[name] = horizon * 1000.0 / period if runs and period > 0.0 else 0.0
    # Each of the stream's rate segments lasts until the next one starts or
    # the horizon; the caps judge the rate.
    segs = _segment_boundaries(_validate_jitters(cfg.jitters), horizon)
    ends = [start for start, _ in segs[1:]] + [horizon]
    weighted = _left_sum(mult * (end - start) for (start, mult), end in zip(segs, ends))
    plan["base_rate_per_s"] = cfg.base_rate_per_s * cfg.load_multiplier * weighted
    return plan


_checked = partial(_typed, error=ConfigError)
_number = partial(_number, error=ConfigError)
_refuse_unknown = partial(_refuse_unknown, error=ConfigError)
_objects = partial(_objects, error=ConfigError)

# The keys docs/schemas/scenario.json declares for each object.
_SCENARIO_KEYS = frozenset(f.name for f in fields(ScenarioConfig))
_GENERATE_KEYS = frozenset(("kind", "seed"))
_SERVICE_KEYS = frozenset(("id", "mean_exec_time_s", "cpu_cost", "mem_cost", "popularity_weight"))
_JITTER_KEYS = frozenset(f.name for f in fields(JitterSpec))


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> ScenarioConfig:
    """Build a config from parsed JSON (see docs/schemas/scenario.json)."""
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    _refuse_unknown(data, _SCENARIO_KEYS, "the scenario")
    try:
        topo_spec = _checked(data, "topology", None, (dict,), "an object")
        _refuse_unknown(topo_spec, frozenset(("file", "generate")), "topology")
        if len(topo_spec) != 1:
            raise ConfigError("topology must specify exactly one of 'file' or 'generate'")
        if "file" in topo_spec:
            path = Path(_checked(topo_spec, "file", None, (str,), "a string"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            topo = load_topology(path)
        else:
            gen = dict(_checked(topo_spec, "generate", None, (dict,), "an object"))
            kind = _checked(gen, "kind", None, (str,), "a string")
            # A key that the kind does not read is refused, as a misspelt one is.
            params = KIND_PARAMS.get(kind, GENERATOR_PARAMS)
            _refuse_unknown(gen, _GENERATE_KEYS | params, "topology.generate")
            del gen["kind"]
            gen_seed = _checked(gen, "seed", 0, (int, str), "an integer or a string")
            gen.pop("seed", None)
            topo = generate_topology(kind, gen, seed=gen_seed)
        services = [
            ServiceSpec(
                name=_checked(s, "id", f"svc{i}", (str,), "a string"),
                mean_exec_time_s=_number(s, "mean_exec_time_s", None),
                cpu_cost=_number(s, "cpu_cost", 1.0),
                mem_cost=_number(s, "mem_cost", 0.0),
                popularity_weight=_number(s, "popularity_weight", 1.0),
            )
            for i, s in enumerate(_objects(data, "services", None, _SERVICE_KEYS))
        ]
        jitters = [
            JitterSpec(
                start_ms=_number(j, "start_ms", None),
                duration_ms=_number(j, "duration_ms", None),
                rate_multiplier=_number(j, "rate_multiplier", None),
            )
            for j in _objects(data, "jitters", [], _JITTER_KEYS)
        ]
        cfg = ScenarioConfig(
            topology=topo,
            services=services,
            base_rate_per_s=_number(data, "base_rate_per_s", None),
            horizon_s=_number(data, "horizon_s", None),
            strategy=data.get("strategy", "none"),
            load_multiplier=_number(data, "load_multiplier", 1.0),
            jitters=jitters,
            buffer_size=_checked(data, "buffer_size", 128, (int,), "an integer"),
            ttl=_checked(data, "ttl", None, (int, type(None)), "an integer or null"),
            gossip_period_ms=_number(data, "gossip_period_ms", 1.0),
            capacity_threshold=_number(data, "capacity_threshold", 1.0),
            warmup_s=None if data.get("warmup_s") is None else _number(data, "warmup_s", None),
            seed=_checked(data, "seed", 0, (int, str), "an integer or a string"),
            sample_interval_ms=_number(data, "sample_interval_ms", 1.0),
            server_executes=_checked(data, "server_executes", False, (bool,), "a boolean"),
            proactive_forwarding=_checked(data, "proactive_forwarding", True, (bool,), "a boolean"),
            name=_checked(data, "name", "custom", (str,), "a string"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc
    cfg.validate()
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Scenario config from a JSON file; a topology file it names resolves
    against the config's directory."""
    path = Path(path)
    data = _load_json(path, "scenario config", dict, ConfigError)
    return scenario_from_dict(data, base_dir=path.parent)


@dataclass
class RunMetrics:
    """Everything measured by one run (counts are post-warmup unless gross).

    Rows of ``sample_loads`` are read-only: consecutive rows between which
    no load changed are the same list object, and in consecutive distinct
    rows an entry that no event rewrote is the same float object. The
    series emitters re-render only the entries whose object changed, found
    by one scan that the CSV and JSON files share.
    """

    strategy: str
    seed: int | str
    tau: float
    phi_ms: float
    psi: float
    total_arrivals: int
    executed: int
    forwarded: int
    dropped: int
    per_node_mean_load: dict[int, float]
    per_node_executed: dict[int, int]
    gross_arrivals: int
    gross_executed: int
    gross_dropped: int
    sample_node_ids: list[int]
    sample_times_ms: list[float]
    sample_loads: list[list[float]]


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


def run_scenario(cfg: ScenarioConfig) -> RunMetrics:
    """Execute one scenario to settlement and return its metrics.

    Raises ``ConfigError`` when tau, phi, psi, a per-node mean load or a
    series load is not finite, as when a tiny cpu capacity (say 3e-308,
    whose reciprocal is finite) lets a few queued requests overflow the
    load. The run is checked after the loop, once per distinct sample row,
    rather than held to a capacity floor: how far a load climbs depends on
    how many requests queue, which no bound fixed before the run knows, so
    any floor would refuse runs that stay finite or pass ones that do not.
    """
    cfg.validate()
    topo = cfg.topology
    strategy = cfg.strategy
    horizon = cfg.horizon_s
    warmup = cfg.resolved_warmup()
    proactive = strategy == "proactive"
    # Only proactive forwarding spends TTL. A request counts the hops it has
    # taken and its TTL is spent once that count reaches ``ttl``. An explicit
    # TTL is exact from the start. The default, twice the hop diameter,
    # starts at a lower bound of it: 2, since a connected topology of two or
    # more nodes has a diameter of at least 1, or 0 for a single node. Only
    # a request whose count reaches the bound has ``resolve_ttl`` compute the
    # diameter, so a run in which none does never computes it.
    ttl_exact = cfg.ttl is not None
    ttl = cfg.ttl if ttl_exact else (2 if len(topo.nodes) > 1 else 0)

    def resolve_ttl() -> int:
        nonlocal ttl_exact
        ttl_exact = True
        return cfg.resolved_ttl()

    server_executes = cfg.server_executes
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

    svc_rate = [1.0 / s.mean_exec_time_s for s in cfg.services]
    svc_cpu = [s.cpu_cost for s in cfg.services]
    svc_mem = [s.mem_cost for s in cfg.services]

    aps = sorted(idx_of[a] for a in topo.access_points())

    # The live normalized loads, load_num[i] * inv_cap[i], rewritten where
    # load_num changes. ``changed`` marks a change since ``snap``, the last
    # copy handed to heartbeats and samples; while it is unset they share it.
    loads = [0.0] * n
    snap = [0.0] * n
    changed = False

    # Estimators are built at an executor's first proactive arrival, with
    # its capacities, and return its q from ``record_arrival``.
    estimators = [None] * n
    buffer_size = cfg.buffer_size

    # What each node does. Every arrival but a proactive executor's, and
    # that one's two fallbacks, is decided by ``decide_threshold(loads[i],
    # limit[i], overflow[i])``. ``limit`` is the threshold for an executor
    # and -inf for relays and the sink, which never execute. ``overflow`` is
    # DROP for the sink and for ``none`` and proactive executors. A relay's
    # overflow is its next hop; a passive executor's is its next hop too,
    # but DROP before a server that does not execute. Both are built at the
    # node's first need, so until then they are ``_UNBUILT``. Set-up fixes only these, and under proactive
    # forwarding ``choices``, each executor's count of executor neighbours;
    # ``build`` fixes the rest of a node's rule when it first needs it.
    limit = [-math.inf] * n
    overflow = [DROP] * n
    for i in range(n):
        if executor[i]:
            limit[i] = threshold
        if (is_relay[i] or strategy == "passive") and i != server:
            overflow[i] = _UNBUILT
    # ``delay[i]`` holds link delays in seconds by dense index over the
    # links node i forwards over: a relay's or passive node's next hop, or a
    # proactive executor's links to executor neighbours. Where a proactive
    # executor forwards a rejected request: ``target[i]`` is its only
    # executor neighbour, or DROP without forwarding, else ``views[i]`` is
    # its ``gossip_view`` when it has two or more; with none both stay None.
    delay: list[dict[int, float] | None] = [None] * n
    target: list[int | None] = [DROP if proactive and not cfg.proactive_forwarding else None] * n
    views: list[list[tuple] | None] = [None] * n
    # Gossip feeds, read only by views. ``feeds[j]`` lists what executor j's
    # completions publish on, and ``beats`` what heartbeats publish on, each
    # headed by a record opened before the first publication: heartbeats'
    # at set-up, over the slowest link of the topology and starting from
    # ``snap``; j's at its first arrival or when a view first reads it, and
    # only if a neighbour with a choice may read it, over the slowest such
    # link. Heartbeats run only when some node has a choice.
    feeds: list = [()] * n
    beats: list[LoadFeed] = []
    choices = [0] * n
    if proactive and cfg.proactive_forwarding:
        # Degrees less non-executor neighbours; ``adj`` lists nodes in id order.
        choices = list(map(len, topo.adj.values()))
        others = [k for k in range(n) if not executor[k]]
        for k in others:
            for m in topo.adj[ids[k]]:
                choices[idx_of[m]] -= 1
        for k in others:
            choices[k] = 0
        if max(choices) >= 2:
            slowest = max(chain.from_iterable(map(dict.values, topo.adj.values())))
            beats.append(LoadFeed(slowest / 1000.0, snap))

    def open_record(j: int) -> None:
        # Unless no neighbour with a choice can read j.
        slowest = max(
            (d_ms for m, d_ms in topo.adj[ids[j]].items() if choices[idx_of[m]] >= 2),
            default=None,
        )
        if slowest is not None:
            feeds[j] = [LoadFeed(slowest / 1000.0)]

    def build(i: int, t: float) -> int:
        # Node i's forwarding, at its first need at t: a relay's first
        # arrival, a passive executor's first at or above the threshold, or
        # a proactive executor's first rejected request. Returns where that
        # request goes.
        nid = ids[i]
        if not (proactive and executor[i]):
            nh = topo.next_hop_toward_server(nid)
            j = idx_of[nh]
            delay[i] = {j: topo.adj[nid][nh] / 1000.0}
            dec = overflow[i] = j if is_relay[i] or j != server or server_executes else DROP
            return dec
        links = delay[i] = {
            idx_of[m]: d_ms / 1000.0 for m, d_ms in topo.adj[nid].items() if executor[idx_of[m]]
        }
        if len(links) == 1:
            (dec,) = links
            target[i] = dec
            return dec
        for j in links:
            if not feeds[j]:
                open_record(j)
        view = views[i] = gossip_view(links, feeds, beats)
        return lightest_load_neighbor(view, t)

    rng = random.Random(f"{cfg.seed}|sim")
    rng_random = rng.random

    arrivals = _iter_arrival_tuples(
        cfg.base_rate_per_s * cfg.load_multiplier,
        horizon,
        cfg.seed,
        cfg.jitters,
        cfg.services,
        aps,
    )

    # Each node's FIFO queue. Its head is the request in service.
    queue = [deque() for _ in range(n)]
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

    # The external arrival stream comes in time order, so its next arrival
    # waits beside the heap as ``ext``, an event in heap-key form, and each
    # turn takes whichever of it and the heap's least event sorts first.
    # Every key carries a unique ``seq``, so this is the order one heap
    # holding both would pop. The heap's sentinel ends the loop.
    heap: list[tuple] = [_SENTINEL]
    seq = 0

    nxt = next(arrivals, None)
    if nxt is None:
        ext = _NO_ARRIVAL
    else:
        ext = (nxt[0], _ARRIVAL, nxt[2], seq, None)
        seq += 1
    if beats:
        hb_dt = cfg.gossip_period_ms / 1000.0
        if hb_dt < horizon:
            heap.append((hb_dt, _HEARTBEAT, -1, seq, None))
            seq += 1
    if sample_dt > 0.0:
        heap.append((0.0, _SAMPLE, -1, seq, None))
        seq += 1
    heapify(heap)

    # Request payload layout: [service, hops, acc_delay_s, counted,
    # t_admitted], where hops counts proactive forwards taken. Mutated in
    # place across hops.

    while True:
        # The payload is an arrival's request, None for an external one, or
        # a completion's service time.
        t, kind, i, _, req = heappop(heap) if heap[0] < ext else ext

        if kind == _ARRIVAL:
            if req is None:
                # External origination; the next one waits beside the heap.
                req = [nxt[1], 0, 0.0, t >= warmup, 0.0]
                gross_arrivals += 1
                if req[3]:
                    counted_total += 1
                nxt = next(arrivals, None)
                if nxt is None:
                    ext = _NO_ARRIVAL
                else:
                    ext = (nxt[0], _ARRIVAL, nxt[2], seq, None)
                    seq += 1

            by_q = proactive and executor[i]
            if by_q:
                # Admit with probability q. One draw per arrival, even
                # when the TTL is spent, so the stream never shifts. A
                # count at the default TTL's lower bound resolves the
                # exact TTL and is tested against it.
                est = estimators[i]
                if est is None:
                    est = estimators[i] = new_estimator(buffer_size, cpu_cap[i], mem_cap[i])
                    if beats and not feeds[i]:
                        open_record(i)
                q = est.record_arrival(t)
                u = rng_random()
                if req[1] >= ttl and (ttl_exact or req[1] >= (ttl := resolve_ttl())):
                    dec = decide_threshold(loads[i], limit[i], overflow[i])
                elif u < q:
                    dec = EXECUTE
                else:
                    dec = target[i]
                    if dec is None:
                        view = views[i]
                        if view is None:
                            # The first rejection builds the target or
                            # view of a node with executor neighbours.
                            if choices[i]:
                                dec = build(i, t)
                            else:
                                dec = decide_threshold(loads[i], limit[i], overflow[i])
                        else:
                            dec = lightest_load_neighbor(view, t)
            else:
                # Relays forward, the sink drops, and none and passive
                # executors take the threshold rule.
                dec = decide_threshold(loads[i], limit[i], overflow[i])

            if dec == EXECUTE:
                # Admission: the request joins the tail of the queue.
                req[4] = t
                fifo = queue[i]
                fifo.append(req)
                cost = svc_cpu[req[0]]
            elif dec == DROP or (dec == _UNBUILT and (dec := build(i, t)) == DROP):
                # A relay or passive node builds its overflow at its first
                # need; a passive node before a server that does not
                # execute drops.
                gross_dropped += 1
                if req[3]:
                    counted_drop += 1
                continue
            else:
                # One forward path for relays and strategies alike.
                if by_q:
                    req[1] += 1
                d = delay[i][dec]
                req[2] += d
                if req[3]:
                    counted_fwd += 1
                heappush(heap, (t + d, _ARRIVAL, dec, seq, req))
                seq += 1
                continue

        elif kind == _COMPLETION:
            # The head of the queue leaves service, after ``dur``.
            dur = req
            fifo = queue[i]
            req = fifo.popleft()
            cost = -svc_cpu[req[0]]
            gross_executed += 1
            if req[3]:
                counted_exec += 1
                pne[i] += 1
                lat_sum += (t - req[4]) + 2.0 * req[2]

        elif kind == _END:
            # The heap's sentinel: every event has run.
            break

        else:
            # A heartbeat or a sample: both read the loads as of ``snap``.
            if changed:
                snap = loads.copy()
                changed = False
            if kind == _HEARTBEAT:
                for feed in beats:
                    feed.publish(t, snap)
                t_next = t + hb_dt
                if t_next < horizon:
                    heappush(heap, (t_next, _HEARTBEAT, -1, seq, None))
                    seq += 1
            else:
                sample_times.append(t * 1000.0)
                sample_rows.append(snap)
                t_next = t + sample_dt
                if t_next <= horizon + 1e-12:
                    heappush(heap, (t_next, _SAMPLE, -1, seq, None))
                    seq += 1
            continue

        # The one site where a node's load changes: an admission adds the
        # request's cpu cost and a completion adds its negation, which is
        # bit for bit the subtraction. The integral runs up to t first.
        lt = last_t[i]
        if lt < horizon:
            hi = t if t < horizon else horizon
            lo = lt if lt > warmup else warmup
            if hi > lo:
                acc[i] += loads[i] * (hi - lo)
        last_t[i] = t
        load_num[i] += cost
        loads[i] = load_num[i] * inv_cap[i]
        changed = True
        if kind == _COMPLETION:
            # Only proactive runs keep estimators.
            est = estimators[i]
            if est is not None:
                est.record_completion(dur, svc_cpu[req[0]], svc_mem[req[0]])
                load = loads[i]
                for feed in feeds[i]:
                    feed.publish(t, load)
            if not fifo:
                continue
        elif len(fifo) > 1:
            # The admitted request waits behind the one in service.
            continue
        # The one site where service starts: the new head of the queue.
        dur = -log(1.0 - rng_random()) / svc_rate[fifo[0][0]]
        heappush(heap, (t + dur, _COMPLETION, i, seq, dur))
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
                acc[i] += loads[i] * (horizon - lo)

    exec_nodes = [i for i in range(n) if executor[i]]
    tau = (
        _left_sum(acc[i] for i in exec_nodes) / (len(exec_nodes) * span) if exec_nodes else 0.0
    )
    phi_ms = (lat_sum / counted_exec) * 1000.0 if counted_exec else 0.0
    psi = counted_drop / counted_total if counted_total else 0.0
    mean_load = [a / span for a in acc]
    for name, value in (("tau", tau), ("phi", phi_ms), ("psi", psi)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} is not finite ({value!r}): {_OVERFLOW}")
    if not all(map(math.isfinite, mean_load)):
        raise ConfigError(f"a per-node mean load is not finite: {_OVERFLOW}")
    prev = None
    for row in sample_rows:
        # A finite sum needs every load finite; only a non-finite one is
        # told from an overflowing sum of finite loads.
        if row is not prev and not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ConfigError(f"a series load is not finite: {_OVERFLOW}")
        prev = row

    return RunMetrics(
        strategy=strategy,
        seed=cfg.seed,
        tau=tau,
        phi_ms=phi_ms,
        psi=psi,
        total_arrivals=counted_total,
        executed=counted_exec,
        forwarded=counted_fwd,
        dropped=counted_drop,
        per_node_mean_load=dict(zip(ids, mean_load)),
        per_node_executed={ids[i]: pne[i] for i in range(n)},
        gross_arrivals=gross_arrivals,
        gross_executed=gross_executed,
        gross_dropped=gross_dropped,
        sample_node_ids=list(ids),
        sample_times_ms=sample_times,
        sample_loads=sample_rows,
    )


def run_batch(cfg: ScenarioConfig, seeds) -> list[RunMetrics]:
    """One run per seed, identical configuration otherwise."""
    return [run_scenario(replace(cfg, seed=s)) for s in seeds]


def aggregate_metrics(runs: list[RunMetrics]) -> dict:
    """Mean and sample standard deviation of the headline metrics."""
    if not runs:
        raise ValueError("no runs to aggregate")

    def stats(values: list[float]) -> dict:
        return {
            "mean": statistics.fmean(values),
            "std": statistics.stdev(values) if len(values) > 1 else 0.0,
        }

    return {
        "runs": len(runs),
        "tau": stats([r.tau for r in runs]),
        "phi_ms": stats([r.phi_ms for r in runs]),
        "psi": stats([r.psi for r in runs]),
    }


# The scalar fields of a run summary, in the order both formats write them.
_SUMMARY_FIELDS = (
    "strategy", "seed", "tau", "phi_ms", "psi", "total_arrivals",
    "executed", "forwarded", "dropped", "gross_arrivals",
    "gross_executed", "gross_dropped",
)


def _summary_dict(m: RunMetrics) -> dict:
    return {
        **{k: getattr(m, k) for k in _SUMMARY_FIELDS},
        "per_node_mean_load": {str(k): v for k, v in m.per_node_mean_load.items()},
        "per_node_executed": {str(k): v for k, v in m.per_node_executed.items()},
    }


def export_metrics(metrics: RunMetrics, fmt: str, dest_dir, prefix: str = "run") -> list[Path]:
    """Write <prefix>_summary and <prefix>_series files in ``fmt``: "csv",
    "json", or "both" (the CSV files, then the JSON files, from one scan of
    the rows for changed loads); returns the paths.

    Output is byte-stable: repeated exports of the same run match exactly.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"unknown export format {fmt!r} (use 'csv', 'json' or 'both')")
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    changes = _row_changes(metrics.sample_loads)
    paths = []
    for ext in ("csv", "json") if fmt == "both" else (fmt,):
        summary_path = dest / f"{prefix}_summary.{ext}"
        series_path = dest / f"{prefix}_series.{ext}"
        if ext == "json":
            _write_text(summary_path, json_text(_summary_dict(metrics)))
            _write_text(series_path, _series_json(metrics, changes))
        else:
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(_SUMMARY_FIELDS)
            values = [getattr(metrics, k) for k in _SUMMARY_FIELDS]
            w.writerow([repr(v) if isinstance(v, float) else v for v in values])
            _write_text(summary_path, buf.getvalue())
            _write_text(series_path, _series_csv(metrics, changes))
        paths += [summary_path, series_path]
    return paths


def export_batch(runs: list[RunMetrics], dest_dir, prefix: str = "batch") -> Path:
    """Aggregate summary for a seed sweep (JSON only)."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    payload = {
        "aggregate": aggregate_metrics(runs),
        "per_seed": [_summary_dict(r) for r in runs],
    }
    out = dest / f"{prefix}_summary.json"
    _write_text(out, json_text(payload))
    return out


def preset_fig3(strategy: str = "proactive") -> ScenarioConfig:
    """Jitter-response scenario: a client chain with two identical rate
    surges, sized so the first surge hits cold estimators and the second
    one hits warm ones."""
    nodes = [
        NodeSpec(id=0, cpu_capacity=5.0, mem_capacity=4.0, is_access_point=True, is_relay=True),
        NodeSpec(id=1, cpu_capacity=5.0, mem_capacity=4.0),
        NodeSpec(id=2, cpu_capacity=5.0, mem_capacity=4.0),
        NodeSpec(id=3, cpu_capacity=8.0, mem_capacity=8.0),
    ]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    topo = Topology(nodes, edges, server_id=3)
    return ScenarioConfig(
        name="fig3",
        topology=topo,
        services=[ServiceSpec(name="render", mean_exec_time_s=0.00075, cpu_cost=1.0)],
        base_rate_per_s=1000.0,
        horizon_s=0.150,
        strategy=strategy,
        jitters=[
            JitterSpec(start_ms=40.0, duration_ms=10.0, rate_multiplier=6.0),
            JitterSpec(start_ms=70.0, duration_ms=10.0, rate_multiplier=6.0),
        ],
        buffer_size=64,
        ttl=6,
        gossip_period_ms=1.0,
        capacity_threshold=1.0,
        warmup_s=0.0,
        seed=0,
        sample_interval_ms=1.0,
    )


def preset_overload_line(strategy: str = "proactive") -> ScenarioConfig:
    """Sustained overload on a four-node chain (access point feeds toward
    the sink server); offered load sits just under the proactive capacity."""
    topo = generate_topology("line", {"n": 4, "cpu": 3.0, "mem": 4.0})
    return ScenarioConfig(
        name="overload-line",
        topology=topo,
        services=[ServiceSpec(name="task", mean_exec_time_s=0.00026, cpu_cost=1.0)],
        base_rate_per_s=1000.0,
        load_multiplier=8.0,
        horizon_s=2.5,
        warmup_s=0.5,
        strategy=strategy,
        buffer_size=128,
        ttl=10,
        gossip_period_ms=1.0,
        capacity_threshold=1.0,
        seed=0,
        sample_interval_ms=0.0,
    )


def preset_overload_grid(strategy: str = "proactive") -> ScenarioConfig:
    """Sustained overload on a 5x5 lattice; arrivals enter at the perimeter
    and the corner server only routes."""
    topo = generate_topology("grid", {"width": 5, "height": 5, "cpu": 3.0, "mem": 4.0})
    return ScenarioConfig(
        name="overload-grid",
        topology=topo,
        services=[ServiceSpec(name="task", mean_exec_time_s=0.002, cpu_cost=1.0)],
        base_rate_per_s=1000.0,
        load_multiplier=8.0,
        horizon_s=2.5,
        warmup_s=0.5,
        strategy=strategy,
        buffer_size=128,
        ttl=16,
        gossip_period_ms=1.0,
        capacity_threshold=1.0,
        seed=0,
        sample_interval_ms=0.0,
    )


PRESETS = {
    "fig3": preset_fig3,
    "overload-line": preset_overload_line,
    "overload-grid": preset_overload_grid,
}


__all__ = [
    "PRESETS",
    "STRATEGIES",
    "ConfigError",
    "RunMetrics",
    "ScenarioConfig",
    "aggregate_metrics",
    "export_batch",
    "export_metrics",
    "load_scenario",
    "preset_fig3",
    "preset_overload_grid",
    "preset_overload_line",
    "run_batch",
    "run_scenario",
    "scenario_from_dict",
]
