"""Discrete-event simulator for in-network request offloading.

Each node is a single-server FIFO queue: admitted requests wait their turn
and hold the node for an exponentially distributed service time, so the
instantaneous normalized load is (sum of cpu costs of requests in system)
divided by cpu capacity. Strategies decide per arrival whether to execute,
drop, or forward (see ``control``): ``none`` and ``passive`` through
``decide_threshold``, ``proactive`` in the event loop itself, which holds
that rule: one estimator call per arrival records it and returns q, and a
rejected request goes to the node's only executor neighbour, or to the
lightest in its gossip view when it has two or more. A decision is a plain
int, ``EXECUTE``, ``DROP`` or the dense index of the node to forward to.
Service times are drawn as ``-log(1.0 - random()) / rate``, the expression
``random.expovariate`` evaluates, so every draw comes from ``random()``
alone.

Event ordering is a strict total order: time, then kind rank (completions
before arrivals before heartbeats before samples), then node id, then a
global sequence number. Simultaneous events therefore replay identically
for a given seed, and a scenario config plus seed fully determines every
metric byte. The next external arrival waits beside the event heap rather
than in it, and the loop takes whichever of the two sorts first.

Gossip deliveries are not events: completions and heartbeats publish on
feeds that deliver a publication at p over a link of delay d at p + d (see
``control``). A node forwarding at t sees exactly the publications already
made that land by t. So over a 0 ms link a completion reaches arrivals at
its own instant, and a heartbeat, which runs after them, does not. Feeds
exist only for views with two or more candidates, and heartbeats run only
when some feed does; deliveries are lazy, so a feed nobody reads changes
nothing a later read sees.

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
import json
import math
import operator
import random
import statistics
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress
from json.encoder import encode_basestring_ascii
from math import log
from pathlib import Path

from .control import (
    DROP,
    EXECUTE,
    LoadFeed,
    decide_threshold,
    lightest_load_neighbor,
    passive_overflow,
)
from .partition import _left_sum, _load_json, _non_negative, _positive, _write_text
from .partition import _number, _objects, _refuse_unknown, _typed
from .topology import GENERATOR_PARAMS, NodeSpec, Topology, generate_topology, load_topology
from .workload import (
    JitterSpec,
    ServiceSpec,
    _iter_arrival_tuples,
    _validate_jitters,
    new_estimator,
)

STRATEGIES = ("none", "passive", "proactive")

# Event kind ranks; lower processes first at equal timestamps. ``_END``
# ranks the sentinel ``(inf, _END)`` at the bottom of the event heap, which
# sorts after every real event, a completion that overflows to inf among
# them. ``_NO_ARRIVAL`` stands in for the next external arrival once the
# stream is exhausted; it sorts after that sentinel, so it is never taken.
_COMPLETION = 0
_ARRIVAL = 1
_HEARTBEAT = 2
_SAMPLE = 3
_END = 4
_NO_ARRIVAL = (math.inf, _END + 1)


class ConfigError(ValueError):
    """Raised for invalid scenario configurations."""


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
        if not self.services:
            raise ConfigError("at least one service must be defined")
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
        if self.buffer_size < 2:
            raise ConfigError("estimator buffer_size must be at least 2")
        if self.ttl is not None and self.ttl < 0:
            raise ConfigError("ttl must be non-negative")
        if not _non_negative(self.sample_interval_ms):
            raise ConfigError("sample_interval_ms must be non-negative and finite")
        try:
            _validate_jitters(self.jitters)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.topology.access_points():
            raise ConfigError("topology declares no access points, nothing can arrive")


_checked = partial(_typed, error=ConfigError)
_number = partial(_number, error=ConfigError)
_refuse_unknown = partial(_refuse_unknown, error=ConfigError)
_objects = partial(_objects, error=ConfigError)

# The keys docs/schemas/scenario.json declares for each object.
_SCENARIO_KEYS = frozenset(f.name for f in fields(ScenarioConfig))
_GENERATE_KEYS = frozenset(("kind", "seed")) | GENERATOR_PARAMS
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
            _refuse_unknown(gen, _GENERATE_KEYS, "topology.generate")
            kind = _checked(gen, "kind", None, (str,), "a string")
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
    # Link delays in seconds by dense index, only over the links a node can
    # forward over: a relay's or passive node's next hop, or a proactive
    # executor's links to executor neighbours (its gossip view).
    delay: list[dict[int, float] | None] = [None] * n
    next_hop: list[int | None] = [None] * n
    for i, nid in enumerate(ids):
        if is_relay[i] or strategy == "passive":
            nh = topo.next_hop_toward_server(nid)
            if nh is not None:
                j = next_hop[i] = idx_of[nh]
                delay[i] = {j: topo.adj[nid][nh] / 1000.0}
        elif proactive and executor[i]:
            delay[i] = {
                idx_of[m]: d_ms / 1000.0
                for m, d_ms in topo.adj[nid].items()
                if executor[idx_of[m]]
            }
    # What none and passive do at or above the threshold, fixed per node.
    if strategy == "passive":
        overflow = [passive_overflow(nh, server, server_executes) for nh in next_hop]
    else:
        overflow = [DROP] * n

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
    # Where a proactive executor forwards a rejected request: ``target[i]``
    # is its only executor neighbour, else ``views[i]`` lists (neighbour,
    # its feed, the heartbeat feed) in id order for two or more, and with
    # none both stay None. Gossip feeds are built only for views, which are
    # the only readers: per executor, one for its completions per delay of
    # its links to viewing neighbours; one per delay shared by heartbeats.
    target: list[int | None] = [None] * n
    views: list[list[tuple] | None] = [None] * n
    feeds: list[dict[float, LoadFeed]] = [{} for _ in range(n)]
    beats: dict[float, LoadFeed] = {}
    if proactive and fwd_enabled:
        for i in range(n):
            if not executor[i]:
                continue
            links = delay[i]
            if len(links) == 1:
                (target[i],) = links
            elif links:
                view = views[i] = []
                for j, d in links.items():
                    sent = feeds[j].get(d)
                    if sent is None:
                        sent = feeds[j][d] = LoadFeed(d)
                    beat = beats.get(d)
                    if beat is None:
                        beat = beats[d] = LoadFeed(d, snap)
                    view.append((j, sent, beat))

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

    # The external arrival stream comes in time order, so its next arrival
    # waits beside the heap as ``ext``, an event in heap-key form, and each
    # turn takes whichever of it and the heap's least event sorts first.
    # Every key carries a unique ``seq``, so this is the order one heap
    # holding both would pop. The heap's sentinel ends the loop.
    heap: list[tuple] = [(math.inf, _END)]
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
            heap.append((hb_dt, _HEARTBEAT, -1, seq))
            seq += 1
    if sample_dt > 0.0:
        heap.append((0.0, _SAMPLE, -1, seq))
        seq += 1
    heapify(heap)

    # Request payload layout: [service, hops, acc_delay_s, counted,
    # t_admitted], where hops counts proactive forwards taken. Mutated in
    # place across hops.

    while True:
        ev = heappop(heap) if heap[0] < ext else ext
        t = ev[0]
        kind = ev[1]

        if kind == _ARRIVAL:
            i = ev[2]
            req = ev[4]
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

            if is_relay[i]:
                # Ingress plumbing: push toward the server, TTL untouched.
                j = next_hop[i]
            else:
                if not executor[i]:
                    # Pure sink: the server absorbs nothing unless configured to.
                    dec = DROP
                elif proactive:
                    # Admit with probability q. One draw per arrival, even
                    # when the TTL is spent, so the stream never shifts. A
                    # count at the default TTL's lower bound resolves the
                    # exact TTL and is tested against it.
                    est = estimators[i]
                    if est is None:
                        est = estimators[i] = new_estimator(buffer_size, cpu_cap[i], mem_cap[i])
                    q = est.record_arrival(t)
                    u = rng_random()
                    if req[1] >= ttl and (ttl_exact or req[1] >= (ttl := resolve_ttl())):
                        dec = decide_threshold(loads[i], threshold, DROP)
                    elif u < q:
                        dec = EXECUTE
                    elif not fwd_enabled:
                        dec = DROP
                    else:
                        dec = target[i]
                        if dec is None:
                            view = views[i]
                            if view is None:
                                dec = decide_threshold(loads[i], threshold, DROP)
                            else:
                                dec = lightest_load_neighbor(view, t)
                else:
                    dec = decide_threshold(loads[i], threshold, overflow[i])

                if dec == EXECUTE:
                    lt = last_t[i]
                    if lt < horizon:
                        hi = t if t < horizon else horizon
                        lo = lt if lt > warmup else warmup
                        if hi > lo:
                            acc[i] += loads[i] * (hi - lo)
                    last_t[i] = t
                    load_num[i] += svc_cpu[req[0]]
                    loads[i] = load_num[i] * inv_cap[i]
                    changed = True
                    req[4] = t
                    if busy[i]:
                        queue[i].append(req)
                    else:
                        busy[i] = True
                        dur = -log(1.0 - rng_random()) / svc_rate[req[0]]
                        heappush(heap, (t + dur, _COMPLETION, i, seq, req, dur))
                        seq += 1
                    continue
                if dec == DROP:
                    gross_dropped += 1
                    if req[3]:
                        counted_drop += 1
                    continue
                j = dec
                if proactive:
                    req[1] += 1
            # One forward path for relays and strategies alike.
            d = delay[i][j]
            req[2] += d
            if req[3]:
                counted_fwd += 1
            heappush(heap, (t + d, _ARRIVAL, j, seq, req))
            seq += 1

        elif kind == _COMPLETION:
            i = ev[2]
            req = ev[4]
            lt = last_t[i]
            if lt < horizon:
                hi = t if t < horizon else horizon
                lo = lt if lt > warmup else warmup
                if hi > lo:
                    acc[i] += loads[i] * (hi - lo)
            last_t[i] = t
            load_num[i] -= svc_cpu[req[0]]
            loads[i] = load_num[i] * inv_cap[i]
            changed = True
            gross_executed += 1
            if req[3]:
                counted_exec += 1
                pne[i] += 1
                lat_sum += (t - req[4]) + 2.0 * req[2]
            # Only proactive runs keep estimators; ev[5] is the service time.
            est = estimators[i]
            if est is not None:
                est.record_completion(ev[5], svc_cpu[req[0]], svc_mem[req[0]])
                load = loads[i]
                for feed in feeds[i].values():
                    feed.publish(t, load)
            if queue[i]:
                req = queue[i].popleft()
                dur = -log(1.0 - rng_random()) / svc_rate[req[0]]
                heappush(heap, (t + dur, _COMPLETION, i, seq, req, dur))
                seq += 1
            else:
                busy[i] = False

        elif kind == _HEARTBEAT:
            if changed:
                snap = loads.copy()
                changed = False
            for feed in beats.values():
                feed.publish(t, snap)
            t_next = t + hb_dt
            if t_next < horizon:
                heappush(heap, (t_next, _HEARTBEAT, -1, seq))
                seq += 1

        elif kind == _SAMPLE:
            sample_times.append(t * 1000.0)
            if changed:
                snap = loads.copy()
                changed = False
            sample_rows.append(snap)
            t_next = t + sample_dt
            if t_next <= horizon + 1e-12:
                heappush(heap, (t_next, _SAMPLE, -1, seq))
                seq += 1

        else:
            # The heap's sentinel: every event has run.
            break

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


def _summary_dict(m: RunMetrics) -> dict:
    return {
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


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# How the json module spells the float reprs that are not JSON numbers.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list[float]) -> list[str]:
    """Each float or int as the json module writes it: its repr, except
    NaN and the infinities."""
    if math.isfinite(sum(values)):
        return list(map(repr, values))
    return [_JSON_NONFINITE.get(text, text) for text in map(repr, values)]


def _json_array(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Item texts laid out as ``json.dumps(indent=2)`` lays out a list that
    starts on a line indented by ``indent``, or with ``brackets="{}"`` an
    object whose items are ``"key": value`` texts."""
    if not items:
        return brackets
    sep = "\n" + indent + "  "
    return brackets[0] + sep + ("," + sep).join(items) + "\n" + indent + brackets[1]


def _json_object(obj: dict, indent: str) -> str:
    """A dict of str keys and str, int or float values (or such dicts) as
    ``json.dumps(sort_keys=True, indent=2)`` writes it: keys in string
    order, strings by the json module's own escaper, numbers by
    ``_json_floats``."""
    keys = sorted(obj)
    values = [obj[k] for k in keys]
    if all(type(v) is float or type(v) is int for v in values):
        texts = _json_floats(values)
    else:
        texts = [
            _json_object(v, indent + "  ") if type(v) is dict
            else encode_basestring_ascii(v) if type(v) is str
            else _json_floats([v])[0]
            for v in values
        ]
    items = [f"{k}: {t}" for k, t in zip(map(encode_basestring_ascii, keys), texts)]
    return _json_array(items, indent, "{}")


def _json_cell(_i: int, value: float) -> str:
    text = repr(value)
    return _JSON_NONFINITE.get(text, text)


def _row_changes(rows) -> list:
    """Per row, what both series emitters render again: None for the
    previous row's list object, ``range(len(row))`` (all) for the first row
    and after a length change, else the indices whose float object changed.
    An identity test, so -0.0, NaN and the infinities always come out right;
    only the speed depends on what the rows share."""
    out = []
    prev = None
    for row in rows:
        if row is prev:
            out.append(None)
        elif prev is None or len(row) != len(prev):
            out.append(range(len(row)))
        else:
            out.append(list(compress(range(len(row)), map(operator.is_not, prev, row))))
        prev = row
    return out


def _row_cells(rows, changes, render_row, render_cell):
    """Yield each row's cells, the same list while the row repeats: in full
    by ``render_row(row)``, or as a copy of the previous cells with the
    ``changes`` entries rendered again by ``render_cell(i, value)``."""
    cells: list[str] = []
    for row, changed in zip(rows, changes):
        if type(changed) is range:
            cells = render_row(row)
        elif changed is not None:
            cells = cells.copy()
            size = len(cells)  # CSV cells stop at the last node id
            for i in changed:
                if i < size:
                    cells[i] = render_cell(i, row[i])
        yield cells


def _series_json(m: RunMetrics, changes: list) -> str:
    """The run series, byte for byte ``_dump_json`` of ``{"node_ids": ...,
    "samples": [{"time_ms": t, "loads": row}, ...]}``, written directly:
    the json module's indenting encoder is pure Python and costs a few
    times more on a series of 40k loads. A row's text is built once while
    the next row is the same list object, from ``_row_cells``."""
    samples = []
    row_text = ""
    prev = None
    rows = _row_cells(m.sample_loads, changes, _json_floats, _json_cell)
    for t, cells in zip(_json_floats(m.sample_times_ms), rows):
        if cells is not prev:
            row_text = '{\n      "loads": ' + _json_array(cells, "      ")
            prev = cells
        samples.append(row_text + ',\n      "time_ms": ' + t + "\n    }")
    return (
        '{\n  "node_ids": '
        + _json_array(list(map(repr, m.sample_node_ids)), "  ")
        + ',\n  "samples": '
        + _json_array(samples, "  ")
        + "\n}\n"
    )


def _series_csv(m: RunMetrics, changes: list) -> str:
    """The run series, byte for byte what ``csv.writer(lineterminator="\\n")``
    writes for the header and one ``[repr(t), node_id, repr(load)]`` row per
    sample and node: no float repr or int needs quoting. A row's
    ``,node_id,load`` cells come from ``_row_cells``."""
    out = ["time_ms,node_id,normalized_load\n"]
    ids = [f",{nid}," for nid in m.sample_node_ids]
    rows = _row_cells(
        m.sample_loads,
        changes,
        lambda row: list(map(operator.concat, ids, map(repr, row))),
        lambda i, load: ids[i] + repr(load),
    )
    for t, cells in zip(m.sample_times_ms, rows):
        if cells:
            t_text = repr(t)
            out.append(t_text + ("\n" + t_text).join(cells) + "\n")
    return "".join(out)


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
            _write_text(summary_path, _json_object(_summary_dict(metrics), "") + "\n")
            _write_text(series_path, _series_json(metrics, changes))
        else:
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            keys = [
                "strategy", "seed", "tau", "phi_ms", "psi", "total_arrivals",
                "executed", "forwarded", "dropped", "gross_arrivals",
                "gross_executed", "gross_dropped",
            ]
            w.writerow(keys)
            values = [getattr(metrics, k) for k in keys]
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
    _write_text(out, _dump_json(payload))
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
