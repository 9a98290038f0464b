"""Layer tracing from outside the program.

The traced run swaps wrappers in for the public functions at each layer
boundary and restores the originals afterwards. Names the simulator
imported into its own namespace (``decide_*``, ``heappush``/``heappop``,
``_iter_arrival_tuples``, ``new_estimator``, ``generate_topology``) are
patched on ``offloadsim.simulator``; methods are patched on their class.

Hot boundaries run about a million times per run, so calls are aggregated
per (parent boundary, boundary): count, inclusive seconds, and self seconds
(inclusive minus the inclusive time of traced children). Coarse boundaries
also keep one span each, with the id of the enclosing coarse span, written
out when the run ends.

A boundary whose target no longer exists is skipped, and its metrics read
zero; the trace never fails because the program changed shape.
"""

from __future__ import annotations

import importlib
import os
import time

_ROOT = "<root>"

#: (boundary, fields reported) in output order. ``self_s`` is reported for
#: boundaries with traced children.
BOUNDARIES = (
    ("workload.arrivals", ("calls", "s")),
    ("workload.record_arrival", ("calls", "s")),
    ("workload.record_completion", ("calls", "s")),
    ("workload.execution_probability", ("calls", "s")),
    ("control.decide_none", ("calls", "s")),
    ("control.decide_passive", ("calls", "s", "self_s")),
    ("control.decide_proactive", ("calls", "s", "self_s")),
    ("control.lightest_load_neighbor", ("calls", "s")),
    ("topology.next_hop_toward_server", ("calls", "s")),
    ("topology.hop_diameter", ("calls", "s")),
    ("topology.Topology", ("calls", "s")),
    ("topology.generate_topology", ("calls", "s", "self_s")),
    ("simulator.heappush", ("calls", "s")),
    ("simulator.heappop", ("calls", "s")),
    ("simulator.run_scenario", ("calls", "s", "self_s")),
    ("simulator.export_metrics", ("calls", "s")),
    ("partition.build_call_graph", ("calls", "s")),
    ("partition.enumerate_partition_sets", ("calls", "s", "self_s")),
    ("partition.girvan_newman", ("calls", "s", "self_s")),
    ("partition._edge_betweenness", ("calls", "s")),
    ("partition._components", ("calls", "s")),
    ("partition.louvain_optimal", ("calls", "s", "self_s")),
    ("partition.modularity", ("calls", "s")),
    ("decision.select_partition", ("calls", "s", "self_s")),
    ("decision.build_class_profile", ("calls", "s")),
    ("decision.class_valid_time", ("calls", "s")),
    ("decision.class_valid_energy", ("calls", "s")),
    ("appstats.parse_corpus", ("calls", "s")),
    ("appstats.unique_class_fraction", ("calls", "s", "self_s")),
    ("appstats.storage_savings", ("calls", "s", "self_s")),
    ("appstats._shared_prefixes", ("calls", "s")),
    ("cli.dispatch", ("calls", "s", "self_s")),
)

EVENT_KINDS = ("arrival", "completion", "gossip", "heartbeat", "sample", "jitter_mark")

#: Counters read at the boundaries, with their units.
COUNTERS = (
    ("control.decide.execute", "count"),
    ("control.decide.forward", "count"),
    ("control.decide.drop", "count"),
    ("control.forward_frac", "ratio"),
    ("simulator.heap_max", "count"),
    *((f"simulator.events.{k}", "count") for k in EVENT_KINDS),
    ("simulator.gossip.deliveries", "count"),
    ("simulator.export_metrics.bytes", "bytes"),
    ("simulator.sample.values", "count"),
)

#: Whole-run figures: traced and untraced op time of the same ops, their
#: difference, and the sum of every boundary's self time.
RUN_FIGURES = ("trace.op_s", "trace.untraced_op_s", "trace.overhead_s", "trace.self_sum_s")

_FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name, fields in BOUNDARIES:
        for f in fields:
            units[f"{name}.{f}"] = _FIELD_UNITS[f]
    units.update(COUNTERS)
    units.update((name, "s") for name in RUN_FIGURES)
    return units


class Tracer:
    """Aggregating call tracer with spans for coarse boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frame: [boundary name, inclusive time of traced children, span id]
        self.stack: list[list] = [[_ROOT, 0.0, None]]
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn, coarse: bool = False, after=None):
        """Timed stand-in for ``fn``; ``after(result, args)`` runs on return."""
        stack = self.stack
        agg = self.agg
        clock = self.clock
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            if coarse:
                self._next_span += 1
                frame = [name, 0.0, self._next_span]
            else:
                frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                rec = agg.get((parent[0], name))
                if rec is None:
                    agg[(parent[0], name)] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if coarse:
                    spans.append((frame[2], parent[2], name, t0, t1))
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high_water(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    # -- patching ------------------------------------------------------

    def swap(self, owner, attr: str, make) -> bool:
        """Replace ``owner.attr`` with ``make(original)`` until ``restore``;
        False, and nothing replaced, when there is no such callable."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def patch(self, owner, attr: str, name: str, coarse: bool = False, after=None) -> bool:
        """Replace ``owner.attr`` with a traced wrapper; False if absent."""
        return self.swap(owner, attr, lambda fn: self.wrap(name, fn, coarse, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Per boundary: [calls, inclusive s, self s], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, incl, self_s) in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        return out

    def self_sum(self) -> float:
        return sum(rec[2] for rec in self.agg.values())

    def layer_metrics(self) -> dict[str, float]:
        totals = self.totals()
        out: dict[str, float] = {}
        for name, fields in BOUNDARIES:
            calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
            values = {"calls": calls, "s": incl, "self_s": self_s}
            for f in fields:
                out[f"{name}.{f}"] = values[f]
        for name, _ in COUNTERS:
            out[name] = self.counts.get(name, 0)
        decisions = sum(self.counts.get(f"control.decide.{a}", 0) for a in ("execute", "forward", "drop"))
        out["control.forward_frac"] = (
            self.counts.get("control.decide.forward", 0) / decisions if decisions else 0.0
        )
        return out


class TimedIterator:
    """Times each ``next`` on a generator."""

    __slots__ = ("_next",)

    def __init__(self, tracer: Tracer, name: str, iterator):
        self._next = tracer.wrap(name, iterator.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class TimedEstimator:
    """Proxy for an estimator core whose three hot methods are timed; any
    other attribute is read through. With ``log`` set, every call is also
    appended there for a later replay against another backend."""

    _TIMED = ("record_arrival", "record_completion", "execution_probability")

    def __init__(self, tracer: Tracer, core, log: list | None = None):
        self._core = core
        for method in self._TIMED:
            timed = tracer.wrap(f"workload.{method}", getattr(core, method))
            if log is not None:
                timed = _logging(timed, method, log)
            setattr(self, method, timed)

    def __getattr__(self, attr):
        return getattr(self._core, attr)


def _logging(fn, method: str, log: list):
    def call(*args):
        log.append((method, args))
        return fn(*args)

    return call


def _module(name: str):
    try:
        return importlib.import_module(f"offloadsim.{name}")
    except ImportError:
        return None


def install(tracer: Tracer, estimator_log: dict | None = None) -> None:
    """Patch every boundary in ``BOUNDARIES``. With ``estimator_log`` (a
    dict), each new estimator's call stream is kept under its buffer size
    for replay."""
    sim = _module("simulator")
    control = _module("control")
    topology = _module("topology")
    partition = _module("partition")
    decision = _module("decision")
    appstats = _module("appstats")
    cli = _module("cli")

    def count_decision(result, _args):
        action = getattr(getattr(result, "action", None), "value", None)
        if action is not None:
            tracer.count(f"control.decide.{action}")

    if sim is not None:
        kinds = {}
        for kind in EVENT_KINDS:
            rank = getattr(sim, f"_{kind.upper()}", None)
            if rank is not None:
                kinds[rank] = kind
        gossip_rank = getattr(sim, "_GOSSIP", None)

        def on_pop(ev, _args):
            try:
                kind = kinds.get(ev[1])
                if kind is not None:
                    tracer.count(f"simulator.events.{kind}")
                if ev[1] == gossip_rank:
                    tracer.count("simulator.gossip.deliveries", len(ev[4]))
            except (TypeError, IndexError, KeyError):
                pass

        def on_push(_result, args):
            tracer.high_water("simulator.heap_max", len(args[0]))

        def on_run(metrics, _args):
            rows = getattr(metrics, "sample_loads", None) or ()
            tracer.count("simulator.sample.values", sum(len(r) for r in rows))

        def on_export(paths, _args):
            try:
                written = sum(os.path.getsize(p) for p in paths)
            except (TypeError, OSError):
                return
            tracer.count("simulator.export_metrics.bytes", written)

        def timed_arrivals(make):
            return lambda *a, **kw: TimedIterator(tracer, "workload.arrivals", make(*a, **kw))

        def timed_estimator(make):
            def new_estimator(*args, **kwargs):
                log = None
                if estimator_log is not None:
                    log = []
                    estimator_log.setdefault(_buffer_size(args, kwargs), []).append(log)
                return TimedEstimator(tracer, make(*args, **kwargs), log)

            return new_estimator

        tracer.swap(sim, "_iter_arrival_tuples", timed_arrivals)
        tracer.swap(sim, "new_estimator", timed_estimator)
        tracer.patch(sim, "heappush", "simulator.heappush", after=on_push)
        tracer.patch(sim, "heappop", "simulator.heappop", after=on_pop)
        tracer.patch(sim, "run_scenario", "simulator.run_scenario", coarse=True, after=on_run)
        tracer.patch(sim, "export_metrics", "simulator.export_metrics", coarse=True, after=on_export)
        for strategy in ("none", "passive", "proactive"):
            tracer.patch(sim, f"decide_{strategy}", f"control.decide_{strategy}", after=count_decision)
        tracer.patch(sim, "generate_topology", "topology.generate_topology", coarse=True)
    if control is not None:
        tracer.patch(control, "lightest_load_neighbor", "control.lightest_load_neighbor")
    if topology is not None:
        tracer.patch(topology, "generate_topology", "topology.generate_topology", coarse=True)
        cls = getattr(topology, "Topology", None)
        if cls is not None:
            tracer.patch(cls, "__init__", "topology.Topology", coarse=True)
            tracer.patch(cls, "next_hop_toward_server", "topology.next_hop_toward_server")
            tracer.patch(cls, "hop_diameter", "topology.hop_diameter", coarse=True)
    if partition is not None:
        tracer.patch(partition, "build_call_graph", "partition.build_call_graph", coarse=True)
        tracer.patch(
            partition, "enumerate_partition_sets", "partition.enumerate_partition_sets", coarse=True
        )
        tracer.patch(partition, "girvan_newman", "partition.girvan_newman", coarse=True)
        tracer.patch(partition, "_edge_betweenness", "partition._edge_betweenness")
        tracer.patch(partition, "_components", "partition._components")
        tracer.patch(partition, "louvain_optimal", "partition.louvain_optimal", coarse=True)
        tracer.patch(partition, "modularity", "partition.modularity")
    if decision is not None:
        tracer.patch(decision, "select_partition", "decision.select_partition", coarse=True)
        for fn in ("build_class_profile", "class_valid_time", "class_valid_energy"):
            tracer.patch(decision, fn, f"decision.{fn}")
    if appstats is not None:
        tracer.patch(appstats, "parse_corpus", "appstats.parse_corpus", coarse=True)
        tracer.patch(
            appstats, "unique_class_fraction", "appstats.unique_class_fraction", coarse=True
        )
        tracer.patch(appstats, "storage_savings", "appstats.storage_savings", coarse=True)
        tracer.patch(appstats, "_shared_prefixes", "appstats._shared_prefixes")
    if cli is not None:
        tracer.patch(cli, "dispatch", "cli.dispatch", coarse=True)


def _buffer_size(args, kwargs) -> int:
    if args:
        return args[0]
    return kwargs.get("k", 128)


def replay_estimators(log: dict, backends: dict) -> dict:
    """Feed each recorded estimator call stream into a fresh core of every
    backend; per backend, seconds per method and a checksum of the admission
    probabilities (equal checksums mean the backends agree)."""
    out = {}
    for label, core_cls in backends.items():
        secs = {m: 0.0 for m in TimedEstimator._TIMED}
        checksum = 0.0
        calls = 0
        for k, streams in sorted(log.items()):
            for stream in streams:
                core = core_cls(k)
                for method, args in stream:
                    fn = getattr(core, method)
                    t0 = time.perf_counter()
                    value = fn(*args)
                    secs[method] += time.perf_counter() - t0
                    if method == "execution_probability":
                        checksum += value
                    calls += 1
        out[label] = {"calls": calls, "checksum": repr(checksum),
                      **{f"{m}_s": s for m, s in secs.items()}}
    return out
