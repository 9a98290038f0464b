"""Offload decision engine: is moving a cluster off the device worth it?

Validity is judged per class from its method profiles, weighted by each
method's share of the class's invocations. A cluster is offloadable only if
every member class passes both gates:

* time: local execution must cost strictly more than remote execution plus
  the transfer penalty paid by a boundary class (round trip and payload
  bytes over the link, per method call),
* energy: local execution must drain strictly more than a boundary class
  spends transmitting payloads and idling while waiting for results.

A class is on the boundary when a call-graph edge leaves its cluster.

``select_partition`` walks candidate partitions from coarse to fine and
returns the first one offering a valid cluster, falling back to single-class
offload and finally to keeping everything local.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ._inputs import _left_sum, _load_json, _non_negative, _number, _positive, _refuse_unknown
from .partition import PINNED_TAG, CallGraph, MethodProfile, PartitionSet


class DecisionError(ValueError):
    """Raised for invalid decision inputs."""


@dataclass(frozen=True)
class NetworkConditions:
    """Link quality between device and executor, plus relative cpu speed."""

    rtt_s: float
    bandwidth_bytes_per_s: float
    cpu_speedup: float

    def __post_init__(self):
        if not _non_negative(self.rtt_s):
            raise DecisionError("rtt must be finite and non-negative")
        if not _positive(self.bandwidth_bytes_per_s):
            raise DecisionError("bandwidth must be finite and positive")
        if not _positive(self.cpu_speedup):
            raise DecisionError("cpu speedup must be finite and positive")


@dataclass(frozen=True)
class EnergyModel:
    """Device-side energy prices; zero fields mean free (or unmetered)."""

    energy_per_tx_byte_j: float = 0.0
    energy_per_rx_byte_j: float = 0.0
    energy_idle_per_s_j: float = 0.0

    def __post_init__(self):
        if not (
            _non_negative(self.energy_per_tx_byte_j)
            and _non_negative(self.energy_per_rx_byte_j)
            and _non_negative(self.energy_idle_per_s_j)
        ):
            raise DecisionError("energy prices must be finite and non-negative")


def load_energy_model(source) -> EnergyModel:
    """Energy model from a JSON file (``Path``), JSON text (``str``), or
    parsed dict (see docs/schemas/energymodel.json); missing keys fall back
    to 0."""
    data = _load_json(source, "energy model", dict, DecisionError)
    keys = [f.name for f in fields(EnergyModel)]
    _refuse_unknown(data, frozenset(keys), "the energy model", DecisionError)
    return EnergyModel(*(_number(data, key, 0.0, DecisionError) for key in keys))


@dataclass
class ClassProfile:
    """One class prepared for validity checks: its methods, and whether the
    class crosses the cluster boundary (and so pays transfer costs)."""

    methods: list[MethodProfile]
    boundary: bool


def build_class_profile(graph: CallGraph, name: str, cluster: set[str]) -> ClassProfile:
    """Profile a class relative to a candidate cluster.

    The call graph is class granular, so boundary status is per class: any
    edge leaving the cluster puts the class on the boundary.
    """
    if name not in graph.vertices:
        raise DecisionError(f"unknown class {name!r}")
    return ClassProfile(
        methods=list(graph.vertices[name].methods),
        boundary=any(nb not in cluster for nb in graph.adj[name]),
    )


def _frequencies(profile: ClassProfile) -> list[float]:
    total = _left_sum(m.invocations for m in profile.methods)
    if total <= 0.0:
        return [0.0] * len(profile.methods)
    return [m.invocations / total for m in profile.methods]


def _offload_time(m: MethodProfile, cond: NetworkConditions) -> float:
    return m.t_local_s / (cond.cpu_speedup * m.cpu_scale_hint)


def _transfer_time(m: MethodProfile, cond: NetworkConditions) -> float:
    return cond.rtt_s + (m.in_bytes + m.out_bytes) / cond.bandwidth_bytes_per_s


def class_valid_time(profile: ClassProfile, cond: NetworkConditions) -> bool:
    """Strict time gate: offloading must beat local execution outright.

    Empty method lists never validate (nothing measurable to win on).
    """
    if not profile.methods:
        return False
    boundary = profile.boundary
    local = 0.0
    remote = 0.0
    for f, m in zip(_frequencies(profile), profile.methods):
        local += f * m.t_local_s
        remote += f * _offload_time(m, cond)
        if boundary:
            remote += f * _transfer_time(m, cond)
    return local > remote


def class_valid_energy(
    profile: ClassProfile, cond: NetworkConditions, model: EnergyModel
) -> bool:
    """Strict energy gate: offloading must drain the battery strictly less.

    A boundary class pays, per method call, to transmit inputs, receive
    outputs, and idle for the round trip plus remote execution. A class off
    the boundary pays nothing, and local energy is never negative, so it
    passes. When neither side consumes any energy at all the gate passes
    vacuously (no energy signal to act on).
    """
    if not profile.methods:
        return False
    if not profile.boundary:
        return True
    local = 0.0
    remote = 0.0
    for f, m in zip(_frequencies(profile), profile.methods):
        local += f * m.energy_local_j
        wait = _transfer_time(m, cond) + _offload_time(m, cond)
        remote += f * (
            m.in_bytes * model.energy_per_tx_byte_j
            + m.out_bytes * model.energy_per_rx_byte_j
            + wait * model.energy_idle_per_s_j
        )
    if local == 0.0 and remote == 0.0:
        return True
    return local > remote


@dataclass
class OffloadVerdict:
    """Outcome of partition selection."""

    local_only: bool
    chosen_n: int | None
    offload_classes: list[str]
    per_class_validity: dict[str, dict[str, bool]]
    source: str  # "partition", "singleton-fallback", or "local-only"

    def to_dict(self) -> dict:
        return {
            "local_only": self.local_only,
            "chosen_N": self.chosen_n,
            "offload_classes": self.offload_classes,
            "per_class_validity": self.per_class_validity,
            "source": self.source,
        }


def select_partition(
    sets: list[PartitionSet],
    graph: CallGraph,
    cond: NetworkConditions,
    model: EnergyModel | None = None,
    mode: str = "any",
) -> OffloadVerdict:
    """Pick what to offload.

    Walks the candidate partitions in ascending cluster count and returns
    the first whose offloadable clusters pass the gates (``mode="any"``
    needs one passing cluster and offloads exactly the passing ones;
    ``mode="all"`` demands every offloadable cluster passes). If no
    partition qualifies, each unpinned class is tried alone (boundary
    status from its degree); if that fails too, everything stays local.

    A class's gates depend only on its methods and on whether an edge
    leaves its cluster, so each class is judged at most once per boundary
    status.
    """
    if mode not in ("any", "all"):
        raise DecisionError(f"unknown selection mode {mode!r}")
    model = model or EnergyModel()

    def candidates():
        """(cluster count, offloadable clusters, rule) in walk order; the
        singleton fallback comes last, with cluster count None, and needs
        one passing class."""
        for pset in sorted(sets, key=lambda p: p.n_clusters):
            offloadable = [c for c, ok in zip(pset.clusters, pset.offloadable) if ok]
            yield pset.n_clusters, offloadable, mode
        nodes = graph.vertices
        yield None, [[name] for name in sorted(nodes) if PINNED_TAG not in nodes[name].tags], "any"

    judged: dict[tuple[str, bool], tuple[bool, bool]] = {}
    for n_clusters, clusters, rule in candidates():
        validity: dict[str, dict[str, bool]] = {}
        surviving: list[list[str]] = []
        for cluster in clusters:
            members = set(cluster)
            for name in cluster:
                # ``get``: an unknown name misses, and build_class_profile refuses it.
                key = (name, any(nb not in members for nb in graph.adj.get(name, ())))
                if key not in judged:
                    prof = build_class_profile(graph, name, members)
                    judged[key] = (
                        class_valid_time(prof, cond),
                        class_valid_energy(prof, cond, model),
                    )
                time_ok, energy_ok = judged[key]
                validity[name] = {"time": time_ok, "energy": energy_ok}
            if all(all(validity[name].values()) for name in cluster):
                surviving.append(cluster)
        if surviving and (rule == "any" or len(surviving) == len(clusters)):
            return OffloadVerdict(
                local_only=False,
                chosen_n=n_clusters,
                offload_classes=sorted(name for cluster in surviving for name in cluster),
                per_class_validity=validity,
                source="singleton-fallback" if n_clusters is None else "partition",
            )
    return OffloadVerdict(
        local_only=True,
        chosen_n=None,
        offload_classes=[],
        per_class_validity=validity,
        source="local-only",
    )


__all__ = [
    "ClassProfile",
    "DecisionError",
    "EnergyModel",
    "NetworkConditions",
    "OffloadVerdict",
    "build_class_profile",
    "class_valid_energy",
    "class_valid_time",
    "load_energy_model",
    "select_partition",
]
