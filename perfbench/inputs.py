"""Seeded input generation for the benchmark workloads.

Every input belongs to a family with a fixed universe of instances
(``instance`` in ``range(family.universe)``). An instance is generated from
its index alone, so its outputs have one golden digest recorded in
``golden.json``; a workload seed only chooses which instances a run uses and
in which order. The program under test receives nothing but these files and
arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from offloadsim import appstats

#: Classes per planted community, and the chords added to each community's
#: ring so it is dense enough that Louvain recovers the planted split.
COMMUNITY_SIZE = 8
COMMUNITY_CHORDS = 10


def planted_call_graph(communities: int, instance: int) -> dict:
    """Call graph of ``communities`` modules of COMMUNITY_SIZE classes.

    Module c holds a UI class ``app.m<c>.ui.Screen``, a port class
    ``app.m<c>.core.Port`` and workers. Modules form a ring joined only
    through their ports by light edges, so every cross-module path runs
    port to port: Girvan-Newman cuts exactly the bridges, and the number of
    betweenness passes does not depend on the instance.
    """
    rng = random.Random(f"graph|{communities}|{instance}")
    vertices = []
    edges: dict[tuple[str, str], int] = {}
    for c in range(communities):
        names = [f"app.m{c}.ui.Screen", f"app.m{c}.core.Port"] + [
            f"app.m{c}.core.Worker{j}" for j in range(2, COMMUNITY_SIZE)
        ]
        for j, name in enumerate(names):
            # Ports are the boundary classes once a module is a cluster;
            # heavy local work lets them pass the time gate on a good link.
            t_lo, t_hi = (30.0, 60.0) if j == 1 else (2.0, 40.0)
            methods = [
                {
                    "name": f"m{q}",
                    "invocations": rng.randint(1, 50),
                    "t_local_ms": round(rng.uniform(t_lo, t_hi), 3),
                    "in_bytes": rng.randint(200, 8000),
                    "out_bytes": rng.randint(200, 8000),
                    "energy_mj": round(rng.uniform(1.0, 30.0), 3),
                }
                for q in range(rng.randint(1, 3))
            ]
            vertices.append({"name": name, "tags": [], "methods": methods})
        ring = [(names[j], names[(j + 1) % COMMUNITY_SIZE]) for j in range(COMMUNITY_SIZE)]
        pairs = {tuple(sorted(p)) for p in ring}
        others = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if (a, b) not in pairs and (b, a) not in pairs
        ]
        pairs.update(tuple(sorted(p)) for p in rng.sample(others, COMMUNITY_CHORDS))
        for pair in sorted(pairs):
            edges[pair] = rng.randint(4, 20)
    for c in range(communities):
        a, b = f"app.m{c}.core.Port", f"app.m{(c + 1) % communities}.core.Port"
        if communities > 1 and a != b:
            edges[tuple(sorted((a, b)))] = rng.randint(1, 2)
    return {
        "vertices": vertices,
        "edges": [{"a": a, "b": b, "weight": w} for (a, b), w in sorted(edges.items())],
    }


def tag_rules(communities: int) -> list[dict]:
    """Pin the UI class of every even-numbered module; odd modules carry no
    pinned class, so some clusters are offloadable."""
    return [{"prefix": f"app.m{c}.ui", "tag": "pinned"} for c in range(0, communities, 2)]


def scalefree_scenario(nodes: int, horizon_s: float, instance: int) -> dict:
    """Lightly loaded scale-free scenario with two rate surges, 1 ms gossip
    and 1 ms load sampling; the topology seed is the instance index."""
    horizon_ms = horizon_s * 1000.0
    return {
        "name": f"scalefree-{nodes}",
        "topology": {
            "generate": {"kind": "scale_free", "n": nodes, "m": 2, "cpu": 3.0, "mem": 4.0,
                         "seed": instance}
        },
        "services": [{"id": "task", "mean_exec_time_s": 0.002}],
        "base_rate_per_s": 400.0,
        "horizon_s": horizon_s,
        "jitters": [
            {"start_ms": 0.3 * horizon_ms, "duration_ms": 0.1 * horizon_ms, "rate_multiplier": 4.0},
            {"start_ms": 0.6 * horizon_ms, "duration_ms": 0.1 * horizon_ms, "rate_multiplier": 4.0},
        ],
        "gossip_period_ms": 1.0,
        "sample_interval_ms": 1.0,
    }


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


@dataclass(frozen=True)
class Family:
    """A universe of input instances of one shape.

    ``kind`` is one of ``sim-seed`` (no file, the instance picks the run
    seed), ``graph``, ``corpus`` or ``scenario``; ``size`` is the number of
    communities, apps, or scale-free nodes.
    """

    name: str
    kind: str
    universe: int
    size: int = 0
    horizon_s: float = 0.0

    def materialize(self, instance: int, workdir: Path) -> dict:
        """Write this instance's files under ``workdir``; returns the paths
        (as strings) and run seed an op needs."""
        if not 0 <= instance < self.universe:
            raise ValueError(f"{self.name}: instance {instance} outside 0..{self.universe - 1}")
        base = workdir / self.name
        if self.kind == "sim-seed":
            return {"seed": instance + 1}
        if self.kind == "graph":
            graph = _write(
                base / f"graph{instance}.json",
                json.dumps(planted_call_graph(self.size, instance), sort_keys=True),
            )
            rules = _write(base / "rules.json", json.dumps(tag_rules(self.size), sort_keys=True))
            return {"graph": str(graph), "rules": str(rules)}
        if self.kind == "corpus":
            synth = appstats.synth_corpus(self.size, seed=instance)
            path = base / f"corpus{instance}.tsv"
            path.parent.mkdir(parents=True, exist_ok=True)
            appstats.write_corpus(synth.corpus, path)
            return {"corpus": str(path)}
        if self.kind == "scenario":
            cfg = _write(
                base / f"scenario{instance}.json",
                json.dumps(scalefree_scenario(self.size, self.horizon_s, instance), sort_keys=True),
            )
            return {"config": str(cfg), "seed": instance + 1}
        raise ValueError(f"unknown family kind {self.kind!r}")


FAMILIES = {
    f.name: f
    for f in (
        Family("overload", "sim-seed", universe=30),
        Family("fig3", "sim-seed", universe=30),
        Family("scalefree", "scenario", universe=24, size=400, horizon_s=0.1),
        Family("graph", "graph", universe=24, size=8),
        Family("graph-small", "graph", universe=24, size=4),
        Family("corpus", "corpus", universe=16, size=2500),
        Family("corpus-small", "corpus", universe=16, size=600),
    )
}
