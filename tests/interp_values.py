"""Float results that must carry the same bits on every supported CPython.

Run as a script with ``src`` on ``PYTHONPATH`` it prints them as JSON, so
``test_interpreters.py`` can compare another interpreter's output with the
values computed in-process. It needs only the standard library and
offloadsim.

* tau for every preset x strategy at seeds 1..3, the overload presets cut
  to a 0.4 s horizon (0.1 s warmup) to keep the check quick,
* Louvain modularity, and the modularity of the two-cluster Girvan-Newman
  split, on 20 random call graphs with float edge weights,
* the decision gates' method frequencies and time/energy verdicts for each
  class of those graphs, given random float invocation counts,
* the mean and median unique-class fraction and the storage savings of
  synthetic app corpora at prefix depths 2 to 4,
* sha256 digests of the bytes ``write_corpus`` writes, and of the
  placements, for synthetic corpora over two seeds, whose
  bounded integers are drawn with ``getrandbits``,
* the smoothed statistics (mu, cpu_avg, mem_avg, lambda_prev,
  lambda_eff) of estimators fed long seeded arrival and completion
  streams, so the running window sums are compared directly, and a
  sha256 of the reprs of every q their ``record_arrival`` returned,
* the first 300 arrivals of a stream with 5 access points, 3 weighted
  services and two surges. CPython promises reproducible output across
  versions only for ``random()``; the origin draw uses ``getrandbits``,
* digests of 400-node scale-free topologies, whose attachment draw also
  uses ``getrandbits``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import tempfile
from pathlib import Path

from offloadsim import decision
from offloadsim.appstats import synth_corpus, unique_class_fraction, write_corpus
from offloadsim.partition import CallGraph, ClassNode, MethodProfile, girvan_newman, louvain_optimal
from offloadsim.simulator import PRESETS, STRATEGIES, run_scenario
from offloadsim.topology import generate_topology
from offloadsim.workload import (
    JitterSpec,
    ServiceSpec,
    _iter_arrival_tuples,
    new_estimator,
)


def tau_values() -> dict[str, str]:
    out = {}
    for name, make in sorted(PRESETS.items()):
        for strategy in STRATEGIES:
            cfg = make(strategy)
            if name != "fig3":
                cfg = dataclasses.replace(cfg, horizon_s=0.4, warmup_s=0.1)
            for seed in (1, 2, 3):
                tau = run_scenario(dataclasses.replace(cfg, seed=seed)).tau
                out[f"{name}|{strategy}|{seed}"] = repr(tau)
    return out


def float_weighted_graph(seed: int) -> CallGraph:
    rng = random.Random(seed)
    n = rng.randint(8, 24)
    graph = CallGraph()
    for i in range(n):
        methods = [
            MethodProfile(
                name=f"m{k}",
                invocations=rng.uniform(0.1, 100.0),
                t_local_s=rng.uniform(1e-4, 1e-2),
                in_bytes=rng.uniform(0.0, 1e4),
                out_bytes=rng.uniform(0.0, 1e4),
                energy_local_j=rng.uniform(0.0, 1e-2),
            )
            for k in range(rng.randint(1, 6))
        ]
        graph.add_class(ClassNode(name=f"c{i:02d}", methods=methods))
    for i in range(1, n):
        graph.add_call(f"c{rng.randrange(i):02d}", f"c{i:02d}", rng.uniform(0.01, 10.0))
    for _ in range(n):
        a, b = rng.sample(range(n), 2)
        graph.add_call(f"c{a:02d}", f"c{b:02d}", rng.uniform(0.01, 10.0))
    return graph


def modularity_values() -> dict[str, str]:
    out = {}
    for seed in range(20):
        graph = float_weighted_graph(seed)
        out[f"louvain|{seed}"] = repr(louvain_optimal(graph).modularity)
        out[f"split|{seed}"] = repr(girvan_newman(graph, 2).modularity)
    return out


def decision_values() -> dict[str, str]:
    cond = decision.NetworkConditions(rtt_s=0.002, bandwidth_bytes_per_s=1e7, cpu_speedup=3.0)
    model = decision.EnergyModel(
        energy_per_tx_byte_j=1e-7, energy_per_rx_byte_j=5e-8, energy_idle_per_s_j=0.3
    )
    out = {}
    for seed in range(20):
        graph = float_weighted_graph(seed)
        names = graph.names()
        cluster = set(names[: len(names) // 2])
        for name in names:
            methods = graph.vertices[name].methods
            boundary = any(nb not in cluster for nb in graph.adj[name])
            verdict = (
                decision.class_valid_time(methods, boundary, cond),
                decision.class_valid_energy(methods, boundary, cond, model),
            )
            out[f"freq|{seed}|{name}"] = repr(decision._frequencies(methods))
            out[f"gates|{seed}|{name}"] = repr(verdict)
    return out


def corpus_values() -> dict[str, str]:
    out = {}
    for seed in range(4):
        corpus = synth_corpus(30, seed=seed).corpus
        for depth in (2, 3, 4):
            report = unique_class_fraction(corpus, depth)
            out[f"unique_mean|{seed}|{depth}"] = repr(report.mean_unique_fraction)
            out[f"unique_median|{seed}|{depth}"] = repr(report.median_unique_fraction)
            out[f"savings|{seed}|{depth}"] = repr(report.storage_savings)
    return out


#: (seed, app count) of the corpora whose written bytes and placements the
#: interpreters must agree on.
CORPUS_CASES = [(0, 200), ("s", 200)]


def written_corpus_values() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.tsv"
        for k, (seed, n_apps) in enumerate(CORPUS_CASES):
            synth = synth_corpus(n_apps, seed=seed)
            write_corpus(synth.corpus, path)
            placements = repr(list(synth.placements.items())).encode()
            out[f"corpus_file|{k}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            out[f"corpus_placements|{k}"] = hashlib.sha256(placements).hexdigest()
    return out


def estimator_values() -> dict[str, str]:
    out = {}
    for seed in range(5):
        rng = random.Random(seed)
        state = new_estimator(16, 3.0, 0.5)
        t = 0.0
        qs = []
        for _ in range(20000):
            if rng.random() < 0.55:
                t += -math.log(1.0 - rng.random()) / 20.0
                qs.append(state.record_arrival(t))
            else:
                state.record_completion(
                    rng.uniform(0.001, 0.5), rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
                )
        for name in ("mu", "cpu_avg", "mem_avg", "lambda_prev", "lambda_eff"):
            out[f"estimator|{seed}|{name}"] = repr(getattr(state, name))
        out[f"estimator|{seed}|q"] = hashlib.sha256(" ".join(map(repr, qs)).encode()).hexdigest()
    return out


def arrival_values() -> dict[str, str]:
    services = [
        ServiceSpec(name=f"s{i}", mean_exec_time_s=0.001, popularity_weight=w)
        for i, w in enumerate((3.0, 1.5, 0.25))
    ]
    jitters = [JitterSpec(20.0, 15.0, 4.0), JitterSpec(60.0, 10.0, 0.5)]
    stream = _iter_arrival_tuples(2000.0, 0.5, 7, jitters, services, [2, 3, 5, 7, 11])
    first = itertools.islice(stream, 300)
    return {f"arrival|{k}": repr(arrival) for k, arrival in enumerate(first)}


def topology_digest(topo) -> str:
    """sha256 of a topology's edge list, server and access points."""
    text = repr((topo.edges(), topo.server_id, topo.access_points()))
    return hashlib.sha256(text.encode()).hexdigest()


#: (seed, generator parameters) of the scale-free topologies whose digests
#: ``test_topology.py`` pins and the interpreters must agree on.
SCALE_FREE_CASES = [
    (seed, params)
    for seed in (0, 1, 2, 3, "s")
    for params in ({"n": 400}, {"n": 400, "m": 3, "access_points": 5})
]


def topology_values() -> dict[str, str]:
    return {
        f"scale_free|{seed}|{sorted(params.items())}": topology_digest(
            generate_topology("scale_free", params, seed=seed)
        )
        for seed, params in SCALE_FREE_CASES
    }


def values() -> dict[str, str]:
    return {
        **tau_values(),
        **modularity_values(),
        **decision_values(),
        **corpus_values(),
        **written_corpus_values(),
        **estimator_values(),
        **arrival_values(),
        **topology_values(),
    }


if __name__ == "__main__":
    print(json.dumps(values(), sort_keys=True))
