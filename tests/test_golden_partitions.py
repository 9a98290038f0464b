"""Pinned outputs of the partition pipeline on graphs of 60 to 160 classes.

Each case builds a deterministic graph, runs one Girvan-Newman pass to the
natural cluster count (recording its cuts) and the full enumeration, and
compares a sha256 of both against a digest recorded from the dict-keyed
implementation. Edges go in in a shuffled order, so adjacency insertion
order differs from name order, and class names sort differently from their
numbers ("m1.c10" before "m1.c2").

The same graphs, given seeded method profiles and one pinned class in
about five, also pin ``select_partition``'s verdicts over a grid of link
conditions in both modes; the grid reaches all three verdict sources.
"""

import hashlib
import json
import random

import pytest

from offloadsim import decision as dc
from offloadsim import partition as pt
from offloadsim.partition import PINNED_TAG, MethodProfile

from conftest import make_graph


def ring_of_modules(modules, size, seed):
    """``modules`` dense modules of ``size`` classes, each joined to the
    next around a ring by a few light edges."""
    rng = random.Random(seed)
    names = [[f"m{m}.c{i}" for i in range(size)] for m in range(modules)]
    edges = []
    for group in names:
        for i in range(size):
            edges.append((group[i], group[(i + 1) % size], float(rng.randint(2, 6))))
            for j in range(i + 2, size):
                if (j - i) % size != size - 1 and rng.random() < 0.3:
                    edges.append((group[i], group[j], float(rng.randint(1, 6))))
    for m in range(modules):
        here, there = names[m], names[(m + 1) % modules]
        for _ in range(rng.randint(1, 3)):
            edges.append((rng.choice(here), rng.choice(there), float(rng.randint(1, 3))))
    rng.shuffle(edges)
    return make_graph(edges, isolated=[v for group in names for v in group])


def random_shape(n, p, seed):
    """G(n, p) with weights in {1, 2, 3, 6}, so weighted path lengths tie."""
    rng = random.Random(seed)
    names = [f"k{i}" for i in range(n)]
    edges = [
        (a, b, float(rng.choice((1, 2, 3, 6))))
        for i, a in enumerate(names)
        for b in names[i + 1:]
        if rng.random() < p
    ]
    rng.shuffle(edges)
    return make_graph(edges, isolated=names)


GRAPHS = {
    "ring-8x10": lambda: ring_of_modules(8, 10, seed=5),
    "ring-16x10": lambda: ring_of_modules(16, 10, seed=6),
    "random-60": lambda: random_shape(60, 0.06, seed=7),
    "random-80": lambda: random_shape(80, 0.045, seed=8),
}

GOLDEN = {
    ("ring-8x10", False):
        "9188e1dd0cb020cf6f16f783a6b24f2a95315f654ce680a544feece2da47b953",
    ("ring-8x10", True):
        "98b95f9c56c9a07cf713f26f3a4ee9dfa11e09eb1d8393875ad17cda8ef72588",
    ("ring-16x10", False):
        "3c7badf999194a0212eda408e76bbf0a237d6e11bd69be5de7242ce18a21342f",
    ("ring-16x10", True):
        "bfbbdee4c33c4885d1fb99ca235494bcc0e5cfda685c50c5fe20af3248df2591",
    ("random-60", False):
        "3b15cc08c3c0572daccedb4761ec92929e5e45fd847ccad431188ab2232794c3",
    ("random-60", True):
        "f7584cfbecfd3b91be6fd59b7e227a3677014bb8bbc9593e982ff904ff65ce83",
    ("random-80", False):
        "d922f6442635596e3f9bd6008ab09ce1484f66680dc604d8e7997f5eee8f83ad",
    ("random-80", True):
        "303b5f559a6e5b175d660ca1b15e4a567d5d57db9e5eeb9bbbebf63ec34ae7b7",
}


def digest(graph, weighted):
    natural = pt.louvain_optimal(graph)
    trace = []
    pt.girvan_newman(graph, natural.n_clusters, weighted, trace=trace)
    sets = pt.enumerate_partition_sets(graph, weighted, natural=natural.n_clusters)
    doc = {
        "natural": [natural.n_clusters, natural.modularity, natural.clusters],
        "trace": trace,
        "sets": [[p.n_clusters, p.modularity, p.clusters, p.offloadable] for p in sets],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("name, weighted", sorted(GOLDEN))
def test_partition_outputs_match_recorded_digest(name, weighted):
    assert digest(GRAPHS[name](), weighted) == GOLDEN[(name, weighted)]


def profiled(name, seed=11):
    """``GRAPHS[name]`` with zero to three seeded methods per class and
    about one class in five pinned."""
    graph = GRAPHS[name]()
    rng = random.Random(seed)
    for v in sorted(graph.vertices):
        node = graph.vertices[v]
        node.methods = [
            MethodProfile(
                name=f"m{k}",
                invocations=float(rng.randint(0, 40)),
                t_local_s=rng.uniform(0.0, 0.2),
                in_bytes=float(rng.randint(0, 20000)),
                out_bytes=float(rng.randint(0, 20000)),
                energy_local_j=rng.uniform(0.0, 0.05),
                cpu_scale_hint=rng.choice((0.5, 1.0, 2.0)),
            )
            for k in range(rng.randint(0, 3))
        ]
        if rng.random() < 0.2:
            node.tags.add(PINNED_TAG)
    return graph


LINKS = [
    dc.NetworkConditions(rtt_s=rtt, bandwidth_bytes_per_s=bandwidth, cpu_speedup=speedup)
    for rtt in (0.001, 0.02, 0.1, 0.4)
    for bandwidth in (1e4, 1e6, 1e8)
    for speedup in (1.0, 4.0, 16.0)
]
ENERGY = dc.EnergyModel(
    energy_per_tx_byte_j=1e-7, energy_per_rx_byte_j=5e-8, energy_idle_per_s_j=0.1
)

# Recorded from the implementation that judged every class afresh in each
# partition set. Of the 288 verdicts, 120 end local-only, 100
# singleton-fallback and 68 partition.
DECIDE_GOLDEN = {
    "random-60": {
        "any": "7d4865ced00135de61a25304162fe549048407c4601e57f10669fc0e5a9846fe",
        "all": "e44b62cda327cb15762699519c65612efdd9c8dd9965ee5bd1c4a3021c6fe4cd",
    },
    "random-80": {
        "any": "7a99d44c735943cfbfd35eb4d2404bd6d60440b5614957426495b61173dc6e9d",
        "all": "37fe4411a8bbfbad150b7f20a7b9b9081139c67818e65520a00e1bfea91e648f",
    },
    "ring-16x10": {
        "any": "c044a66b21fc1443a9adff21a98e73adeb316a3dc6235f26098b9a433c7527fa",
        "all": "c044a66b21fc1443a9adff21a98e73adeb316a3dc6235f26098b9a433c7527fa",
    },
    "ring-8x10": {
        "any": "062db0ceef609746e6bf80eff923f14e2bb2ea875f67f52c4beb867e85b861b6",
        "all": "062db0ceef609746e6bf80eff923f14e2bb2ea875f67f52c4beb867e85b861b6",
    },
}


def decide_digest(graph, sets, mode):
    verdicts = [dc.select_partition(sets, graph, cond, ENERGY, mode).to_dict() for cond in LINKS]
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_decide_verdicts_match_recorded_digest(name):
    graph = profiled(name)
    sets = pt.enumerate_partition_sets(graph)
    digests = {mode: decide_digest(graph, sets, mode) for mode in ("any", "all")}
    assert digests == DECIDE_GOLDEN[name]


def test_each_class_is_judged_at_most_once_per_boundary_status(monkeypatch):
    """Five of the seven partition sets hold the same offloadable module of
    ten classes and nothing passes on this link, so the walk meets each of
    those classes six times, the fallback included."""
    graph = profiled("ring-8x10")
    sets = pt.enumerate_partition_sets(graph)
    calls = []
    build = dc.build_class_profile

    def counting(graph, name, cluster):
        calls.append(name)
        return build(graph, name, cluster)

    monkeypatch.setattr(dc, "build_class_profile", counting)
    cond = dc.NetworkConditions(rtt_s=0.4, bandwidth_bytes_per_s=1e4, cpu_speedup=1.0)
    assert dc.select_partition(sets, graph, cond, ENERGY).source == "local-only"
    # The fallback judges every unpinned class, and nothing judges more.
    unpinned = {v for v, node in graph.vertices.items() if PINNED_TAG not in node.tags}
    assert set(calls) == unpinned
    assert max(calls.count(v) for v in unpinned) <= 2
