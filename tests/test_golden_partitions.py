"""Pinned outputs of the partition pipeline on graphs of 60 to 160 classes.

Each case builds a deterministic graph, runs one Girvan-Newman pass to the
natural cluster count (recording its cuts) and the full enumeration, and
compares a sha256 of both against a digest recorded from the dict-keyed
implementation. Edges go in in a shuffled order, so adjacency insertion
order differs from name order, and class names sort differently from their
numbers ("m1.c10" before "m1.c2").
"""

import hashlib
import json
import random

import pytest

from offloadsim import partition as pt

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
