"""Whole-system checks with pinned tolerances and runtime budgets.

Each test drives the public surface the way a user would, comparing the
result against a closed-form value or one of the independent oracles kept
in the per-module suites. Budgets are asserted with a wall clock so a
performance regression fails loudly instead of silently bloating CI.
"""

import json
import math
import random
import statistics
import time
from dataclasses import replace

import pytest

from offloadsim import decision as dc
from offloadsim import partition as pt
from offloadsim import simulator as sim
from offloadsim import workload as wl
from offloadsim.appstats import AppRecord, Corpus, synth_corpus, unique_class_fraction
from offloadsim.topology import generate_topology
from offloadsim.workload import ServiceSpec

from conftest import reference_modularity
from test_cli import CORPUS_TEXT, GRAPH_DOC, run_cli
from test_decision import (
    random_profile,
    straight_line_energy_valid,
    straight_line_time_valid,
)
from test_partition import all_set_partitions, random_graph, two_cliques_with_bridge
from test_workload import rescan_rate


def test_single_queue_concurrency_matches_stationary_value():
    # One node at offered utilization 0.5 admitting everything: the mean
    # number in system must settle at rho / (1 - rho) = 1.0 over a million
    # arrivals. Capacity 64 keeps the admission threshold out of reach, so
    # nothing is ever dropped.
    start = time.perf_counter()
    topo = generate_topology("line", {"n": 1, "cpu": 64.0, "mem": 64.0})
    cfg = sim.ScenarioConfig(
        topology=topo,
        services=[ServiceSpec(name="job", mean_exec_time_s=0.01, cpu_cost=1.0)],
        base_rate_per_s=50.0,
        horizon_s=20000.0,
        warmup_s=2000.0,
        strategy="none",
        server_executes=True,
        sample_interval_ms=0.0,
        seed=7,
    )
    metrics = sim.run_scenario(cfg)
    assert metrics.gross_arrivals > 990_000
    assert metrics.dropped == 0
    concurrency = metrics.tau * 64.0
    assert concurrency == pytest.approx(1.0, abs=0.05)
    assert time.perf_counter() - start < 30.0


def test_overloaded_node_executes_the_admitted_substream():
    # Offered 2000/s against mu = 1000/s with equal cpu capacity and
    # demand: the admission probability settles at 0.5 * 1000/2000 = 0.25,
    # so the executed substream must run at 500/s. The long horizon lets
    # the smoothed service statistics converge before measuring.
    start = time.perf_counter()
    topo = generate_topology("line", {"n": 1, "cpu": 1.0, "mem": 1.0})
    base = sim.ScenarioConfig(
        topology=topo,
        services=[ServiceSpec(name="unit", mean_exec_time_s=0.001, cpu_cost=1.0)],
        base_rate_per_s=2000.0,
        horizon_s=90.0,
        warmup_s=30.0,
        strategy="proactive",
        proactive_forwarding=False,
        ttl=4,
        buffer_size=1024,
        server_executes=True,
        sample_interval_ms=0.0,
        seed=0,
    )
    for seed in (1, 2, 3, 5, 8, 11):
        metrics = sim.run_scenario(replace(base, seed=seed))
        rate = metrics.executed / 60.0
        assert rate == pytest.approx(500.0, rel=0.03)
        assert metrics.per_node_mean_load[0] <= 1.05
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("k", [8, 128, 1024])
def test_incremental_rate_tracks_window_rescan_for_long_streams(k):
    # The window of interval entries telescopes to the span between the
    # oldest and newest retained timestamps, so the constant-time estimate
    # can be checked against raw timestamps at every single step.
    start = time.perf_counter()
    rng = random.Random(1000 + k)
    state = wl.new_estimator(k=k)
    stamps: list[float] = []
    t = 0.0
    for i in range(100_000):
        t += rng.expovariate(100.0)
        stamps.append(t)
        state.record_arrival(t)
        if i == 0:
            continue
        valid = min(i + 1, k)
        expected = (valid - 1) / (stamps[-1] - stamps[-valid])
        got = state.lambda_hat
        assert abs(got - expected) <= 1e-9 * expected
        if i % 2500 == 0:
            full = rescan_rate(stamps, k)
            assert abs(got - full) <= 1e-9 * full
    assert time.perf_counter() - start < 5.0


def test_congestion_strategies_order_drops_and_throughput():
    # Under sustained 8x overload the drop fraction must fall and the mean
    # executor utilization must rise as coordination increases, on both a
    # chain and a lattice, for at least 90% of seeds.
    start = time.perf_counter()
    for preset in ("overload-line", "overload-grid"):
        cfg = sim.PRESETS[preset]()
        psi_ordered = tau_ordered = 0
        psi_proactive_max = 0.0
        for seed in range(1, 31):
            runs = {
                strategy: sim.run_scenario(replace(cfg, strategy=strategy, seed=seed))
                for strategy in ("none", "passive", "proactive")
            }
            if runs["none"].psi > runs["passive"].psi > runs["proactive"].psi:
                psi_ordered += 1
            if runs["none"].tau < runs["passive"].tau < runs["proactive"].tau:
                tau_ordered += 1
            psi_proactive_max = max(psi_proactive_max, runs["proactive"].psi)
        assert psi_ordered >= 27, f"{preset}: drop ordering held in {psi_ordered}/30 seeds"
        assert tau_ordered >= 27, f"{preset}: load ordering held in {tau_ordered}/30 seeds"
        if preset == "overload-line":
            assert psi_proactive_max < 0.05
    assert time.perf_counter() - start < 120.0


def _window_peak(metrics, node_id, t_lo, t_hi):
    col = metrics.sample_node_ids.index(node_id)
    return max(
        (row[col] for t, row in zip(metrics.sample_times_ms, metrics.sample_loads)
         if t_lo <= t < t_hi),
        default=0.0,
    )


def _uptake_time(metrics, node_id, t_from, eps=0.05):
    col = metrics.sample_node_ids.index(node_id)
    for t, row in zip(metrics.sample_times_ms, metrics.sample_loads):
        if t >= t_from and row[col] >= eps:
            return t
    return math.inf


def test_rate_surges_reach_the_second_hop_and_flatten_when_warm():
    # Two identical surges hit the jitter preset. Warm estimators must (a)
    # push load onto the second executor no later than the passive
    # baseline does, (b) flatten the repeat surge on the first executor in
    # most seeds, while (c) the passive baseline still concentrates at
    # least three quarters of all executions on that first executor.
    start = time.perf_counter()
    seeds = range(1, 31)
    proactive = [
        sim.run_scenario(replace(sim.PRESETS["fig3"](), strategy="proactive", seed=s))
        for s in seeds
    ]
    passive = [
        sim.run_scenario(replace(sim.PRESETS["fig3"](), strategy="passive", seed=s))
        for s in seeds
    ]

    surge2_start = 70.0
    uptake_pro = [_uptake_time(m, 2, surge2_start) for m in proactive]
    uptake_pas = [_uptake_time(m, 2, surge2_start) for m in passive]
    assert all(math.isfinite(u) for u in uptake_pro)
    assert all(math.isfinite(u) for u in uptake_pas)
    assert statistics.fmean(uptake_pro) <= statistics.fmean(uptake_pas)

    flattened = sum(
        1 for m in proactive if _window_peak(m, 1, 70.0, 100.0) < _window_peak(m, 1, 40.0, 70.0)
    )
    assert flattened >= 24, f"repeat surge flattened in only {flattened}/30 seeds"

    share = sum(m.per_node_executed[1] for m in passive) / sum(m.executed for m in passive)
    assert share >= 0.75
    assert time.perf_counter() - start < 60.0


def test_bridged_cliques_always_split_at_the_bridge():
    start = time.perf_counter()
    for _ in range(5):
        g, left, right, bridge = two_cliques_with_bridge()
        trace: list[tuple[str, str]] = []
        pset = pt.girvan_newman(g, 2, trace=trace)
        assert {frozenset(c) for c in pset.clusters} == {frozenset(left), frozenset(right)}
        assert trace[0] == tuple(sorted(bridge))
    assert time.perf_counter() - start < 1.0


def test_greedy_clustering_matches_exhaustive_search_on_small_graphs():
    start = time.perf_counter()
    rng = random.Random(2026)
    exact = 0
    for _ in range(50):
        g = random_graph(rng, rng.randint(4, 8), p=0.5)
        names = g.names()
        edges = g.edge_list()
        best = max(reference_modularity(edges, blocks) for blocks in all_set_partitions(names))
        got = pt.louvain_optimal(g).modularity
        assert got <= best + 1e-9
        if abs(got - best) <= 1e-9:
            exact += 1
    assert exact >= 45, f"greedy hit the optimum on {exact}/50 graphs"
    assert time.perf_counter() - start < 60.0


def test_offload_gates_agree_with_straight_line_evaluation():
    start = time.perf_counter()
    rng = random.Random(909)
    for _ in range(1000):
        profile = random_profile(rng)
        cond = dc.NetworkConditions(
            rtt_s=rng.uniform(1e-4, 0.3),
            bandwidth_bytes_per_s=10.0 ** rng.uniform(4.0, 8.0),
            cpu_speedup=rng.uniform(0.5, 8.0),
        )
        model = dc.EnergyModel(
            energy_per_tx_byte_j=rng.uniform(0.0, 5e-7),
            energy_per_rx_byte_j=rng.uniform(0.0, 5e-7),
            energy_idle_per_s_j=rng.uniform(0.0, 0.5),
        )
        assert dc.class_valid_time(profile, cond) is straight_line_time_valid(profile, cond)
        assert dc.class_valid_energy(profile, cond, model) is straight_line_energy_valid(
            profile, cond, model
        )
    assert time.perf_counter() - start < 5.0


def test_corpus_overlap_matches_closed_form_ground_truth():
    # Six apps share one corpus-wide library plus one library per block of
    # three, all sized so every fraction and the dedup total have exact
    # closed forms.
    start = time.perf_counter()
    pool_classes = 20
    group_classes = 12
    apps = []
    for i in range(6):
        per_class = 100.0 + 10.0 * i
        own = 10 + 5 * i
        total = own + pool_classes + group_classes
        apps.append(
            AppRecord(
                app_id=f"app{i}",
                dex_size_bytes=int(total * per_class),
                packages={
                    "org.sharedpool.libcore": pool_classes,
                    f"grouplib{i // 3}.shared.core": group_classes,
                    f"vendor{i}.app.pkg": own,
                },
            )
        )
    corpus = Corpus(apps=apps)
    report = unique_class_fraction(corpus, depth=2)
    for i in range(6):
        own = 10 + 5 * i
        expected = 100.0 * own / (own + pool_classes + group_classes)
        assert report.per_app_unique_fraction[f"app{i}"] == pytest.approx(expected, abs=1e-9)

    sizes = [100.0 + 10.0 * i for i in range(6)]
    naive = sum(a.dex_size_bytes for a in apps)
    dedup = (
        sum((10 + 5 * i) * sizes[i] for i in range(6))
        + pool_classes * sizes[5]
        + group_classes * sizes[2]
        + group_classes * sizes[5]
    )
    assert report.storage_savings == pytest.approx(1.0 - dedup / naive, abs=1e-9)

    for seed in (0, 1):
        synth = synth_corpus(20, seed=seed)
        previous = None
        for depth in range(1, 9):
            fractions = unique_class_fraction(synth.corpus, depth=depth).per_app_unique_fraction
            if previous is not None:
                for app_id, value in fractions.items():
                    assert value >= previous[app_id] - 1e-9
            previous = fractions
    assert time.perf_counter() - start < 10.0


def test_every_subcommand_is_byte_deterministic(tmp_path):
    start = time.perf_counter()
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH_DOC))
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(CORPUS_TEXT)

    file_commands = [
        ("simulate", "--preset", "fig3", "--seed", 3, "--out"),
        ("simulate", "--preset", "fig3", "--seeds", "1..3", "--out"),
    ]
    for n, command in enumerate(file_commands):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"cmd{n}{attempt}"
            res = run_cli(*command, out)
            assert res.returncode == 0
            outputs.append((res.stdout, out))
        (stdout_a, dir_a), (stdout_b, dir_b) = outputs
        assert stdout_a == stdout_b
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    stdout_commands = [
        ("partition", "--graph", graph),
        ("decide", "--graph", graph, "--rtt-ms", 25, "--bandwidth-bytes-per-s", 5e5),
        ("appstats", "--corpus", corpus, "--depth", 3),
    ]
    for command in stdout_commands:
        first = run_cli(*command)
        second = run_cli(*command)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
    assert time.perf_counter() - start < 60.0
