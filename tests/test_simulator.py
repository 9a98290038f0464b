"""End-to-end event-loop behavior: conservation, determinism, accounting."""

import csv
import dataclasses
import io
import json
import math
import operator
import statistics
from pathlib import Path

import pytest

import conftest

from offloadsim import simulator as sim
from offloadsim import topology as tp
from offloadsim.emit import _row_changes, _series_csv, _series_json
from offloadsim.topology import NodeSpec, Topology, generate_topology
from offloadsim.workload import JitterSpec, ServiceSpec, _iter_arrival_tuples

from conftest import line_topology


def small_config(**overrides):
    base = dict(
        topology=line_topology(4, cpu=2.0),
        services=[ServiceSpec(name="s", mean_exec_time_s=0.002)],
        base_rate_per_s=400.0,
        horizon_s=0.5,
        strategy="passive",
        buffer_size=16,
        sample_interval_ms=5.0,
        seed=3,
    )
    base.update(overrides)
    return sim.ScenarioConfig(**base)


def test_zero_arrival_window_yields_zero_metrics():
    # A horizon shorter than any plausible interarrival gap at a tiny rate.
    cfg = small_config(base_rate_per_s=1e-6, horizon_s=0.001, warmup_s=0.0)
    m = sim.run_scenario(cfg)
    assert m.total_arrivals == 0
    assert m.executed == 0
    assert m.dropped == 0
    assert m.psi == 0.0
    assert m.phi_ms == 0.0
    assert m.tau == 0.0


def test_identical_seed_identical_metrics():
    cfg = small_config(strategy="proactive")
    a = sim.run_scenario(cfg)
    b = sim.run_scenario(cfg)
    assert a == b


def test_seed_changes_metrics():
    a = sim.run_scenario(small_config(seed=1))
    b = sim.run_scenario(small_config(seed=2))
    assert a != b


@pytest.mark.parametrize("strategy", ["none", "passive", "proactive"])
def test_every_request_settles_exactly_once(strategy):
    cfg = small_config(strategy=strategy, base_rate_per_s=1500.0, horizon_s=1.0)
    m = sim.run_scenario(cfg)
    assert m.executed + m.dropped == m.total_arrivals
    assert m.gross_executed + m.gross_dropped == m.gross_arrivals
    assert 0.0 <= m.psi <= 1.0


def test_psi_counts_only_counted_requests():
    cfg = small_config(base_rate_per_s=3000.0, horizon_s=1.0, warmup_s=0.5)
    m = sim.run_scenario(cfg)
    assert m.total_arrivals < m.gross_arrivals
    assert m.psi == pytest.approx(m.dropped / m.total_arrivals)


def test_local_execution_latency_has_no_network_component():
    # A lightly loaded access point executes everything itself, so phi is
    # the queueing sojourn alone (about 2.1 ms here); a single forwarded
    # hop would add at least the 2 ms link round trip on top.
    cfg = small_config(
        topology=line_topology(2, cpu=50.0),
        base_rate_per_s=20.0,
        horizon_s=10.0,
        strategy="none",
        warmup_s=0.5,
    )
    m = sim.run_scenario(cfg)
    assert m.psi == 0.0
    assert m.per_node_executed.get(0, 0) == m.executed
    assert 1.5 < m.phi_ms < 3.5


def test_forwarded_requests_pay_link_round_trip():
    # Requests enter at a relay and execute one 3 ms hop away, so phi is
    # the 6 ms round trip plus the roughly 2.1 ms sojourn at node 1.
    nodes = [
        NodeSpec(0, 1.0, 1.0, is_access_point=True, is_relay=True),
        NodeSpec(1, cpu_capacity=500.0, mem_capacity=1.0),
        NodeSpec(2, cpu_capacity=1.0, mem_capacity=1.0),
    ]
    topo = Topology(nodes, [(0, 1, 3.0), (1, 2, 3.0)], server_id=2)
    cfg = small_config(
        topology=topo,
        base_rate_per_s=20.0,
        horizon_s=10.0,
        strategy="passive",
        warmup_s=0.5,
    )
    m = sim.run_scenario(cfg)
    assert m.psi == 0.0
    assert m.per_node_executed.get(0, 0) == 0
    assert m.per_node_executed.get(1, 0) == m.executed
    assert m.phi_ms == pytest.approx(6.0 + 2.08, rel=0.15)


def test_relay_node_never_executes():
    nodes = [
        NodeSpec(0, 1.0, 1.0, is_access_point=True, is_relay=True),
        NodeSpec(1, 5.0, 1.0),
        NodeSpec(2, 5.0, 1.0),
    ]
    topo = Topology(nodes, [(0, 1, 1.0), (1, 2, 1.0)], server_id=2)
    cfg = small_config(topology=topo, base_rate_per_s=300.0, horizon_s=1.0,
                       strategy="proactive")
    m = sim.run_scenario(cfg)
    assert m.per_node_executed.get(0, 0) == 0
    assert m.executed > 0


def scripted_run(cfg, arrivals, durations, draws):
    """Run ``cfg`` with external arrivals at the given ``(time, node)``
    pairs (every node here is an access point), and with service times and
    admission draws taken in order from ``durations`` and ``draws``. The
    push-gossip reference must agree."""
    with conftest.scripted_runs(arrivals, durations, draws):
        m = sim.run_scenario(cfg)
        assert m == conftest.reference_run_scenario(cfg)
    return m


def fork_config(delay_ms):
    """Node 0 forwards to executor neighbours 1 and 2 over ``delay_ms``
    links; nodes 0-2 take arrivals, node 3 is the sink server, and
    heartbeats run every 10 ms. Node 0's first two requests warm its
    estimator (buffer 2), so later close arrivals there see a small q."""
    nodes = [
        NodeSpec(0, 1.0, 1.0, is_access_point=True),
        NodeSpec(1, 1.0, 1.0, is_access_point=True),
        NodeSpec(2, 2.0, 1.0, is_access_point=True),
        NodeSpec(3, 1.0, 1.0),
    ]
    edges = [(0, 1, delay_ms), (0, 2, delay_ms), (1, 3, 1.0), (2, 3, 1.0)]
    return small_config(
        topology=Topology(nodes, edges, server_id=3),
        strategy="proactive",
        buffer_size=2,
        ttl=4,
        gossip_period_ms=10.0,
        horizon_s=0.03,
        warmup_s=0.0,
        sample_interval_ms=0.0,
    )


# Node 0's warm-up: two requests of 3 ms each, done by 7 ms.
WARM_UP = [(0.001, 0), (0.0011, 0)]


def test_heartbeat_is_not_visible_to_arrivals_at_its_own_instant():
    # Over 0 ms links the 10 ms heartbeat runs after the arrivals at 10 ms:
    # the one at 10 ms still reads nothing from node 1 (busy since 5 ms)
    # and picks it by id; the one at 10.1 ms reads the snapshot and picks 2.
    m = scripted_run(
        fork_config(0.0),
        WARM_UP + [(0.005, 1), (0.0099, 0), (0.01, 0), (0.0101, 0)],
        durations=[0.003, 0.003, 0.05, 0.05, 0.05],
        draws=[0.0, 0.0, 0.0, 0.0, 0.99, 0.0, 0.99, 0.0],
    )
    assert m.forwarded == 2
    assert m.per_node_executed == {0: 3, 1: 2, 2: 1, 3: 0}


@pytest.mark.parametrize(
    "delay_ms,lands,target",
    [(1.0, 0.011, 1), (0.0, 0.01, 2)],
)
def test_completion_and_heartbeat_at_the_same_instant(delay_ms, lands, target):
    # Node 1 finishes at exactly 10 ms (load 0.0) and then admits a request
    # at 10 ms, so the 10 ms heartbeat shows it at 1.0; node 2 reads 0.0.
    # Over a 1 ms link both land at 11 ms and the completion, applied after
    # the heartbeat, stands: node 0 picks node 1 by id. Over a 0 ms link the
    # heartbeat lands after the completion and wins: node 0 picks node 2.
    assert 0.005 + 0.005 == 0.01
    read = lands + 0.0001
    m = scripted_run(
        fork_config(delay_ms),
        WARM_UP + [(0.005, 1), (0.01, 1), (read - 0.0002, 0), (read, 0)],
        durations=[0.003, 0.003, 0.005, 0.05, 0.05],
        draws=[0.0, 0.0, 0.0, 0.0, 0.0, 0.99, 0.0],
    )
    assert m.forwarded == 1
    assert m.per_node_executed == {0: 3, 1: 2 + (target == 1), 2: int(target == 2), 3: 0}


def test_last_of_two_simultaneous_completions_wins():
    # Node 1 finishes two requests at exactly 12 ms (the second takes
    # 1e-20 s): loads 1.0, then 0.0, which reach node 0 at 13 ms. Node 2
    # shows 0.5 since the 10 ms heartbeat. Only the later completion makes
    # node 1 the lighter one.
    assert 0.003 + 0.009 == 0.012 == 0.012 + 1e-20
    m = scripted_run(
        fork_config(1.0),
        WARM_UP + [(0.003, 1), (0.0035, 1), (0.005, 2), (0.0133, 0), (0.0135, 0)],
        durations=[0.003, 0.009, 0.003, 0.05, 1e-20, 0.05],
        draws=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.99, 0.0],
    )
    assert m.forwarded == 1
    assert m.per_node_executed == {0: 3, 1: 3, 2: 1, 3: 0}


def test_tiny_normal_capacities_give_finite_metrics():
    # A capacity of 1e-300 has a finite reciprocal, so it is accepted; loads
    # on the fig3 chain reach about 1e301, and every metric stays finite.
    topo = generate_topology("line", {"n": 4, "cpu": 1e-300, "mem": 1e-300})
    m = sim.run_scenario(dataclasses.replace(sim.preset_fig3("proactive"), topology=topo))
    assert m.executed > 0
    for value in (m.tau, m.phi_ms, m.psi):
        assert math.isfinite(value)
    assert all(math.isfinite(x) for row in m.sample_loads for x in row)


def test_loads_that_overflow_are_refused():
    # 1/3e-308 is finite, so the capacity is accepted; a few queued requests
    # on the fig3 chain overflow the load, and tau would read inf.
    topo = generate_topology("line", {"n": 4, "cpu": 3e-308, "mem": 4.0})
    with pytest.raises(sim.ConfigError, match="tau is not finite"):
        sim.run_scenario(dataclasses.replace(sim.preset_fig3("proactive"), topology=topo))


def test_a_series_load_that_overflows_before_warmup_is_refused():
    # One request of cpu cost 10 at capacity 3e-308 overflows the load while
    # it runs, from 1.5 to 3.5 ms, all before the warmup: every time-weighted
    # metric stays finite and only the 2 ms and 3 ms samples read inf.
    cfg = small_config(
        topology=line_topology(2, cpu=3e-308),
        services=[ServiceSpec(name="s", mean_exec_time_s=0.002, cpu_cost=10.0)],
        strategy="none",
        warmup_s=0.4,
        sample_interval_ms=1.0,
    )
    with conftest.scripted_runs([(0.0015, 0)], [0.002], []):
        with pytest.raises(sim.ConfigError, match="a series load is not finite"):
            sim.run_scenario(cfg)
    with conftest.scripted_runs([(0.0015, 0)], [0.002], []):
        m = sim.run_scenario(dataclasses.replace(cfg, sample_interval_ms=0.0))
    assert m.gross_executed == 1 and math.isfinite(m.tau)


def test_sink_server_drops_when_not_executing():
    cfg = small_config(
        topology=line_topology(2, cpu=1.0),
        base_rate_per_s=4000.0,
        horizon_s=0.5,
        strategy="passive",
        warmup_s=0.0,
    )
    m = sim.run_scenario(cfg)
    assert m.dropped > 0
    assert m.per_node_executed.get(1, 0) == 0


def test_server_executes_flag_absorbs_overflow():
    cfg = small_config(
        topology=line_topology(2, cpu=1.0),
        base_rate_per_s=4000.0,
        horizon_s=0.5,
        strategy="passive",
        warmup_s=0.0,
        server_executes=True,
    )
    m = sim.run_scenario(cfg)
    assert m.per_node_executed.get(1, 0) > 0


def test_warmup_excluded_from_counts():
    cfg = small_config(horizon_s=1.0, warmup_s=0.9)
    m = sim.run_scenario(cfg)
    late = sim.run_scenario(dataclasses.replace(cfg, warmup_s=0.0))
    assert m.gross_arrivals == late.gross_arrivals
    assert m.total_arrivals < late.total_arrivals


def test_run_batch_sweeps_seeds():
    cfg = small_config()
    runs = sim.run_batch(cfg, seeds=[1, 2, 3])
    assert [r.seed for r in runs] == [1, 2, 3]
    agg = sim.aggregate_metrics(runs)
    assert agg["runs"] == 3
    # The mean and the sample (not the population) standard deviation.
    for key in ("tau", "phi_ms", "psi"):
        values = [getattr(r, key) for r in runs]
        assert len(set(values)) > 1
        assert agg[key] == {"mean": statistics.fmean(values), "std": statistics.stdev(values)}
    assert sim.aggregate_metrics(runs[:1])["tau"]["std"] == 0.0


def test_hop_diameter_is_computed_once_per_topology(monkeypatch):
    calls = []
    diameter = tp._bit_parallel_diameter

    def counted(adj):
        calls.append(len(adj))
        return diameter(adj)

    monkeypatch.setattr(tp, "_bit_parallel_diameter", counted)
    cfg = small_config(strategy="proactive", topology=line_topology(5), ttl=None)
    runs = sim.run_batch(cfg, seeds=range(1, 6))
    assert len(runs) == 5
    assert calls == [5]
    sim.run_scenario(small_config(strategy="none", topology=line_topology(6), ttl=None))
    assert calls == [5]


def scale_free_proactive(**overrides):
    """A lightly loaded scale-free run shaped like the benchmark's: n=400,
    m=2, two 4x surges, 1 ms gossip and sampling, and the default TTL."""
    doc = {
        "topology": {"generate": {"kind": "scale_free", "n": 400, "m": 2,
                                  "cpu": 3.0, "mem": 4.0, "seed": 0}},
        "services": [{"id": "task", "mean_exec_time_s": 0.002}],
        "base_rate_per_s": 400.0,
        "horizon_s": 0.1,
        "jitters": [
            {"start_ms": 30.0, "duration_ms": 10.0, "rate_multiplier": 4.0},
            {"start_ms": 60.0, "duration_ms": 10.0, "rate_multiplier": 4.0},
        ],
        "strategy": "proactive",
        **overrides,
    }
    return sim.scenario_from_dict(doc)


def test_default_ttl_run_without_a_second_hop_computes_no_diameter(monkeypatch):
    calls = []
    diameter = tp._bit_parallel_diameter

    def counted(adj):
        calls.append(len(adj))
        return diameter(adj)

    monkeypatch.setattr(tp, "_bit_parallel_diameter", counted)
    lazy = sim.run_scenario(scale_free_proactive())
    assert calls == []
    explicit = scale_free_proactive()
    explicit.ttl = 2 * explicit.topology.hop_diameter()
    assert calls == [400]
    assert lazy == sim.run_scenario(explicit)
    assert calls == [400]


def test_single_node_default_ttl_is_spent_at_once():
    lone = Topology([NodeSpec(0, 1.0, 1.0, is_access_point=True)], [], 0)
    lazy = sim.run_scenario(small_config(
        topology=lone, strategy="proactive", server_executes=True, ttl=None))
    spent = sim.run_scenario(small_config(
        topology=lone, strategy="proactive", server_executes=True, ttl=0))
    assert lazy == spent
    assert lazy.executed > 0


def test_estimators_are_built_only_where_requests_arrive(monkeypatch):
    built, arrived = [], []
    make = sim.new_estimator

    class Watched:
        """An estimator that notes each arrival recorded into it."""

        def __init__(self, core):
            self.core = core

        def record_arrival(self, t):
            arrived.append(self)
            return self.core.record_arrival(t)

        def __getattr__(self, name):
            return getattr(self.core, name)

    def counted_make(*args):
        built.append(Watched(make(*args)))
        return built[-1]

    monkeypatch.setattr(sim, "new_estimator", counted_make)
    topo = generate_topology("scale_free", {"n": 60, "m": 2, "cpu": 3.0, "mem": 4.0}, seed=2)
    cfg = small_config(strategy="proactive", topology=topo, horizon_s=0.05)
    m = sim.run_scenario(cfg)
    executors = len(topo.nodes) - 1  # every node but the sink server
    assert m.gross_arrivals > 0
    assert {id(e) for e in arrived} == {id(e) for e in built}
    assert 0 < len(built) < executors
    # Each is built for its node's capacities (every node has cpu 3, mem 4).
    assert {(e.k, e.cpu_capacity, e.mem_capacity) for e in built} == {(cfg.buffer_size, 3.0, 4.0)}


@pytest.mark.parametrize(
    "rate, exec_s",
    [
        (400.0, 0.002),  # the sim-scalefree load: idle rows are shared
        (20000.0, 0.02),  # busy enough to forward, reading lazily built feeds
    ],
)
def test_scale_free_400_proactive_matches_the_push_gossip_loop(rate, exec_s):
    topo = generate_topology("scale_free", {"n": 400, "m": 2, "cpu": 3.0, "mem": 4.0}, seed=0)
    cfg = sim.ScenarioConfig(
        topology=topo,
        services=[ServiceSpec(name="task", mean_exec_time_s=exec_s)],
        base_rate_per_s=rate,
        horizon_s=0.1,
        strategy="proactive",
        jitters=[JitterSpec(30.0, 10.0, 4.0), JitterSpec(60.0, 10.0, 4.0)],
        buffer_size=8,
    )
    m = sim.run_scenario(cfg)
    assert m == conftest.reference_run_scenario(cfg)
    assert _series_csv(m, _row_changes(m.sample_loads)) == conftest.reference_series_csv(m)
    assert _series_json(m, _row_changes(m.sample_loads)) == conftest.reference_series_json(m)
    distinct = len({id(row) for row in m.sample_loads})
    if rate == 400.0:
        assert distinct < len(m.sample_loads)
    else:
        assert m.forwarded > 0


@pytest.mark.parametrize("strategy", sim.STRATEGIES)
def test_consecutive_rows_share_every_load_that_no_event_rewrote(strategy):
    # The series emitters re-render only the cells whose float object
    # changed; a run that rebuilt the load vector would make them render
    # every cell again, with the same bytes, and lose the gain unseen.
    topo = generate_topology("scale_free", {"n": 400, "m": 2, "cpu": 3.0, "mem": 4.0}, seed=0)
    cfg = sim.ScenarioConfig(
        topology=topo,
        services=[ServiceSpec(name="task", mean_exec_time_s=0.002)],
        base_rate_per_s=400.0,
        horizon_s=0.1,
        strategy=strategy,
        jitters=[JitterSpec(30.0, 10.0, 4.0), JitterSpec(60.0, 10.0, 4.0)],
        gossip_period_ms=1.0,
        sample_interval_ms=1.0,
    )
    rows = sim.run_scenario(cfg).sample_loads
    changed = [sum(map(operator.is_not, a, b)) for a, b in zip(rows, rows[1:]) if a is not b]
    assert len(changed) > 10
    assert all(0 < count < 0.05 * len(topo.nodes) for count in changed)


def test_export_json_roundtrips(tmp_path):
    m = sim.run_scenario(small_config())
    paths = sim.export_metrics(m, "json", tmp_path, prefix="demo")
    summary = json.loads((tmp_path / "demo_summary.json").read_text())
    assert summary["psi"] == pytest.approx(m.psi)
    assert summary["strategy"] == "passive"
    series = json.loads((tmp_path / "demo_series.json").read_text())
    assert len(series["samples"]) == len(m.sample_times_ms)
    assert [p.name for p in paths] == ["demo_summary.json", "demo_series.json"]


@pytest.mark.parametrize("seed", [3, "a,b"])
def test_csv_summary_holds_the_scalars_of_the_json_summary(tmp_path, seed):
    m = dataclasses.replace(sim.run_scenario(small_config(strategy="proactive")), seed=seed)
    summary = sim._summary_dict(m)
    keys = [k for k in summary if not k.startswith("per_node_")]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(keys)
    w.writerow([repr(summary[k]) if isinstance(summary[k], float) else summary[k] for k in keys])
    summary_path, _ = sim.export_metrics(m, "csv", tmp_path)
    assert summary_path.read_text() == buf.getvalue()


def test_export_bytes_stable(tmp_path):
    m = sim.run_scenario(small_config(strategy="proactive"))
    one = tmp_path / "a"
    two = tmp_path / "b"
    for fmt in ("csv", "json"):
        pa = sim.export_metrics(m, fmt, one)
        pb = sim.export_metrics(m, fmt, two)
        for x, y in zip(pa, pb):
            assert x.read_bytes() == y.read_bytes()


def test_empty_series_exports_header_only_csv(tmp_path):
    cfg = small_config(sample_interval_ms=0.0)
    m = sim.run_scenario(cfg)
    assert m.sample_times_ms == []
    paths = sim.export_metrics(m, "csv", tmp_path)
    series = paths[1].read_text()
    assert series == "time_ms,node_id,normalized_load\n"


def test_zero_drop_summary_has_zero_psi_column(tmp_path):
    cfg = small_config(base_rate_per_s=50.0, topology=line_topology(4, cpu=50.0))
    m = sim.run_scenario(cfg)
    assert m.psi == 0.0
    paths = sim.export_metrics(m, "csv", tmp_path)
    header, row = paths[0].read_text().splitlines()
    psi_value = row.split(",")[header.split(",").index("psi")]
    assert float(psi_value) == 0.0


def test_the_last_sample_may_land_up_to_1e_12_past_the_horizon():
    # Rows are taken while the summed periods stay within horizon_s + 1e-12:
    # a period of exactly that length takes a second row, one float longer
    # does not.
    cfg = small_config(horizon_s=0.001, sample_interval_ms=1.000000001)
    assert cfg.sample_interval_ms / 1000.0 == cfg.horizon_s + 1e-12
    assert len(sim.run_scenario(cfg).sample_times_ms) == 2
    longer = math.nextafter(cfg.sample_interval_ms, math.inf)
    assert len(sim.run_scenario(small_config(horizon_s=0.001, sample_interval_ms=longer))
               .sample_times_ms) == 1


def test_sample_series_shape():
    cfg = small_config(sample_interval_ms=100.0, horizon_s=0.5)
    m = sim.run_scenario(cfg)
    assert m.sample_times_ms == pytest.approx(
        [0.0, 100.0, 200.0, 300.0, 400.0, 500.0])
    for row in m.sample_loads:
        assert len(row) == len(m.sample_node_ids)
        assert all(load >= 0.0 for load in row)


def test_config_validation_raises_config_error():
    with pytest.raises(sim.ConfigError):
        small_config(strategy="bogus").validate()
    with pytest.raises(sim.ConfigError):
        small_config(base_rate_per_s=-1.0).validate()
    with pytest.raises(sim.ConfigError):
        small_config(warmup_s=2.0, horizon_s=1.0).validate()
    with pytest.raises(sim.ConfigError):
        small_config(jitters=[
            JitterSpec(start_ms=0.0, duration_ms=20.0, rate_multiplier=2.0),
            JitterSpec(start_ms=10.0, duration_ms=20.0, rate_multiplier=2.0),
        ]).validate()


@pytest.mark.parametrize(
    "value, error",
    [(1, "at least 2"), (1.5, "at least 2"), (True, "at least 2"), (2.5, "an integer"),
     (64.5, "an integer"), (12.0, "an integer"), ("12", "an integer"), (None, "an integer")],
)
def test_config_validation_refuses_a_buffer_size_that_is_not_an_int_of_at_least_2(value, error):
    # A config built in code reaches only validate, which refuses the value
    # before any event runs: a buffer of 2.5 used to run its ring index past
    # the list mid-run.
    cfg = dataclasses.replace(
        sim.preset_overload_line("proactive"), buffer_size=value, horizon_s=0.3, warmup_s=0.0
    )
    with pytest.raises(sim.ConfigError, match=f"^estimator buffer_size must be {error}"):
        cfg.validate()
    with pytest.raises(sim.ConfigError, match=f"^estimator buffer_size must be {error}"):
        sim.run_scenario(cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["base_rate_per_s", "load_multiplier", "horizon_s", "gossip_period_ms",
     "capacity_threshold", "sample_interval_ms", "warmup_s"],
)
def test_config_validation_rejects_non_finite(field, value):
    with pytest.raises(sim.ConfigError, match=field.split("_")[0]):
        small_config(**{field: value}).validate()


@pytest.mark.parametrize(
    "overrides, field, events",
    [
        ({"sample_interval_ms": 1e-9, "horizon_s": 1.0}, "sample_interval_ms",
         "1e+12 sample rows"),
        ({"strategy": "proactive", "gossip_period_ms": 1e-9, "horizon_s": 1.0},
         "gossip_period_ms", "1e+12 heartbeats"),
        # horizon_s * 1000 overflows to inf.
        ({"horizon_s": 1e306, "warmup_s": 0.0}, "sample_interval_ms", "inf sample rows"),
        # One past the cap: 1000 * horizon_s / period = 100,000,001.
        ({"horizon_s": 100_000.001, "sample_interval_ms": 1.0}, "sample_interval_ms",
         "100000001 sample rows"),
    ],
)
def test_periodic_events_past_the_cap_are_refused(overrides, field, events):
    with pytest.raises(sim.ConfigError) as refused:
        small_config(**overrides).validate()
    message = str(refused.value)
    assert message.startswith(f"{field} ")
    assert events in message
    assert message.endswith(f"more than the cap of {sim.MAX_PERIODIC_EVENTS:,}")


def test_periodic_events_at_the_cap_pass():
    assert 100_000.0 * 1000.0 / 1.0 == sim.MAX_PERIODIC_EVENTS
    small_config(horizon_s=100_000.0, sample_interval_ms=1.0, strategy="proactive",
                 gossip_period_ms=1.0).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"strategy": "passive"},
        {"strategy": "none"},
        {"strategy": "proactive", "proactive_forwarding": False},
    ],
)
def test_heartbeats_count_only_when_a_run_can_schedule_them(overrides):
    small_config(gossip_period_ms=1e-9, **overrides).validate()
    # A rate low enough that the 1e300 s horizon expects a single arrival.
    small_config(sample_interval_ms=0.0, horizon_s=1e300, base_rate_per_s=1e-300,
                 **overrides).validate()


def test_the_schema_states_the_cap():
    schema = json.loads((Path(__file__).parents[1] / "docs/schemas/scenario.json").read_text())
    for field in ("sample_interval_ms", "gossip_period_ms"):
        description = schema["properties"][field]["description"]
        assert f"{sim.MAX_PERIODIC_EVENTS:,}" in description


def test_every_preset_plans_far_fewer_periodic_events_than_the_cap():
    for make in sim.PRESETS.values():
        for strategy in sim.STRATEGIES:
            cfg = make(strategy)
            for period in (cfg.sample_interval_ms, cfg.gossip_period_ms):
                if period > 0.0:
                    assert cfg.horizon_s * 1000.0 / period <= sim.MAX_PERIODIC_EVENTS / 1000


#: A scenario that expects 10**12 external arrivals in one second; without
#: the cap it runs without end.
ARRIVAL_PROBE = {
    "topology": {"generate": {"kind": "line", "n": 3}},
    "services": [{"id": "t", "mean_exec_time_s": 0.001}],
    "base_rate_per_s": 1e12,
    "horizon_s": 1.0,
    "sample_interval_ms": 0,
}


@pytest.mark.parametrize(
    "edit, planned",
    [
        ({}, "1e+12"),
        # 1000/s over 1 s, and 1e9 times that over a 100 ms window.
        ({"base_rate_per_s": 1000.0,
          "jitters": [{"start_ms": 500.0, "duration_ms": 100.0, "rate_multiplier": 1e9}]},
         "1.00000001e+11"),
        # The load multiplier scales the rate; an overflowing product is inf.
        ({"base_rate_per_s": 1e200, "load_multiplier": 1e200}, "inf"),
    ],
)
def test_planned_arrivals_past_the_cap_are_refused(edit, planned):
    doc = {**ARRIVAL_PROBE, **edit}
    with pytest.raises(sim.ConfigError) as refused:
        sim.scenario_from_dict(doc)
    assert str(refused.value) == (
        f"base_rate_per_s {doc['base_rate_per_s']!r} plans {planned} external arrivals over"
        f" horizon_s 1.0, more than the cap of {sim.MAX_PLANNED_ARRIVALS:,}"
    )


def test_planned_work_integrates_the_rate_over_the_jitter_windows():
    # 1000/s x 2 over 1 s, plus x3 over 100 ms, x0.5 over 200 ms and x5 over
    # the 50 ms of a window that the horizon cuts; a window past the
    # horizon adds nothing.
    cfg = small_config(
        base_rate_per_s=1000.0, load_multiplier=2.0, horizon_s=1.0, strategy="proactive",
        gossip_period_ms=4.0, sample_interval_ms=0.0,
        jitters=[JitterSpec(100.0, 100.0, 3.0), JitterSpec(300.0, 200.0, 0.5),
                 JitterSpec(950.0, 100.0, 5.0), JitterSpec(2000.0, 10.0, 1e9)],
    )
    plan = sim.planned_work(cfg)
    assert plan == {
        "sample_interval_ms": 0.0,
        "gossip_period_ms": 250.0,
        "base_rate_per_s": pytest.approx(2000.0 * (1.0 + 2.0 * 0.1 - 0.5 * 0.2 + 4.0 * 0.05)),
    }


def test_planned_arrivals_at_the_cap_pass():
    small_config(base_rate_per_s=1e8, horizon_s=1.0, sample_interval_ms=0.0).validate()
    with pytest.raises(sim.ConfigError):
        small_config(base_rate_per_s=1.0000001e8, horizon_s=1.0, sample_interval_ms=0.0).validate()


def test_the_schema_states_the_arrival_cap():
    schema = json.loads((Path(__file__).parents[1] / "docs/schemas/scenario.json").read_text())
    description = schema["properties"]["base_rate_per_s"]["description"]
    assert f"{sim.MAX_PLANNED_ARRIVALS:,}" in description


def test_every_preset_expects_far_fewer_arrivals_than_the_cap():
    for make in sim.PRESETS.values():
        for strategy in sim.STRATEGIES:
            plan = sim.planned_work(make(strategy))
            assert plan["base_rate_per_s"] <= sim.MAX_PLANNED_ARRIVALS / 1000


#: Inputs that only the arrival stream's checks refuse, as edits of
#: ``small_config``, and the stream's error: popularity weights that are all
#: zero, and a surge whose rate overflows over a window too short for the
#: arrival cap to see (it plans about 4e7 arrivals).
ARRIVAL_REFUSALS = {
    "zero popularity": (
        {"services": [ServiceSpec(name="s", mean_exec_time_s=0.002, popularity_weight=0.0)]},
        "popularity weights must not all be zero",
    ),
    "segment rate overflow": (
        {"jitters": [JitterSpec(start_ms=0.0, duration_ms=1e-300, rate_multiplier=1e308)]},
        "arrival rate must be positive and finite in every rate segment",
    ),
}


@pytest.mark.parametrize("refusal", sorted(ARRIVAL_REFUSALS))
def test_a_run_is_refused_by_the_stream_checks_before_any_route(monkeypatch, refusal):
    edit, error = ARRIVAL_REFUSALS[refusal]
    cfg = small_config(strategy="passive", **edit)
    assert sim.planned_work(cfg)["base_rate_per_s"] < sim.MAX_PLANNED_ARRIVALS
    with pytest.raises(sim.ConfigError, match=error):
        cfg.validate()

    def unreachable(self, node_id):
        raise AssertionError("set-up asked for a route")

    monkeypatch.setattr(Topology, "next_hop_toward_server", unreachable)
    with pytest.raises(sim.ConfigError, match=error):
        sim.run_scenario(cfg)


def test_jitter_overlap_message_matches_the_stream_check():
    jitters = [
        JitterSpec(start_ms=0.0, duration_ms=20.0, rate_multiplier=2.0),
        JitterSpec(start_ms=10.0, duration_ms=20.0, rate_multiplier=2.0),
    ]
    cfg = small_config(jitters=jitters)
    with pytest.raises(sim.ConfigError) as from_config:
        cfg.validate()
    with pytest.raises(ValueError) as from_stream:
        list(_iter_arrival_tuples(100.0, 0.1, 0, jitters, cfg.services, [0]))
    assert str(from_config.value) == str(from_stream.value)
    assert "jitter windows overlap" in str(from_config.value)


GENERATED_DOC = {
    "name": "gen",
    "topology": {"generate": {"kind": "line", "n": 3, "seed": 1}},
    "services": [{"id": "s", "mean_exec_time_s": 0.001}],
    "base_rate_per_s": 100.0,
    "horizon_s": 0.2,
    "strategy": "proactive",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("proactive_forwarding", "false"),
        ("proactive_forwarding", 0),
        ("server_executes", "true"),
        ("server_executes", None),
        ("buffer_size", 12.9),
        ("buffer_size", 12.0),
        ("buffer_size", "12"),
        ("buffer_size", True),
        ("ttl", 2.5),
        ("ttl", False),
        ("seed", [1, 2]),
        ("seed", 1.5),
        ("seed", True),
        ("seed", None),
    ],
)
def test_scenario_from_dict_refuses_a_value_of_the_wrong_type(key, value):
    with pytest.raises(sim.ConfigError, match=f"^{key} must be"):
        sim.scenario_from_dict({**GENERATED_DOC, key: value})


def test_scenario_from_dict_keeps_values_of_the_declared_types():
    cfg = sim.scenario_from_dict(
        {**GENERATED_DOC, "proactive_forwarding": False, "server_executes": True,
         "buffer_size": 12, "ttl": None, "seed": "a,b"}
    )
    assert (cfg.proactive_forwarding, cfg.server_executes) == (False, True)
    assert (cfg.buffer_size, cfg.ttl, cfg.seed) == (12, None, "a,b")
    cfg = sim.scenario_from_dict({**GENERATED_DOC, "ttl": 0, "seed": -4})
    assert (cfg.ttl, cfg.seed, cfg.buffer_size, cfg.proactive_forwarding) == (0, -4, 128, True)


TYPED_DOC = {
    **GENERATED_DOC,
    "services": [{"id": "s", "mean_exec_time_s": 0.001}],
    "jitters": [{"start_ms": 10.0, "duration_ms": 5.0, "rate_multiplier": 2.0}],
}


@pytest.mark.parametrize(
    "path, value",
    [
        (("horizon_s",), "0.05"),
        (("base_rate_per_s",), True),
        (("sample_interval_ms",), False),
        (("load_multiplier",), None),
        (("warmup_s",), "0.01"),
        (("gossip_period_ms",), [1.0]),
        (("capacity_threshold",), {"x": 1}),
        (("name",), 7),
        (("services", 0, "id"), 7),
        (("services", 0, "mean_exec_time_s"), "0.001"),
        (("services", 0, "cpu_cost"), True),
        (("services", 0, "popularity_weight"), None),
        (("jitters", 0, "start_ms"), "10"),
        (("jitters", 0, "rate_multiplier"), False),
        (("services",), {"id": "s", "mean_exec_time_s": 0.001}),
        (("jitters",), "x"),
    ],
)
def test_scenario_reader_refuses_numbers_and_names_of_the_wrong_type(path, value):
    with pytest.raises(sim.ConfigError, match=f"^{path[-1]} must be"):
        sim.scenario_from_dict(conftest.edit_doc(TYPED_DOC, path, value))


@pytest.mark.parametrize("key, item", [("services", 5), ("jitters", "x"), ("jitters", None)])
def test_scenario_reader_refuses_a_list_item_that_is_not_an_object(key, item):
    # Read with .get(), such an item used to escape as an AttributeError.
    with pytest.raises(sim.ConfigError, match=f"^expected an object holding .*, not {item!r}"):
        sim.scenario_from_dict(conftest.edit_doc(TYPED_DOC, (key, 0), item))


@pytest.mark.parametrize("key", ["horizon_s", "base_rate_per_s", "services"])
def test_scenario_reader_names_a_missing_required_field(key):
    doc = {k: v for k, v in TYPED_DOC.items() if k != key}
    with pytest.raises(sim.ConfigError, match=f"^{key} is required$"):
        sim.scenario_from_dict(doc)


def test_scenario_reader_reads_int_numbers_as_floats():
    as_ints = sim.scenario_from_dict(
        {**TYPED_DOC, "horizon_s": 1, "base_rate_per_s": 100, "warmup_s": 0, "sample_interval_ms": 0}
    )
    as_floats = sim.scenario_from_dict(
        {**TYPED_DOC, "horizon_s": 1.0, "base_rate_per_s": 100.0, "warmup_s": 0.0,
         "sample_interval_ms": 0.0}
    )
    assert as_ints == as_floats
    assert type(as_ints.horizon_s) is type(as_ints.warmup_s) is float


SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schemas" / "scenario.json").read_text()
)

# One valid value per JSON type: an int is a JSON number too, 2.5 is not an
# integer. Each is inside the range of every field that declares its type.
JSON_SAMPLES = {"integer": 3, "number": 2.5, "string": "3", "boolean": True, "null": None,
                "array": [], "object": {}}


def json_types(value):
    if type(value) is bool:
        return {"boolean"}
    if type(value) is int:
        return {"integer", "number"}
    return {float: {"number"}, str: {"string"}, type(None): {"null"},
            list: {"array"}, dict: {"object"}}[type(value)]


def schema_typed_fields():
    """(path, declared types) for every typed scalar field of the schema;
    a generator parameter is placed in a topology kind that reads it."""
    props = SCHEMA["properties"]
    sections = [
        ((), props),
        (("services", 0), props["services"]["items"]["properties"]),
        (("jitters", 0), props["jitters"]["items"]["properties"]),
        (("topology", "generate"), props["topology"]["properties"]["generate"]["properties"]),
    ]
    for prefix, section in sections:
        for key, spec in sorted(section.items()):
            types = spec.get("type", [])
            types = set(types) if isinstance(types, list) else {types}
            if types and not types & {"array", "object"}:
                path = prefix + (key,)
                yield pytest.param(path, types, id=".".join(map(str, path)))


GENERATOR_HOSTS = {
    "width": {"kind": "grid", "width": 3, "height": 3},
    "height": {"kind": "grid", "width": 3, "height": 3},
    "branching": {"kind": "tree", "branching": 2, "depth": 2},
    "depth": {"kind": "tree", "branching": 2, "depth": 2},
    "m": {"kind": "scale_free", "n": 30},
    "access_points": {"kind": "scale_free", "n": 30},
    "n": {"kind": "scale_free", "n": 30},
}


@pytest.mark.parametrize("json_type", sorted(JSON_SAMPLES))
@pytest.mark.parametrize("path, declared", list(schema_typed_fields()))
def test_reader_accepts_exactly_the_schema_types(path, declared, json_type):
    doc = {**TYPED_DOC, "horizon_s": 4.0}
    if path[:2] == ("topology", "generate") and path[2] in GENERATOR_HOSTS:
        doc["topology"] = {"generate": dict(GENERATOR_HOSTS[path[2]])}
    value = JSON_SAMPLES[json_type]
    doc = conftest.edit_doc(doc, path, value)
    if json_types(value) & declared:
        sim.scenario_from_dict(doc)
    else:
        with pytest.raises(sim.ConfigError, match=f"{path[-1]} must be"):
            sim.scenario_from_dict(doc)


def test_reader_fields_are_the_schema_fields():
    props = SCHEMA["properties"]
    fields = {f.name for f in dataclasses.fields(sim.ScenarioConfig)}
    assert fields == set(props)
    service = {f.name for f in dataclasses.fields(ServiceSpec)} - {"name"} | {"id"}
    assert service == set(props["services"]["items"]["properties"])
    jitter = {f.name for f in dataclasses.fields(JitterSpec)}
    assert jitter == set(props["jitters"]["items"]["properties"])
    topology = props["topology"]
    generate = topology["properties"]["generate"]
    assert {"kind", "seed"} | tp.GENERATOR_PARAMS == set(generate["properties"])
    # The reader refuses every key an object does not declare.
    for obj in (SCHEMA, topology, generate, props["services"]["items"], props["jitters"]["items"]):
        assert obj["additionalProperties"] is False


@pytest.mark.parametrize(
    "topology, strategy, rate, reads",
    [
        (generate_topology("scale_free", {"n": 30}, seed=3), "none", 400.0, []),
        (generate_topology("scale_free", {"n": 30}, seed=3), "proactive", 400.0, []),
        # One passive node reaches the threshold at this load.
        (generate_topology("scale_free", {"n": 30}, seed=3), "passive", 400.0, [18]),
        # fig3's access point, node 0, is a relay; it reads at its first
        # arrival under every strategy, and passive nodes 1 and 2 only once
        # the load brings them to the threshold. The sink never reads.
        (sim.preset_fig3().topology, "none", 400.0, [0]),
        (sim.preset_fig3().topology, "proactive", 400.0, [0]),
        (sim.preset_fig3().topology, "passive", 400.0, [0]),
        (sim.preset_fig3().topology, "passive", 4000.0, [0, 1, 2]),
    ],
)
def test_runs_read_next_hops_only_for_relays_and_passive(
    monkeypatch, topology, strategy, rate, reads
):
    calls = []
    read = tp.Topology.next_hop_toward_server

    def counted(topo, nid):
        calls.append(nid)
        return read(topo, nid)

    monkeypatch.setattr(tp.Topology, "next_hop_toward_server", counted)
    cfg = sim.ScenarioConfig(
        topology=topology,
        services=[ServiceSpec(name="s", mean_exec_time_s=0.002)],
        base_rate_per_s=rate,
        horizon_s=0.05,
        strategy=strategy,
    )
    m = sim.run_scenario(cfg)
    assert calls == reads
    monkeypatch.undo()
    assert m == conftest.reference_run_scenario(cfg)


def test_scenario_from_dict_with_generated_topology():
    data = {
        "name": "gen",
        "topology": {"generate": {"kind": "line", "n": 3, "seed": 1}},
        "services": [{"id": "s", "mean_exec_time_s": 0.001}],
        "base_rate_per_s": 100.0,
        "horizon_s": 0.2,
        "strategy": "none",
    }
    cfg = sim.scenario_from_dict(data)
    assert len(cfg.topology.nodes) == 3
    m = sim.run_scenario(cfg)
    assert m.total_arrivals > 0


def test_load_scenario_resolves_topology_path(tmp_path):
    from offloadsim.topology import write_topology

    topo = generate_topology("line", {"n": 3})
    write_topology(topo, tmp_path / "net.topo")
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "topology": {"file": "net.topo"},
        "services": [{"id": "s", "mean_exec_time_s": 0.001}],
        "base_rate_per_s": 100.0,
        "horizon_s": 0.1,
    }))
    cfg = sim.load_scenario(cfg_path)
    assert cfg.topology == topo


def test_presets_run_and_validate():
    for name, factory in sim.PRESETS.items():
        cfg = factory()
        cfg.validate()
        assert cfg.name == name


@pytest.mark.parametrize("strategy", sim.STRATEGIES)
@pytest.mark.parametrize("preset", sorted(sim.PRESETS))
def test_external_arrivals_wait_beside_the_heap(monkeypatch, preset, strategy):
    # The next external arrival waits beside the event heap, so every
    # arrival pushed is a forward, which carries its request, and the run
    # still takes every arrival of the stream.
    cfg = sim.PRESETS[preset](strategy)
    push = sim.heappush
    external = []

    def counted(heap, ev):
        if ev[1] == sim._ARRIVAL and ev[4] is None:
            external.append(ev)
        push(heap, ev)

    monkeypatch.setattr(sim, "heappush", counted)
    m = sim.run_scenario(cfg)
    assert external == []
    stream = _iter_arrival_tuples(
        cfg.base_rate_per_s * cfg.load_multiplier,
        cfg.horizon_s,
        cfg.seed,
        cfg.jitters,
        cfg.services,
        sorted(cfg.topology.access_points()),
    )
    assert m.gross_arrivals == sum(1 for _ in stream) > 0


def test_popularity_weights_whose_sum_overflows_are_refused_before_any_event(monkeypatch):
    services = [
        ServiceSpec(name=name, mean_exec_time_s=0.002, popularity_weight=1e308)
        for name in ("a", "b")
    ]

    def unreachable(*args):
        raise AssertionError("an event was scheduled")

    monkeypatch.setattr(sim, "heappush", unreachable)
    monkeypatch.setattr(sim, "heappop", unreachable)
    with pytest.raises(ValueError, match="popularity weights must sum to a finite total"):
        sim.run_scenario(small_config(services=services))


def test_fig3_preset_shape():
    cfg = sim.preset_fig3()
    assert len(cfg.topology.nodes) == 4
    assert cfg.topology.nodes[0].is_relay
    assert len(cfg.jitters) == 2
    assert cfg.horizon_s == pytest.approx(0.150)


def test_strategy_ordering_one_seed():
    # Single-seed smoke version of the overload ordering; the full 30-seed
    # statistical claim lives in the acceptance suite.
    res = {}
    for strategy in ("none", "passive", "proactive"):
        cfg = dataclasses.replace(sim.preset_overload_line(strategy), seed=5)
        res[strategy] = sim.run_scenario(cfg)
    assert res["none"].psi > res["passive"].psi > res["proactive"].psi
    assert res["none"].tau < res["passive"].tau < res["proactive"].tau
