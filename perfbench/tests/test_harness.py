"""Checks on the benchmark harness's own logic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import hostspeed
import inputs
import pytest
import run
import stats
import tracer as tracing
import workloads

from offloadsim import partition, simulator
from offloadsim._estimator_py import EstimatorCore

BENCH = Path(__file__).resolve().parent.parent


# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n, rank", [(1, 1), (4, 3), (39, 30), (40, 30), (99, 75), (100, 75)])
def test_tail_is_the_nearest_rank_p75(n, rank):
    ordered = [float(v) for v in range(1, n + 1)]
    summary = stats.summarize(list(reversed(ordered)))
    assert summary["tail"] == rank
    assert summary["beyond_tail"] == n - rank and summary["n"] == n


def test_forty_samples_leave_ten_beyond_the_tail():
    assert stats.summarize([float(v) for v in range(40)])["beyond_tail"] == 10


def test_summary_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]  # 1..100
    summary = stats.summarize(values)
    assert summary == {"p50": 50.5, "tail": 75.0, "beyond_tail": 25, "n": 100}


# -- host-speed normalization ----------------------------------------------


def test_op_time_is_scaled_by_the_yardstick_around_it(monkeypatch):
    # Yardstick readings: before the first op, between the ops, after the last.
    readings = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(hostspeed, "NOMINAL_S", 2.0)
    monkeypatch.setattr(hostspeed, "measure", lambda: next(readings))
    arrivals = iter([100, 300])
    monkeypatch.setattr(
        workloads, "execute", lambda op, ins: workloads.Outcome(0.5, "d", next(arrivals))
    )
    op = workloads.Op("none", "overload", "overload-line", 0)
    r = run.Run({op.key: "d"})
    assert r.do(op, None) == 0.5 and r.do(op, None) == 0.5  # raw wall time
    assert r.wall["none"] == [0.5, 0.5]
    assert r.times["none"] == [0.5 * 2.0 / 2.0, 0.5 * 2.0 / 4.0]
    assert run.sim_req_per_s(r) == 200 / 0.375


def test_sim_rate_sums_strategy_medians():
    r = run.Run.__new__(run.Run)
    r.times = {"none": [0.1, 0.1, 0.4], "passive": [0.2], "proactive": []}
    r.arrivals = {"none": [10, 10, 10], "passive": [20], "proactive": []}
    assert run.sim_req_per_s(r) == pytest.approx(30 / 0.3)


# -- self time -------------------------------------------------------------


def test_self_time_is_inclusive_minus_traced_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("leaf", lambda: None)

    def body():
        leaf()  # 1.0 -> 3.0
        leaf()  # 4.0 -> 8.0

    outer = tr.wrap("outer", body, coarse=True)
    outer()  # 0.0 -> 10.0
    totals = tr.totals()
    assert totals["outer"] == [1, 10.0, 4.0]
    assert totals["leaf"] == [2, 6.0, 6.0]
    assert tr.self_sum() == 10.0
    # leaf calls aggregate under their parent; the coarse one keeps a span
    assert set(tr.agg) == {("<root>", "outer"), ("outer", "leaf")}
    assert tr.spans == [(1, None, "outer", 0.0, 10.0)]


def test_missing_boundary_reports_zero_and_restore_undoes_every_patch():
    tr = tracing.Tracer()
    assert tr.patch(partition, "no_such_function", "partition.gone") is False
    before = {name: getattr(partition, name) for name in dir(partition)}
    tracing.install(tr)
    assert partition.girvan_newman is not before["girvan_newman"]
    tr.restore()
    assert {name: getattr(partition, name) for name in dir(partition)} == before
    metrics = tr.layer_metrics()
    assert metrics["partition.girvan_newman.calls"] == 0
    assert metrics["control.forward_frac"] == 0.0


def test_traced_simulation_counts_repeat_exactly():
    cfg = dataclasses.replace(simulator.preset_fig3("proactive"), seed=3)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            plain = simulator.run_scenario(cfg)
        finally:
            tr.restore()
        metrics = tr.layer_metrics()
        units = tracing.metric_units()
        counts.append({k: v for k, v in metrics.items() if units[k] != "s"})
        assert workloads.metrics_digest(plain) == workloads.metrics_digest(
            simulator.run_scenario(cfg)
        )
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["simulator.events.arrival"] > 0 and c["workload.record_arrival.calls"] > 0
    assert c["control.decide_proactive.calls"] == (
        c["control.decide.execute"] + c["control.decide.forward"] + c["control.decide.drop"]
    )


def test_estimator_replay_reports_each_backend():
    log = {8: [[("record_arrival", (0.001,)), ("record_arrival", (0.002,)),
                ("record_completion", (0.001, 1.0, 0.0)),
                ("execution_probability", (4.0, 4.0))]]}
    cols = tracing.replay_estimators(log, {"a": EstimatorCore, "b": EstimatorCore})
    assert cols["a"]["calls"] == cols["b"]["calls"] == 4
    assert cols["a"]["checksum"] == cols["b"]["checksum"]


# -- seeded inputs ---------------------------------------------------------


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _ops(workload, seed, n=40):
    return list(itertools.islice(workloads.schedule(workload, seed), n))


def test_same_seed_same_inputs_other_seed_different(tmp_path):
    wl = workloads.WORKLOADS["sim-scalefree"]
    workloads.generate_inputs(wl, 7, tmp_path / "a")
    workloads.generate_inputs(wl, 7, tmp_path / "b")
    workloads.generate_inputs(wl, 8, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a and a == b
    assert a != c
    assert _ops(wl, 7) == _ops(wl, 7)
    assert _ops(wl, 7) != _ops(wl, 8)


def test_every_scheduled_op_has_a_golden_digest():
    golden = json.loads((BENCH / "golden.json").read_text())
    for wl in workloads.WORKLOADS.values():
        for seed in (0, 1, 12345):
            ops = _ops(wl, seed, n=5 * len(wl.cycle))
            assert {op.kind for op in ops} == set(workloads.KINDS)
            assert all(op.key in golden for op in ops)


def test_planted_graph_has_one_bridge_per_module_pair():
    doc = inputs.planted_call_graph(5, 0)
    cross = [e for e in doc["edges"] if e["a"].split(".")[1] != e["b"].split(".")[1]]
    assert len(cross) == 5
    assert all(e["a"].endswith("Port") and e["b"].endswith("Port") for e in cross)


# -- output digests --------------------------------------------------------


def test_flipped_output_byte_is_a_failed_op(tmp_path):
    fam = inputs.FAMILIES["graph-small"]
    ins = workloads.Inputs(tmp_path)
    ins.add(fam.name, 0)
    op = workloads.Op("partition", fam.name, "plain", 0)
    first = workloads.execute(op, ins)
    golden = {op.key: first.digest}
    assert workloads.check(op, first, golden) is None

    out = tmp_path / "written.json"
    out.write_bytes(b'{"a": 1}\n')
    digest = workloads.cli_digest(0, "stdout\n", [out])
    out.write_bytes(b'{"a": 2}\n')
    flipped = workloads.Outcome(0.1, workloads.cli_digest(0, "stdout\n", [out]))
    assert flipped.digest != digest
    assert workloads.check(op, flipped, {op.key: digest}) == "output digest differs from golden"

    m = simulator.run_scenario(simulator.preset_fig3("none"))
    bumped = dataclasses.replace(m, tau=math.nextafter(m.tau, math.inf))
    assert workloads.metrics_digest(bumped) != workloads.metrics_digest(m)


def test_failed_exit_or_missing_golden_counts_as_failure(tmp_path):
    op = workloads.Op("appstats", "corpus-small", "3", 0)
    ins = workloads.Inputs(tmp_path)
    ins.paths[("corpus-small", 0)] = {"corpus": str(tmp_path / "missing.tsv")}
    outcome = workloads.execute(op, ins)
    assert workloads.check(op, outcome, {op.key: outcome.digest}).startswith("exit code")
    ok = workloads.Outcome(0.1, "abc")
    assert workloads.check(op, ok, {}) == "no golden digest recorded"


# -- benchmark declaration -------------------------------------------------


def test_declared_metrics_match_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.metric_units())
    units = tracing.metric_units()
    assert all(m["unit"] == units[m["name"]] for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    kinds = {f"{k}_ms.{s}" for k in workloads.KINDS for s in ("p50", "tail")}
    assert e2e == kinds | {"setup_s", "peak_rss_mib", "sim_req_per_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
