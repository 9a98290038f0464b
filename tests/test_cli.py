"""End-to-end command-line checks through ``python -m offloadsim``, and
in process through ``cli.dispatch`` where only exit codes and streams matter."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import offloadsim
from offloadsim import cli
from offloadsim.simulator import MAX_PERIODIC_EVENTS, MAX_PLANNED_ARRIVALS
from offloadsim.topology import generate_topology, write_topology

from conftest import edit_doc, route_to_server

GRAPH_DOC = {
    "vertices": [
        {"name": "core.Heavy", "methods": [
            {"name": "work", "invocations": 10, "t_local_ms": 50.0,
             "in_bytes": 100, "out_bytes": 100, "energy_mj": 1.0}]},
        {"name": "core.Mate", "methods": [
            {"name": "assist", "invocations": 5, "t_local_ms": 20.0,
             "in_bytes": 50, "out_bytes": 50, "energy_mj": 0.5}]},
        {"name": "ui.Main", "methods": [
            {"name": "draw", "invocations": 100, "t_local_ms": 1.0,
             "in_bytes": 10, "out_bytes": 10, "energy_mj": 0.1}]},
    ],
    "edges": [
        {"a": "core.Heavy", "b": "core.Mate", "weight": 8},
        {"a": "core.Mate", "b": "ui.Main", "weight": 1},
    ],
}

SCENARIO_DOC = {
    "name": "cli-smoke",
    "topology": {"generate": {"kind": "line", "n": 3, "seed": 1}},
    "services": [{"id": "s", "mean_exec_time_s": 0.001}],
    "base_rate_per_s": 100.0,
    "horizon_s": 0.1,
    "strategy": "passive",
}

CORPUS_TEXT = (
    "appA\t1000\tavendor.own.stuff=6;lib.core.alpha=4\n"
    "appB\t2000\tbvendor.own.stuff=5;lib.core.beta=5\n"
    "appC\t800\tcvendor.deep.pkg=8\n"
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "offloadsim", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    (root / "graph.json").write_text(json.dumps(GRAPH_DOC))
    (root / "rules.json").write_text(json.dumps([{"prefix": "ui", "tag": "pinned"}]))
    (root / "energy.json").write_text(json.dumps({
        "energy_per_tx_byte_j": 0.0,
        "energy_per_rx_byte_j": 0.0,
        "energy_idle_per_s_j": 0.0,
    }))
    (root / "scenario.json").write_text(json.dumps(SCENARIO_DOC))
    (root / "corpus.tsv").write_text(CORPUS_TEXT)
    return root


class TestSimulate:
    def test_preset_run_writes_summary_and_series(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("simulate", "--preset", "fig3", "--seed", 1, "--out", out)
        assert res.returncode == 0
        assert res.stdout.startswith("strategy=proactive seed=1 ")
        for name in ("run_summary.json", "run_series.json",
                     "run_summary.csv", "run_series.csv"):
            assert (out / name).exists()

    def test_cli_module_runs_as_a_script(self, tmp_path):
        out = tmp_path / "run"
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim.cli", "simulate", "--preset", "fig3",
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("strategy=proactive seed=1 ")
        assert sorted(p.name for p in out.iterdir()) == [
            "run_series.csv", "run_series.json", "run_summary.csv", "run_summary.json",
        ]

    def test_config_file_with_single_format(self, tmp_path, inputs):
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--seed", 2, "--format", "json", "--out", out)
        assert res.returncode == 0
        assert (out / "run_summary.json").exists()
        assert not (out / "run_summary.csv").exists()
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["seed"] == 2
        assert summary["strategy"] == "passive"

    @pytest.mark.parametrize("fmt", ["json", "both"])
    def test_seed_past_the_float_range_is_written_as_json_writes_it(self, tmp_path, capsys, fmt):
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "fig3", "--seed", str(HUGE), "--format", fmt,
                "--out", str(out)]
        assert cli.dispatch(argv).exit_code == 0
        text = (out / "run_summary.json").read_text()
        summary = json.loads(text)
        assert summary["seed"] == HUGE
        assert text == json.dumps(summary, sort_keys=True, indent=2) + "\n"

    def test_sweep_of_seeds_past_the_float_range_is_written_as_json_writes_it(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sweep"
        argv = ["simulate", "--preset", "fig3", "--seeds", f"{HUGE},{HUGE + 1}", "--out", str(out)]
        assert cli.dispatch(argv).exit_code == 0
        text = (out / "batch_summary.json").read_text()
        payload = json.loads(text)
        assert [r["seed"] for r in payload["per_seed"]] == [HUGE, HUGE + 1]
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_strategy_flag_overrides_the_scenario(self, tmp_path, inputs):
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--strategy", "none", "--seed", 1, "--out", tmp_path / "o")
        assert res.returncode == 0
        assert res.stdout.startswith("strategy=none ")

    def test_seed_sweep_writes_batch_summary(self, tmp_path, inputs):
        out = tmp_path / "sweep"
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--seeds", "1..3", "--out", out)
        assert res.returncode == 0
        assert res.stdout.startswith("runs=3 ")
        payload = json.loads((out / "batch_summary.json").read_text())
        assert payload["aggregate"]["runs"] == 3
        assert [r["seed"] for r in payload["per_seed"]] == [1, 2, 3]

    def test_comma_separated_seed_list(self, tmp_path, inputs):
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--seeds", "4,7", "--out", tmp_path / "o")
        assert res.returncode == 0
        assert res.stdout.startswith("runs=2 ")

    def test_repeated_run_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            res = run_cli("simulate", "--preset", "fig3", "--seed", 5, "--out", out)
            assert res.returncode == 0
        for name in ("run_summary.json", "run_series.json",
                     "run_summary.csv", "run_series.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_config_exits_with_usage_error(self, tmp_path):
        res = run_cli("simulate", "--config", tmp_path / "absent.json",
                      "--out", tmp_path / "o")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_malformed_seed_range_rejected(self, tmp_path, inputs):
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--seeds", "a..b", "--out", tmp_path / "o")
        assert res.returncode == 2

    @pytest.mark.parametrize("spec, count", [
        ("0..1000000000000", 1000000000001),
        (f"5..{cli.MAX_SWEEP_SEEDS + 5}", cli.MAX_SWEEP_SEEDS + 1),
        (",".join(["7"] * (cli.MAX_SWEEP_SEEDS + 1)), cli.MAX_SWEEP_SEEDS + 1),
    ])
    def test_seed_sweep_above_the_cap_is_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, inputs, spec, count
    ):
        # range() is patched too: a refusal that came after building the
        # list of a 10**12-seed range would fail here instead of allocating.
        def unreachable(*args):
            raise AssertionError("the sweep was built or run")

        monkeypatch.setattr(cli.simulator_mod, "run_batch", unreachable)
        monkeypatch.setattr(cli, "range", unreachable, raising=False)
        outcome = cli.dispatch(["simulate", "--config", str(inputs / "scenario.json"),
                                "--seeds", spec, "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: seed sweep names {count} seeds, more than the limit of "
            f"{cli.MAX_SWEEP_SEEDS}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_seed_sweep_at_the_cap_runs_every_seed(self, tmp_path, monkeypatch, inputs):
        swept = []
        run_batch = cli.simulator_mod.run_batch

        def counted(cfg, seeds):
            swept.append(seeds)
            return run_batch(cfg, seeds[:1])

        monkeypatch.setattr(cli.simulator_mod, "run_batch", counted)
        outcome = cli.dispatch(["simulate", "--config", str(inputs / "scenario.json"),
                                "--seeds", f"1..{cli.MAX_SWEEP_SEEDS}",
                                "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 0
        assert swept == [list(range(1, cli.MAX_SWEEP_SEEDS + 1))]

    def test_negative_seed_sweep_takes_the_equals_form(self, tmp_path, capsys, inputs):
        # argparse reads "-2..1" after a space as an option, not a value.
        scenario = str(inputs / "scenario.json")
        outcome = cli.dispatch(["simulate", "--config", scenario,
                                "--seeds", "-2..1", "--out", str(tmp_path / "a")])
        assert outcome.exit_code == 2
        assert "argument --seeds: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        outcome = cli.dispatch(["simulate", "--config", scenario,
                                "--seeds=-2..1", "--out", str(tmp_path / "b")])
        assert outcome.exit_code == 0
        assert capsys.readouterr().out.startswith("runs=4 ")
        payload = json.loads((tmp_path / "b" / "batch_summary.json").read_text())
        assert [r["seed"] for r in payload["per_seed"]] == [-2, -1, 0, 1]

    def test_popularity_weights_whose_sum_overflows_are_a_usage_error(self, tmp_path, capsys):
        services = [{"id": name, "mean_exec_time_s": 0.001, "popularity_weight": 1e308}
                    for name in ("a", "b")]
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**SCENARIO_DOC, "services": services}))
        outcome = cli.dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            "error: popularity weights must sum to a finite total\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        {"base_rate_per_s": float("nan")},
        {"base_rate_per_s": float("inf")},
        {"jitters": [{"start_ms": 10.0, "duration_ms": 5.0, "rate_multiplier": float("inf")}]},
        {"services": [{"id": "s", "mean_exec_time_s": float("nan")}]},
    ])
    def test_non_finite_scenario_is_a_usage_error(self, tmp_path, edit):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, **edit}))  # bare NaN / Infinity tokens
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim", "simulate", "--config", str(bad),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 2
        assert "finite" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, field", [
        ({"sample_interval_ms": 1e-9}, "sample_interval_ms"),
        ({"strategy": "proactive", "gossip_period_ms": 1e-9,
          "topology": {"generate": {"kind": "grid", "width": 3, "height": 3}}},
         "gossip_period_ms"),
    ])
    def test_tiny_period_is_refused_before_any_event(self, tmp_path, edit, field):
        # Both plan 10**12 events over a 1 s horizon; without the cap they
        # run for hours.
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, "horizon_s": 1.0, **edit}))
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim", "simulate", "--config", str(bad),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {field} 1e-09 plans 1e+12 ")
        assert f"the cap of {MAX_PERIODIC_EVENTS:,}" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, planned", [
        ({}, "1e+12"),
        ({"base_rate_per_s": 1000.0,
          "jitters": [{"start_ms": 0.0, "duration_ms": 1000.0, "rate_multiplier": 1e9}]},
         "1e+12"),
    ])
    def test_planned_arrivals_past_the_cap_are_refused_before_any_event(
        self, tmp_path, edit, planned
    ):
        # Without the cap the first probe still ran after 8 s.
        doc = {
            "topology": {"generate": {"kind": "line", "n": 3}},
            "services": [{"id": "t", "mean_exec_time_s": 0.001}],
            "base_rate_per_s": 1e12,
            "horizon_s": 1.0,
            "sample_interval_ms": 0,
            **edit,
        }
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps(doc))
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim", "simulate", "--config", str(bad),
             "--strategy", "none", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 2
        assert res.stderr == (
            f"error: base_rate_per_s {doc['base_rate_per_s']!r} plans {planned} external"
            f" arrivals over horizon_s 1.0, more than the cap of {MAX_PLANNED_ARRIVALS:,}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        {"proactive_forwarding": "false"},
        {"server_executes": 1},
        {"buffer_size": 12.9},
        {"ttl": 2.5},
        {"seed": [1, 2]},
        {"horizon_s": "0.05"},
        {"name": 7},
    ])
    def test_config_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, edit):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, **edit}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        (key,) = edit
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not (tmp_path / "o").exists()

    def test_generator_parameter_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys):
        gen = {"kind": "line", "n": 4.7, "seed": 1}
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, "topology": {"generate": gen}}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert "n must be an integer, not 4.7" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("gen, params", [
        ({"kind": "line", "n": 10**12}, "line n = 1000000000000"),
        ({"kind": "grid", "width": 10**6, "height": 10**6},
         "grid width * height = 1000000 * 1000000"),
        ({"kind": "tree", "branching": 10, "depth": 12}, "tree branching = 10, depth = 12"),
        ({"kind": "tree", "branching": 2, "depth": sys.maxsize},
         f"tree branching = 2, depth = {sys.maxsize}"),
        ({"kind": "tree", "branching": 1, "depth": sys.maxsize},
         f"tree branching = 1, depth = {sys.maxsize}"),
        ({"kind": "scale_free", "n": 10**6 + 1}, "scale_free n = 1000001"),
    ])
    def test_generated_topology_over_the_node_cap_is_a_usage_error(
        self, tmp_path, capsys, gen, params
    ):
        # Built, each would exhaust memory or never finish; the count is
        # computed from the parameters first.
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, "topology": {"generate": gen}}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: invalid scenario config: {params} gives more than "
            "MAX_GENERATED_NODES = 1000000 nodes\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("topology, message", [
        (5, "topology must be an object, not 5"),
        ({"file": 5}, "file must be a string, not 5"),
        ({"generate": 5}, "generate must be an object, not 5"),
        ({"generate": {}}, "kind is required"),
        ({"generate": {"kind": 5}}, "kind must be a string, not 5"),
    ])
    def test_topology_field_of_the_wrong_type_is_a_usage_error(
        self, tmp_path, capsys, topology, message
    ):
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, "topology": topology}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("topology", [
        {},
        {"file": "line.topo", "generate": {"kind": "line", "n": 5}},
    ])
    def test_topology_names_exactly_one_of_file_or_generate(self, tmp_path, capsys, topology):
        write_topology(generate_topology("line", {"n": 2}), tmp_path / "line.topo")
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, "topology": topology}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == (
            "error: topology must specify exactly one of 'file' or 'generate'\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, key, where", [
        ({"stratgy": "proactive"}, "stratgy", "the scenario"),
        ({"horizn_s": 9.0}, "horizn_s", "the scenario"),
        ({"services": [{"id": "s", "mean_exec_time_s": 0.001, "cpu_cst": 2.0}]},
         "cpu_cst", "services[0]"),
        ({"jitters": [{"start_ms": 1.0, "duration_ms": 1.0, "rate_multiplier": 2.0, "rate": 3}]},
         "rate", "jitters[0]"),
        ({"topology": {"generate": {"kind": "line", "n": 3, "sed": 1}}},
         "sed", "topology.generate"),
        ({"topology": {"generate": {"kind": "line", "n": 3}, "seed": 1}}, "seed", "topology"),
    ])
    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys, edit, key, where):
        # Ignored, a misspelt key would run with the field's default.
        bad = tmp_path / "scenario.json"
        bad.write_text(json.dumps({**SCENARIO_DOC, **edit}))
        outcome = cli.dispatch(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert capsys.readouterr().err == f"error: unknown key(s) {key!r} in {where}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed, error", [
        (1, None),
        (1.0, "error: seed must be an integer or a string, not 1.0\n"),
        (True, "error: seed must be an integer or a string, not True\n"),
    ])
    def test_generator_seed_is_an_integer_or_a_string(self, tmp_path, capsys, seed, error):
        # The generator keys its RNG on str(seed): 1, 1.0 and true would
        # build three different scale-free topologies.
        gen = {"kind": "scale_free", "n": 30, "seed": seed}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**SCENARIO_DOC, "topology": {"generate": gen}}))
        outcome = cli.dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if error is None:
            assert outcome.exit_code == 0 and err == ""
        else:
            assert (outcome.exit_code, err) == (2, error)
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("param", ["cpu", "mem"])
    def test_subnormal_capacity_is_a_usage_error(self, tmp_path, param):
        gen = {"kind": "line", "n": 3, "seed": 1, param: 5e-324}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**SCENARIO_DOC, "topology": {"generate": gen}}))
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 2
        assert "1/capacity" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_link_delays_that_sum_past_the_float_range_are_a_usage_error(self, tmp_path, capsys):
        topo = tmp_path / "overflow.topo"
        topo.write_text(
            "nodes 3 server 2\n0 1.0 1.0 1\n1 1.0 1.0 0\n2 1.0 1.0 0\n0 1 1e308\n1 2 1e308\n"
        )
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**SCENARIO_DOC, "topology": {"file": str(topo)}}))
        outcome = cli.dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2
        assert "total link delay is not finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_capacity_whose_loads_overflow_is_a_usage_error(self, tmp_path):
        # 1/3e-308 is finite, but one request of cpu cost 10 overflows the load.
        gen = {"kind": "line", "n": 3, "seed": 1, "cpu": 3e-308}
        services = [{"id": "s", "mean_exec_time_s": 0.001, "cpu_cost": 10.0}]
        cfg = tmp_path / "scenario.json"
        cfg.write_text(
            json.dumps({**SCENARIO_DOC, "topology": {"generate": gen}, "services": services})
        )
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 2
        assert "is not finite" in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("locale_env,line", [
        ({"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}, b"seed=caf\\xe9 "),
        ({"PYTHONUTF8": "1"}, "seed=caf\u00e9 ".encode()),
    ])
    def test_summary_line_survives_any_locale(self, tmp_path, locale_env, line):
        # Under the C locale stdout is ASCII: the seed is escaped instead of
        # failing the command after its four files are written.
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({**SCENARIO_DOC, "seed": "caf\u00e9"}))
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
        env.update(locale_env, PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(offloadsim.__file__).parent.parent))
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, env=env, timeout=60,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(b"strategy=passive " + line)
        assert len(list((tmp_path / "o").iterdir())) == 4

    def test_zero_delay_passive_run_finishes(self, tmp_path):
        # Overloaded nodes push requests toward the server over 0 ms links;
        # a routing loop would bounce them forever at one instant, so the
        # routes are checked before anything runs.
        gen = {"kind": "line", "n": 3, "delay_ms": 0.0}
        topo = generate_topology(gen["kind"], gen)
        for nid in topo.nodes:
            route_to_server(topo, nid)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            **SCENARIO_DOC, "topology": {"generate": gen}, "base_rate_per_s": 5000.0,
        }))
        res = subprocess.run(
            [sys.executable, "-m", "offloadsim", "simulate", "--config", str(cfg),
             "--strategy", "passive", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "o" / "run_summary.json").read_text())
        assert summary["forwarded"] > 0
        assert summary["executed"] + summary["dropped"] == summary["total_arrivals"]

    def test_config_and_preset_are_mutually_exclusive(self, tmp_path, inputs):
        res = run_cli("simulate", "--config", inputs / "scenario.json",
                      "--preset", "fig3", "--out", tmp_path / "o")
        assert res.returncode == 2


class TestPartition:
    def test_report_lands_on_stdout(self, inputs):
        res = run_cli("partition", "--graph", inputs / "graph.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["natural_n_clusters"] >= 1
        sizes = [s["n_clusters"] for s in payload["sets"]]
        assert sizes == sorted(sizes)

    def test_rules_pin_classes_out_of_offload_sets(self, inputs):
        res = run_cli("partition", "--graph", inputs / "graph.json",
                      "--rules", inputs / "rules.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        for entry in payload["sets"]:
            for cluster in entry["offloadable"]:
                assert "ui.Main" not in cluster

    def test_out_file_matches_stdout_payload(self, tmp_path, inputs):
        piped = run_cli("partition", "--graph", inputs / "graph.json")
        target = tmp_path / "report.json"
        filed = run_cli("partition", "--graph", inputs / "graph.json", "--out", target)
        assert filed.returncode == 0
        assert filed.stdout == ""
        assert target.read_text() == piped.stdout

    def test_invalid_graph_document_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "graph.json"
        bad.write_text("{not json")
        res = run_cli("partition", "--graph", bad)
        assert res.returncode == 2

    def test_non_finite_edge_weight_is_a_usage_error(self, tmp_path):
        doc = json.loads(json.dumps(GRAPH_DOC))
        doc["edges"][0]["weight"] = float("nan")
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps(doc))  # writes the bare NaN token
        res = run_cli("partition", "--graph", bad)
        assert res.returncode == 2
        assert res.stdout == ""

    def test_unwritable_output_is_a_runtime_error(self, tmp_path, inputs):
        blocker = tmp_path / "blocker"
        blocker.write_text("occupied")
        res = run_cli("partition", "--graph", inputs / "graph.json",
                      "--out", blocker / "report.json")
        assert res.returncode == 3
        assert res.stderr.startswith("runtime error:")


def malformed_graph_docs():
    """Call-graph documents that once leaked a non-ValueError or were
    misread, each with what the error should name."""
    vertex = dict(GRAPH_DOC["vertices"][0])
    return {
        "vertex-is-a-string": (
            {"vertices": ["A"], "edges": []}, "expected an object holding name, not 'A'"
        ),
        "vertices-is-an-object": ({"vertices": {"A": {}}, "edges": []}, "vertices must be a list"),
        "edge-is-a-string": ({**GRAPH_DOC, "edges": ["A"]}, "expected an object holding a"),
        "edges-is-a-number": ({**GRAPH_DOC, "edges": 5}, "edges must be a list"),
        "name-is-a-number": (
            {"vertices": [vertex, {"name": 5}], "edges": []}, "name must be a string, not 5"
        ),
        "tags-is-a-string": (
            {"vertices": [{**vertex, "tags": "pinned"}], "edges": []},
            "tags must be a list of strings",
        ),
    }


def huge_weight_doc(weight):
    doc = json.loads(json.dumps(GRAPH_DOC))
    for edge in doc["edges"]:
        edge["weight"] = weight
    return doc


class TestMalformedGraphs:
    """Bad documents exit 2 from both graph commands, in process."""

    COMMANDS = {
        "partition": ["partition"],
        "decide": ["decide", "--rtt-ms", "15", "--bandwidth-bytes-per-s", "1e6"],
    }

    def dispatch(self, capsys, tmp_path, command, doc, *flags):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code = cli.dispatch([*self.COMMANDS[command], *flags, "--graph", str(path)]).exit_code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("command", ["partition", "decide"])
    @pytest.mark.parametrize("case", sorted(malformed_graph_docs()))
    def test_malformed_document_is_a_usage_error(self, capsys, tmp_path, command, case):
        doc, message = malformed_graph_docs()[case]
        code, out, err = self.dispatch(capsys, tmp_path, command, doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["partition", "decide"])
    @pytest.mark.parametrize("weight", [1e200, 1e308])
    def test_weights_whose_modularity_overflows_are_a_usage_error(
        self, capsys, tmp_path, command, weight
    ):
        code, out, err = self.dispatch(capsys, tmp_path, command, huge_weight_doc(weight))
        assert (code, out) == (2, "")
        assert "total edge weight" in err and "overflow" in err

    def test_weights_whose_betweenness_paths_overflow_are_a_usage_error(self, capsys, tmp_path):
        doc = huge_weight_doc(1e-308)
        code, out, err = self.dispatch(capsys, tmp_path, "partition", doc, "--weighted")
        assert (code, out) == (2, "")
        assert "too small for weighted betweenness" in err
        # Hop counting sums no lengths, so the same graph partitions.
        assert self.dispatch(capsys, tmp_path, "partition", doc)[0] == 0

    def test_largest_safe_weights_give_finite_modularity(self, capsys, tmp_path):
        code, out, _ = self.dispatch(capsys, tmp_path, "partition", huge_weight_doc(1e150))
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["natural_modularity"])
        assert all(math.isfinite(s["modularity"]) for s in payload["sets"])


SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

# A valid document per JSON input that holds every field its schema
# declares, and item 0 of every array, so that each can be edited in place.
FULL_DOCS = {
    "callgraph": {
        "vertices": [
            {"name": "a.A", "tags": ["t"], "methods": [
                {"name": "m", "invocations": 1, "t_local_ms": 1.0, "in_bytes": 1,
                 "out_bytes": 1, "energy_mj": 1.0, "cpu_scale_hint": 1.0}]},
            {"name": "b.B"},
        ],
        "edges": [{"a": "a.A", "b": "b.B", "weight": 1}],
    },
    "tagrules": [{"prefix": "a", "tag": "pinned"}],
    "energymodel": {"energy_per_tx_byte_j": 0.0, "energy_per_rx_byte_j": 0.0,
                    "energy_idle_per_s_j": 0.0},
    "scenario": {
        **SCENARIO_DOC,
        "topology": {"generate": {"kind": "line", "n": 3, "seed": 1, "cpu": 1.0, "mem": 1.0,
                                  "delay_ms": 1.0}},
        "jitters": [{"start_ms": 10.0, "duration_ms": 5.0, "rate_multiplier": 2.0}],
        "warmup_s": 0.01,
    },
}

# An integer of 401 digits: a JSON number, but past the float range.
HUGE = 10**400


def schema_fields(spec, path=()):
    """(path, declared types) of the document ``spec`` describes and of
    every field below it, through each object's properties and item 0 of
    each array."""
    types = spec.get("type", [])
    yield path, set(types) if isinstance(types, list) else {types}
    for key, sub in sorted(spec.get("properties", {}).items()):
        yield from schema_fields(sub, path + (key,))
    if "items" in spec:
        yield from schema_fields(spec["items"], path + (0,))


def bad_inputs():
    """(input, path, value, what the error says) for every field of
    callgraph.json, tagrules.json and energymodel.json: a bool and a string
    where a number is declared, a number where a string is, an undeclared
    key in every object, and an integer past the float range in every
    number field of all four inputs."""
    for name in ("callgraph", "tagrules", "energymodel", "scenario"):
        schema = json.loads((SCHEMAS / f"{name}.json").read_text())
        for path, types in schema_fields(schema):
            where = ".".join(map(str, path)) or "top"
            if "number" in types:
                yield pytest.param(name, path, HUGE, "must be a number within the float range",
                                   id=f"{name}:{where}=401-digits")
            if name == "scenario":
                continue
            if "number" in types:
                yield pytest.param(name, path, True, "must be a number, not True",
                                   id=f"{name}:{where}=true")
                yield pytest.param(name, path, "2", "must be a number, not '2'",
                                   id=f"{name}:{where}='2'")
            if "string" in types:
                yield pytest.param(name, path, 5, "must be", id=f"{name}:{where}=5")
            if "object" in types:
                yield pytest.param(name, path + ("undeclared",), 1, "unknown key(s) 'undeclared'",
                                   id=f"{name}:{where}.undeclared")


class TestSchemaTypedInputs:
    """Every field of the call graph, tag rules and energy model is read as
    its schema declares, through the same reader as the scenario's."""

    def argv(self, tmp_path, name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        graph = tmp_path / "graph.json"
        if name != "callgraph":
            graph.write_text(json.dumps(FULL_DOCS["callgraph"]))
        return {
            "callgraph": ["partition", "--graph", str(path)],
            "tagrules": ["partition", "--graph", str(graph), "--rules", str(path)],
            "energymodel": ["decide", "--graph", str(graph), "--rtt-ms", "10",
                            "--bandwidth-bytes-per-s", "1e6", "--energy-model", str(path)],
            "scenario": ["simulate", "--config", str(path), "--out", str(tmp_path / "o")],
        }[name]

    @pytest.mark.parametrize("name", sorted(FULL_DOCS))
    def test_full_documents_are_valid(self, capsys, tmp_path, name):
        assert cli.dispatch(self.argv(tmp_path, name, FULL_DOCS[name])).exit_code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, path, value, message", list(bad_inputs()))
    def test_field_off_its_schema_is_a_usage_error(
        self, capsys, tmp_path, name, path, value, message
    ):
        doc = edit_doc(FULL_DOCS[name], path, value)
        code = cli.dispatch(self.argv(tmp_path, name, doc)).exit_code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["prefix", "tag"])
    def test_empty_tag_rule_field_is_a_usage_error(self, capsys, tmp_path, field):
        doc = edit_doc(FULL_DOCS["tagrules"], (0, field), "")
        code = cli.dispatch(self.argv(tmp_path, "tagrules", doc)).exit_code
        assert (code, capsys.readouterr()) == (
            2, ("", f"error: tag rules[0]: {field} must not be empty\n")
        )


class TestDecide:
    def test_verdict_reports_chosen_partition(self, inputs):
        res = run_cli("decide", "--graph", inputs / "graph.json",
                      "--rules", inputs / "rules.json",
                      "--rtt-ms", 15, "--bandwidth-bytes-per-s", 1e6,
                      "--cpu-speedup", 4.0)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert "chosen_N" in payload
        assert payload["source"] in ("partition", "singleton-fallback", "local-only")

    def test_energy_model_file_is_accepted(self, inputs):
        res = run_cli("decide", "--graph", inputs / "graph.json",
                      "--rtt-ms", 15, "--bandwidth-bytes-per-s", 1e6,
                      "--cpu-speedup", 4.0, "--energy-model", inputs / "energy.json",
                      "--mode", "all")
        assert res.returncode == 0
        json.loads(res.stdout)

    @pytest.mark.parametrize("flag", ["--rtt-ms", "--bandwidth-bytes-per-s", "--cpu-speedup"])
    def test_non_finite_link_is_a_usage_error(self, inputs, flag):
        args = {"--rtt-ms": "15", "--bandwidth-bytes-per-s": "1e6", "--cpu-speedup": "4"}
        args[flag] = "nan"
        res = run_cli("decide", "--graph", inputs / "graph.json",
                      *[x for kv in args.items() for x in kv])
        assert res.returncode == 2
        assert res.stdout == ""

    def test_repeated_verdicts_are_byte_identical(self, inputs):
        args = ("decide", "--graph", inputs / "graph.json",
                "--rtt-ms", 40, "--bandwidth-bytes-per-s", 250000)
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestAppstats:
    def test_overlap_report_payload(self, inputs):
        res = run_cli("appstats", "--corpus", inputs / "corpus.tsv", "--depth", 2)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["apps"] == 3
        assert payload["depth"] == 2
        assert payload["mean_unique_fraction"] == pytest.approx(70.0)
        assert payload["storage_savings"] == pytest.approx(2 / 19)

    def test_bad_depth_is_a_usage_error(self, inputs):
        res = run_cli("appstats", "--corpus", inputs / "corpus.tsv", "--depth", 0)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("sizes", [
        # One dex size of 401 digits, which the per-class size divides.
        (HUGE, 10),
        # Two sizes in the float range whose total, the savings base, is not.
        (10**308, 10**308),
    ], ids=["401-digit-size", "total-past-float-range"])
    def test_sizes_past_the_float_range_are_a_usage_error(self, capsys, tmp_path, sizes):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            f"appA\t{sizes[0]}\tcom.a.x=3;lib.core=4\n"
            f"appB\t{sizes[1]}\tcom.b.y=1;lib.core=4\n"
        )
        code = cli.dispatch(["appstats", "--corpus", str(path), "--depth", "2"]).exit_code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: total dex size must be within the float range\n"

    def test_depth_past_the_float_range_is_written_as_json_writes_it(self, capsys, inputs):
        argv = ["appstats", "--corpus", str(inputs / "corpus.tsv"), "--depth", str(HUGE)]
        assert cli.dispatch(argv).exit_code == 0
        out, err = capsys.readouterr()
        assert err == ""
        # No package is that deep, so every class is private to its app.
        expected = {
            "apps": 3,
            "depth": HUGE,
            "mean_unique_fraction": 100.0,
            "median_unique_fraction": 100.0,
            "storage_savings": 0.0,
            "per_app_unique_fraction": {"appA": 100.0, "appB": 100.0, "appC": 100.0},
        }
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


class TestParserBasics:
    def test_help_exits_cleanly(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "simulate" in res.stdout

    def test_missing_subcommand_is_a_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_one_parser_serves_every_dispatch_as_a_fresh_one_would(
        self, tmp_path, inputs, capsys
    ):
        graph = ("--graph", inputs / "graph.json")
        commands = [
            ("appstats", "--corpus", inputs / "corpus.tsv", "--depth", 2),
            ("partition", *graph, "--rules", inputs / "rules.json"),
            ("simulate", "--preset", "fig3", "--seed", 2, "--format", "json", "--out", "OUT"),
            ("decide", *graph, "--rtt-ms", "soon", "--bandwidth-bytes-per-s", 1e6),
            ("simulate", "--help"),
            ("appstats", "--corpus", inputs / "corpus.tsv", "--depth", 0),
            ("decide", *graph, "--rtt-ms", 40, "--bandwidth-bytes-per-s", 250000),
            ("simulate", "--config", inputs / "scenario.json", "--strategy", "proactive",
             "--out", "OUT"),
        ]

        def dispatch_all(root, fresh):
            results = []
            for k, command in enumerate(commands):
                if fresh:
                    cli._build_parser.cache_clear()
                out = root / str(k)
                argv = [str(out) if arg == "OUT" else str(arg) for arg in command]
                outcome = cli.dispatch(argv)
                streams = capsys.readouterr()
                files = {p.relative_to(out): p.read_bytes() for p in outcome.artifacts}
                results.append((outcome.exit_code, streams.out, streams.err, files))
            return results

        cli._build_parser.cache_clear()
        cached = dispatch_all(tmp_path / "cached", fresh=False)
        assert cli._build_parser.cache_info().misses == 1
        assert cached == dispatch_all(tmp_path / "fresh", fresh=True)
        assert [r[0] for r in cached] == [0, 0, 0, 2, 0, 2, 0, 0]
        assert "--strategy" in cached[4][1] and cached[3][2].startswith("usage:")


# Exports a fig3 run whose seed is "cafe" with an acute e (escaped, so the
# script itself stays ASCII under any locale), a batch summary, and an
# appstats report through the CLI's --out.
WRITERS_SCRIPT = """
import dataclasses, sys
from pathlib import Path
from offloadsim import cli, simulator as sim
out = Path(sys.argv[1])
m = sim.run_scenario(dataclasses.replace(sim.preset_fig3(), seed="caf\\u00e9", horizon_s=0.02))
for fmt in ("csv", "json"):
    sim.export_metrics(m, fmt, out)
sim.export_batch([m], out)
argv = ["appstats", "--corpus", sys.argv[2], "--depth", "2", "--out", str(out / "appstats.json")]
sys.exit(cli.dispatch(argv).exit_code)
"""


class TestOutputEncoding:
    def run_writers(self, out, corpus, **env):
        full_env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONIO"))}
        full_env.update(env, PYTHONPATH=str(Path(offloadsim.__file__).parent.parent))
        res = subprocess.run(
            [sys.executable, "-c", WRITERS_SCRIPT, str(out), str(corpus)],
            capture_output=True,
            text=True,
            env=full_env,
        )
        assert res.returncode == 0, res.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_files_are_utf8_with_newlines_under_an_ascii_locale(self, tmp_path, inputs):
        utf8 = self.run_writers(tmp_path / "utf8", inputs / "corpus.tsv", PYTHONUTF8="1")
        ascii_locale = self.run_writers(
            tmp_path / "c",
            inputs / "corpus.tsv",
            PYTHONCOERCECLOCALE="0",
            PYTHONUTF8="0",
            LC_ALL="C",
        )
        assert sorted(utf8) == [
            "appstats.json", "batch_summary.json", "run_series.csv", "run_series.json",
            "run_summary.csv", "run_summary.json",
        ]
        assert ascii_locale == utf8
        assert "café".encode() in utf8["run_summary.csv"]
        assert all(b"\r" not in data for data in utf8.values())
