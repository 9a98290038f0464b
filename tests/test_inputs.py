"""One path-or-text rule for every loader: a ``Path`` is a file, a ``str``
is its contents, and an unreadable file raises the loader's own
``ValueError`` subclass (the CLI's exit 2), never an ``OSError`` or a
``UnicodeDecodeError``."""

import json
import re

import pytest

from offloadsim import appstats, cli, decision, partition, simulator, topology

TOPOLOGY_TEXT = "nodes 2 server 1\n0 1.0 1.0 1\n1 2.0 2.0 0\n0 1 1.5\n"
CORPUS_TEXT = "appA\t1000\tcom.a.x=3;lib.core=4\n"
ENERGY_TEXT = json.dumps({"energy_per_tx_byte_j": 1e-7, "energy_idle_per_s_j": 0.2})
GRAPH_TEXT = json.dumps({
    "vertices": [{"name": "a.A"}, {"name": "b.B"}],
    "edges": [{"a": "a.A", "b": "b.B", "weight": 2.5}],
})
RULES_TEXT = json.dumps([{"prefix": "a", "tag": "pinned"}])

# loader, its error, valid text, what to compare between two loads
LOADERS = {
    "topology": (topology.load_topology, topology.TopologyError, TOPOLOGY_TEXT, lambda t: t),
    "corpus": (appstats.parse_corpus, appstats.CorpusError, CORPUS_TEXT, lambda c: c),
    "energy": (decision.load_energy_model, decision.DecisionError, ENERGY_TEXT, lambda m: m),
    "graph": (partition.build_call_graph, partition.CallGraphError, GRAPH_TEXT,
              lambda g: (g.names(), g.edge_list())),
    "rules": (partition.load_tag_rules, partition.CallGraphError, RULES_TEXT, lambda r: r),
}


@pytest.fixture(params=sorted(LOADERS))
def loader(request):
    return LOADERS[request.param]


def test_path_is_a_file_and_str_is_its_text(loader, tmp_path):
    load, _, text, key = loader
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert key(load(path)) == key(load(text))


def test_str_naming_a_file_is_read_as_text(loader, tmp_path):
    load, error, text, _ = loader
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error):
        load(str(path))


@pytest.mark.parametrize("make", ["missing", "directory", "undecodable"])
def test_unreadable_file_raises_the_loader_error(loader, tmp_path, make):
    load, error, _, _ = loader
    path = tmp_path / "input"
    if make == "directory":
        path.mkdir()
    elif make == "undecodable":
        path.write_bytes(b"\xff\xfe\x00\x80 not utf-8")
    with pytest.raises(error, match="cannot read"):
        load(path)


def test_other_source_types_raise_the_loader_error(loader):
    load, error, _, _ = loader
    with pytest.raises(error, match="must be a Path or text"):
        load(42)


def test_energy_model_still_takes_a_dict():
    model = decision.load_energy_model({"energy_idle_per_s_j": 0.5})
    assert model.energy_idle_per_s_j == 0.5


def test_energy_model_json_must_be_an_object():
    with pytest.raises(decision.DecisionError, match="JSON object"):
        decision.load_energy_model("[1, 2]")


@pytest.mark.parametrize("make", ["missing", "directory", "undecodable"])
def test_unreadable_scenario_raises_config_error(tmp_path, make):
    path = tmp_path / "scenario.json"
    if make == "directory":
        path.mkdir()
    elif make == "undecodable":
        path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(simulator.ConfigError, match="cannot read"):
        simulator.load_scenario(path)


def test_invalid_scenario_json_names_the_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(simulator.ConfigError, match=re.escape(f"{path} is not valid JSON")):
        simulator.load_scenario(path)


def _write_inputs(root):
    (root / "graph.json").write_text(GRAPH_TEXT)
    (root / "corpus.tsv").write_text(CORPUS_TEXT)
    (root / "bad.bin").write_bytes(b"\xff\xfe\x00\x80")
    scenario = {
        "topology": {"file": "absent.topo"},
        "services": [{"mean_exec_time_s": 0.001}],
        "base_rate_per_s": 100.0,
        "horizon_s": 0.01,
    }
    (root / "scenario.json").write_text(json.dumps(scenario))
    scenario["topology"] = {"file": "bad.bin"}
    (root / "bad-topology.json").write_text(json.dumps(scenario))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "scenario.json"],
        ["simulate", "--config", "bad-topology.json"],
        ["simulate", "--config", "bad.bin"],
        ["appstats", "--corpus", "absent.tsv", "--depth", "2"],
        ["appstats", "--corpus", "bad.bin", "--depth", "2"],
        ["partition", "--graph", "absent.json"],
        ["partition", "--graph", "bad.bin"],
        ["decide", "--graph", "graph.json", "--rtt-ms", "10",
         "--bandwidth-bytes-per-s", "1e6", "--energy-model", "absent.json"],
        ["decide", "--graph", "graph.json", "--rtt-ms", "10",
         "--bandwidth-bytes-per-s", "1e6", "--energy-model", "bad.bin"],
    ],
    ids=[
        "simulate-missing-topology", "simulate-undecodable-topology", "simulate-undecodable",
        "appstats-missing", "appstats-undecodable", "partition-missing",
        "partition-undecodable", "decide-missing-energy", "decide-undecodable-energy",
    ],
)
def test_cli_unreadable_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "out")]
    outcome = cli.dispatch(argv)
    assert outcome.exit_code == cli.EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["partition", "--graph", "deep.json"], "call graph"),
        (["partition", "--graph", "graph.json", "--rules", "deep.json"], "tag rules"),
        (["simulate", "--config", "deep.json", "--out", "out"], "scenario config"),
        (["decide", "--graph", "graph.json", "--rtt-ms", "10", "--bandwidth-bytes-per-s", "1e6",
          "--energy-model", "deep.json"], "energy model"),
    ],
    ids=["graph", "rules", "config", "energy-model"],
)
def test_cli_deeply_nested_json_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, what):
    # json.loads raises RecursionError on it.
    _write_inputs(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(argv).exit_code == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: {what} deep.json is nested too deeply to parse\n")
