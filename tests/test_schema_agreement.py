"""docs/schemas/scenario.json and ``load_scenario`` agree on the forms a
topology may take, on the parameters each generator kind takes, and on the
bounds of a few fields: the schema (Draft 2020-12, checked by
``jsonschema``) refuses a scenario document exactly when the reader raises
``ConfigError``. The checks that compare two fields, which JSON Schema
cannot state, are the exception: the schema accepts those documents and
``simulate`` exits 2 on them."""

import json
from pathlib import Path

import jsonschema
import pytest

from offloadsim import cli
from offloadsim import simulator as sim
from offloadsim.topology import KIND_PARAMS, generate_topology, write_topology

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SCHEMA = json.loads((SCHEMAS / "scenario.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

BASE_DOC = {
    "topology": None,
    "services": [{"id": "s", "mean_exec_time_s": 0.001}],
    "base_rate_per_s": 100.0,
    "horizon_s": 0.1,
}
GENERATE = {"kind": "line", "n": 3, "seed": 1}

# topology, whether both the schema and the reader refuse it
TOPOLOGY_FORMS = {
    "generate only": ({"generate": GENERATE}, False),
    "file only": ({"file": "line.topo"}, False),
    "both": ({"file": "line.topo", "generate": GENERATE}, True),
    "neither": ({}, True),
    "unknown key": ({"generate": GENERATE, "path": "line.topo"}, True),
    "not an object": (5, True),
    "line": ({"generate": {"kind": "line", "n": 3, "delay_ms": 0.5}}, False),
    "grid": ({"generate": {"kind": "grid", "width": 2, "height": 3, "cpu": 2.0}}, False),
    "tree": ({"generate": {"kind": "tree", "branching": 2, "depth": 2}}, False),
    "scale_free": ({"generate": {"kind": "scale_free", "n": 50, "m": 2, "access_points": 3}},
                   False),
    "line of one node": ({"generate": {"kind": "line", "n": 1}}, False),
    "line without n": ({"generate": {"kind": "line"}}, True),
    "grid of one node": ({"generate": {"kind": "grid", "width": 1, "height": 1}}, True),
    "grid of one row": ({"generate": {"kind": "grid", "width": 3, "height": 1}}, False),
    "scale_free of one node": ({"generate": {"kind": "scale_free", "n": 1, "m": 1}}, True),
    "grid without height": ({"generate": {"kind": "grid", "width": 3}}, True),
    "line with a grid's width": ({"generate": {"kind": "line", "n": 3, "width": 0}}, True),
    "line with a valid width": ({"generate": {"kind": "line", "n": 3, "width": 2}}, True),
    "scale_free with a tree's depth": ({"generate": {"kind": "scale_free", "n": 50, "depth": 3}},
                                       True),
    "tree with n": ({"generate": {"kind": "tree", "branching": 2, "depth": 1, "n": 3}}, True),
    "grid with m": ({"generate": {"kind": "grid", "width": 2, "height": 2, "m": 1}}, True),
}

# scenario fields beside a generated topology, whether both refuse them
FIELD_FORMS = {
    "ttl 0": ({"ttl": 0}, False),
    "ttl null": ({"ttl": None}, False),
    "ttl -1": ({"ttl": -1}, True),
    "warmup_s 0": ({"warmup_s": 0}, False),
    "warmup_s null": ({"warmup_s": None}, False),
    "warmup_s -0.1": ({"warmup_s": -0.1}, True),
}


# scenario edits that only a comparison of two fields refuses, and the
# reader's error (the README lists these checks)
CROSS_FIELD_FORMS = {
    "scale_free m = n": (
        {"topology": {"generate": {"kind": "scale_free", "n": 3, "m": 3}}},
        "scale_free attachment m must satisfy 1 <= m < n",
    ),
    "warmup_s = horizon_s": ({"warmup_s": 0.1}, "warmup must lie inside [0, horizon)"),
    "overlapping jitters": (
        {"jitters": [
            {"start_ms": 0, "duration_ms": 50, "rate_multiplier": 2.0},
            {"start_ms": 25, "duration_ms": 50, "rate_multiplier": 2.0},
        ]},
        "jitter windows overlap",
    ),
    "access_points over the pool": (
        {"topology": {"generate": {"kind": "scale_free", "n": 50, "m": 2, "access_points": 50}}},
        "access points, eligible pool has",
    ),
}


@pytest.mark.parametrize("name", ["scenario", "callgraph", "tagrules", "energymodel"])
def test_each_schema_is_a_valid_draft_2020_12_schema(name):
    jsonschema.Draft202012Validator.check_schema(json.loads((SCHEMAS / f"{name}.json").read_text()))


def test_each_kind_takes_the_parameters_the_generator_reads():
    generate = SCHEMA["properties"]["topology"]["properties"]["generate"]
    allowed = {
        rule["if"]["properties"]["kind"]["const"]: set(rule["then"]["propertyNames"]["enum"])
        for rule in generate["allOf"]
    }
    assert allowed == {kind: {"kind", "seed"} | params for kind, params in KIND_PARAMS.items()}
    assert set(KIND_PARAMS) == set(generate["properties"]["kind"]["enum"])


def agree(tmp_path, doc, refused):
    write_topology(generate_topology("line", {"n": 2}), tmp_path / "line.topo")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert (not VALIDATOR.is_valid(doc)) == refused
    if refused:
        with pytest.raises(sim.ConfigError):
            sim.load_scenario(path)
    else:
        assert sim.load_scenario(path).topology.nodes


@pytest.mark.parametrize("form", sorted(TOPOLOGY_FORMS))
def test_schema_refuses_a_topology_form_exactly_when_the_reader_does(tmp_path, form):
    topology, refused = TOPOLOGY_FORMS[form]
    agree(tmp_path, {**BASE_DOC, "topology": topology}, refused)


@pytest.mark.parametrize("form", sorted(FIELD_FORMS))
def test_schema_refuses_a_field_value_exactly_when_the_reader_does(tmp_path, form):
    edit, refused = FIELD_FORMS[form]
    agree(tmp_path, {**BASE_DOC, "topology": {"generate": GENERATE}, **edit}, refused)


@pytest.mark.parametrize("form", sorted(CROSS_FIELD_FORMS))
def test_a_cross_field_check_refuses_a_schema_valid_scenario(tmp_path, capsys, form):
    edit, error = CROSS_FIELD_FORMS[form]
    doc = {**BASE_DOC, "topology": {"generate": GENERATE}, **edit}
    assert VALIDATOR.is_valid(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.dispatch(argv).exit_code == 2
    assert error in capsys.readouterr().err
