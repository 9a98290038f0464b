"""Each schema under docs/schemas agrees with its reader.

docs/schemas/scenario.json and ``load_scenario`` agree on the forms a
topology may take, on the parameters each generator kind takes, and on the
bounds of a few fields; callgraph.json, tagrules.json and energymodel.json
agree with ``build_call_graph``, ``load_tag_rules`` and
``load_energy_model`` on a table of forms each. On every form the schema
(Draft 2020-12, checked by ``jsonschema``) refuses a document exactly when
the reader raises. The checks that JSON Schema cannot state are the
exception: the schema accepts those documents and the CLI exits 2 on them,
among them a subnormal mean service time or generator capacity, whose
reciprocal overflows.
Every ``default`` a schema declares is the value its reader gives an
omitted key."""

import json
from dataclasses import MISSING, fields
from pathlib import Path

import jsonschema
import pytest

from offloadsim import cli
from offloadsim import decision as dc
from offloadsim import partition as pt
from offloadsim import simulator as sim
from offloadsim.partition import MethodProfile
from offloadsim.topology import KIND_PARAMS, generate_topology, write_topology
from offloadsim.workload import ServiceSpec

from conftest import edit_doc

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
SCHEMA_NAMES = ("scenario", "callgraph", "tagrules", "energymodel")
LOADED = {name: json.loads((SCHEMAS / f"{name}.json").read_text()) for name in SCHEMA_NAMES}
VALIDATORS = {name: jsonschema.Draft202012Validator(LOADED[name]) for name in SCHEMA_NAMES}
SCHEMA = LOADED["scenario"]
VALIDATOR = VALIDATORS["scenario"]

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

# scenario edits that only the arrival stream's checks refuse, and the
# reader's error: JSON Schema cannot state a sum of weights, nor a product
# of the base rate and a jitter's multiplier (the surge below plans about
# 1e7 arrivals, under the cap)
ARRIVAL_FORMS = {
    "popularity weights all zero": (
        {"services": [{"id": "s", "mean_exec_time_s": 0.001, "popularity_weight": 0.0}]},
        "popularity weights must not all be zero",
    ),
    "segment rate overflows": (
        {"jitters": [{"start_ms": 0.0, "duration_ms": 1e-300, "rate_multiplier": 1e308}]},
        "arrival rate must be positive and finite in every rate segment",
    ),
}

# scenario edits that only the reciprocal rule refuses: a subnormal mean
# service time or generator capacity is positive, but the simulator divides
# by it and its reciprocal overflows; and the reader's error
RECIPROCAL_FORMS = {
    "service mean_exec_time_s 1e-320": (
        {"services": [{"id": "s", "mean_exec_time_s": 1e-320}]},
        "mean_exec_time_s and its reciprocal must be positive and finite",
    ),
    "generator cpu 1e-320": (
        {"topology": {"generate": {**GENERATE, "cpu": 1e-320}}},
        "generator capacity and 1/capacity must be finite and > 0",
    ),
    "generator mem 1e-320": (
        {"topology": {"generate": {**GENERATE, "mem": 1e-320}}},
        "generator capacity and 1/capacity must be finite and > 0",
    ),
}


GRAPH = {
    "vertices": [
        {"name": "app.A", "tags": ["ui"], "methods": [
            {"name": "m", "invocations": 2, "t_local_ms": 5.0, "in_bytes": 3,
             "out_bytes": 4, "energy_mj": 6.0, "cpu_scale_hint": 2.0}]},
        {"name": "app.B"},
    ],
    "edges": [{"a": "app.A", "b": "app.B", "weight": 1.5}],
}
METHOD = ("vertices", 0, "methods", 0)
RULE = {"prefix": "android.view", "tag": "pinned"}

# call graphs, whether both the schema and build_call_graph refuse them
CALLGRAPH_FORMS = {
    "two classes and an edge": (GRAPH, False),
    "no classes": ({"vertices": []}, False),
    "zero invocations": (edit_doc(GRAPH, (*METHOD, "invocations"), 0), False),
    "no vertices key": ({"edges": []}, True),
    "vertices not a list": ({"vertices": {}}, True),
    "unknown top-level key": ({**GRAPH, "nodes": []}, True),
    "unknown class key": (edit_doc(GRAPH, ("vertices", 0, "pinned"), True), True),
    "unknown method key": (edit_doc(GRAPH, (*METHOD, "t_local_s"), 0.005), True),
    "unknown edge key": (edit_doc(GRAPH, ("edges", 0, "w"), 1), True),
    "name not a string": (edit_doc(GRAPH, ("vertices", 1, "name"), 7), True),
    "tags not a list": (edit_doc(GRAPH, ("vertices", 0, "tags"), "ui"), True),
    "tag not a string": (edit_doc(GRAPH, ("vertices", 0, "tags"), [1]), True),
    "t_local_ms a string": (edit_doc(GRAPH, (*METHOD, "t_local_ms"), "5"), True),
    "invocations a bool": (edit_doc(GRAPH, (*METHOD, "invocations"), True), True),
    "weight a bool": (edit_doc(GRAPH, ("edges", 0, "weight"), True), True),
    "negative invocations": (edit_doc(GRAPH, (*METHOD, "invocations"), -1), True),
    "negative t_local_ms": (edit_doc(GRAPH, (*METHOD, "t_local_ms"), -5.0), True),
    "negative energy_mj": (edit_doc(GRAPH, (*METHOD, "energy_mj"), -6.0), True),
    "zero cpu_scale_hint": (edit_doc(GRAPH, (*METHOD, "cpu_scale_hint"), 0), True),
    "zero weight": (edit_doc(GRAPH, ("edges", 0, "weight"), 0), True),
    "method without t_local_ms": (
        edit_doc(GRAPH, METHOD, {"name": "m", "invocations": 2}), True
    ),
    "edge without weight": (edit_doc(GRAPH, ("edges", 0), {"a": "app.A", "b": "app.B"}), True),
    "edges null": (edit_doc(GRAPH, ("edges",), None), True),
}

# tag rules, whether both the schema and load_tag_rules refuse them
TAGRULES_FORMS = {
    "one rule": ([RULE], False),
    "no rules": ([], False),
    "not a list": ({"rules": [RULE]}, True),
    "rule not an object": (["android.view"], True),
    "unknown key": ([{**RULE, "label": "ui"}], True),
    "missing tag": ([{"prefix": "android.view"}], True),
    "missing prefix": ([{"tag": "pinned"}], True),
    "empty prefix": ([{**RULE, "prefix": ""}], True),
    "empty tag": ([{**RULE, "tag": ""}], True),
    "tag not a string": ([{**RULE, "tag": 1}], True),
    "prefix a bool": ([{**RULE, "prefix": True}], True),
}

# energy models, whether both the schema and load_energy_model refuse them
ENERGYMODEL_FORMS = {
    "no prices": ({}, False),
    "every price": (
        {"energy_per_tx_byte_j": 1e-7, "energy_per_rx_byte_j": 5e-8, "energy_idle_per_s_j": 0.2},
        False,
    ),
    "integer price": ({"energy_idle_per_s_j": 1}, False),
    "not an object": ([], True),
    "unknown key": ({"energy_per_tx_byte": 1e-7}, True),
    "negative price": ({"energy_per_rx_byte_j": -5e-8}, True),
    "price a bool": ({"energy_idle_per_s_j": True}, True),
    "price a string": ({"energy_per_tx_byte_j": "1e-7"}, True),
    "price null": ({"energy_per_tx_byte_j": None}, True),
}

# schema -> (reader, the error it raises, forms)
READER_FORMS = {
    "callgraph": (pt.build_call_graph, pt.CallGraphError, CALLGRAPH_FORMS),
    "tagrules": (pt.load_tag_rules, pt.CallGraphError, TAGRULES_FORMS),
    "energymodel": (dc.load_energy_model, dc.DecisionError, ENERGYMODEL_FORMS),
}

# schema-valid call graphs and energy models that only the reader refuses,
# and the reader's error (the README lists these checks)
READER_ONLY_FORMS = {
    "duplicate class name": (
        "callgraph", edit_doc(GRAPH, ("vertices", 1, "name"), "app.A"), "duplicate class"
    ),
    "edge naming an unknown class": (
        "callgraph", edit_doc(GRAPH, ("edges", 0, "b"), "app.C"), "references unknown class"
    ),
    "self-edge": ("callgraph", edit_doc(GRAPH, ("edges", 0, "b"), "app.A"), "self-edge"),
    "invocations outside the float range": (
        "callgraph", edit_doc(GRAPH, (*METHOD, "invocations"), 10**400), "within the float range"
    ),
    "price outside the float range": (
        "energymodel", {"energy_idle_per_s_j": 10**400}, "within the float range"
    ),
}


def schema_defaults(node, path=()):
    """(document path, property schema) for every property under ``node``
    that declares a ``default``; an array's items sit at index 0."""
    for key, prop in node.get("properties", {}).items():
        if "default" in prop:
            yield (*path, key), prop
        yield from schema_defaults(prop, (*path, key))
    if "items" in node:
        yield from schema_defaults(node["items"], (*path, 0))


def read_graph(doc):
    graph = pt.build_call_graph(doc)
    return graph.vertices, graph.adj


# schema -> (a document holding every key with a default, or its parent
# object, and a non-empty value for each list default; what its reader
# makes of a document, as a comparable value)
DEFAULT_BASES = {
    "scenario": (
        {
            **BASE_DOC,
            "topology": {"generate": {"kind": "scale_free", "n": 20}},
            "jitters": [{"start_ms": 10, "duration_ms": 20, "rate_multiplier": 2.0}],
        },
        sim.scenario_from_dict,
    ),
    "callgraph": (GRAPH, read_graph),
    "energymodel": ({}, dc.load_energy_model),
}
DEFAULTS = {name: dict(schema_defaults(LOADED[name])) for name in SCHEMA_NAMES}

# (schema, path of an object) -> the dataclass whose same-named fields
# hold a third copy of that object's defaults
DATACLASS_OF = {
    ("scenario", ()): sim.ScenarioConfig,
    ("scenario", ("services", 0)): ServiceSpec,
    ("callgraph", METHOD): MethodProfile,
    ("energymodel", ()): dc.EnergyModel,
}


def without(doc, path):
    """A deep copy of ``doc`` with the key at ``path`` removed."""
    doc = edit_doc(doc, path, None)
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    del node[last]
    return doc


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_each_schema_is_a_valid_draft_2020_12_schema(name):
    jsonschema.Draft202012Validator.check_schema(LOADED[name])


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


@pytest.mark.parametrize("form", sorted(ARRIVAL_FORMS))
def test_an_arrival_check_refuses_a_schema_valid_scenario_at_load(
    tmp_path, capsys, monkeypatch, form
):
    edit, error = ARRIVAL_FORMS[form]
    doc = {**BASE_DOC, "topology": {"generate": GENERATE}, **edit}
    assert VALIDATOR.is_valid(doc)
    with pytest.raises(sim.ConfigError, match=error):
        sim.scenario_from_dict(doc)

    def unreachable(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim, "run_scenario", unreachable)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.dispatch(argv).exit_code == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy", sim.STRATEGIES)
@pytest.mark.parametrize("form", sorted(RECIPROCAL_FORMS))
def test_a_reciprocal_that_overflows_refuses_a_schema_valid_scenario(
    tmp_path, capsys, form, strategy
):
    edit, error = RECIPROCAL_FORMS[form]
    doc = {**BASE_DOC, "topology": {"generate": GENERATE}, "strategy": strategy, **edit}
    assert VALIDATOR.is_valid(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.dispatch(argv).exit_code == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "schema, form", [(schema, form) for schema, (*_, forms) in READER_FORMS.items() for form in sorted(forms)]
)
def test_schema_refuses_an_analysis_input_exactly_when_the_reader_does(schema, form):
    read, error, forms = READER_FORMS[schema]
    doc, refused = forms[form]
    assert (not VALIDATORS[schema].is_valid(doc)) == refused
    if refused:
        with pytest.raises(error):
            read(json.dumps(doc))
    else:
        read(json.dumps(doc))


@pytest.mark.parametrize("form", sorted(READER_ONLY_FORMS))
def test_a_reader_only_check_refuses_a_schema_valid_analysis_input(tmp_path, capsys, form):
    schema, doc, error = READER_ONLY_FORMS[form]
    assert VALIDATORS[schema].is_valid(doc)
    graph, model = tmp_path / "graph.json", tmp_path / "energy.json"
    graph.write_text(json.dumps(doc if schema == "callgraph" else GRAPH))
    model.write_text(json.dumps(doc if schema == "energymodel" else {}))
    argv = ["decide", "--graph", str(graph), "--energy-model", str(model),
            "--rtt-ms", "10", "--bandwidth-bytes-per-s", "1e6"]
    assert cli.dispatch(argv).exit_code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema, path",
    [(schema, path) for schema in SCHEMA_NAMES for path in DEFAULTS[schema]],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_an_omitted_key_reads_as_its_schema_default(schema, path):
    base, read = DEFAULT_BASES[schema]
    prop = DEFAULTS[schema][path]
    default = prop["default"]
    as_default = read(edit_doc(base, path, default))
    assert read(without(base, path)) == as_default
    # The key is read at all: another value reads differently. A list's
    # other value is the base document's, which is not empty.
    if "enum" in prop:
        other = next(v for v in prop["enum"] if v != default)
    elif isinstance(default, bool):
        other = not default
    elif default is None:
        other = 0
    elif isinstance(default, str):
        other = default + "-other"
    elif isinstance(default, (int, float)):
        other = default + 1
    else:
        other = base
        for step in path:
            other = other[step]
    assert read(edit_doc(base, path, other)) != as_default
    # The dataclass the reader builds holds the third copy of the default.
    cls = DATACLASS_OF.get((schema, path[:-1]))
    for f in fields(cls) if cls else ():
        if f.name == path[-1]:
            assert (f.default_factory() if f.default is MISSING else f.default) == default
