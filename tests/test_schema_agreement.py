"""docs/schemas/scenario.json and ``load_scenario`` agree on the forms a
topology may take: the schema (Draft 2020-12, checked by ``jsonschema``)
refuses a scenario document exactly when the reader raises
``ConfigError``."""

import json
from pathlib import Path

import jsonschema
import pytest

from offloadsim import simulator as sim
from offloadsim.topology import generate_topology, write_topology

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "schemas" / "scenario.json").read_text()
)
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
}


def test_scenario_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("form", sorted(TOPOLOGY_FORMS))
def test_schema_refuses_a_topology_form_exactly_when_the_reader_does(tmp_path, form):
    topology, refused = TOPOLOGY_FORMS[form]
    write_topology(generate_topology("line", {"n": 2}), tmp_path / "line.topo")
    doc = {**BASE_DOC, "topology": topology}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert (not VALIDATOR.is_valid(doc)) == refused
    if refused:
        with pytest.raises(sim.ConfigError):
            sim.load_scenario(path)
    else:
        assert sim.load_scenario(path).topology.nodes
