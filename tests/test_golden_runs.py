"""Pinned outputs: the sha256 of ``repr(RunMetrics)`` for every preset ×
strategy at seeds 1 and 2, and with ``server_executes=True`` or
``proactive_forwarding=False`` at seed 1; for fig3's proactive scenario
with the default TTL and the server executing on topologies of hop
diameter 1; and the sha256 of each file that
``export_metrics(m, "both")`` writes for the scale-free scenario the
benchmark runs (400 nodes, 0.1 s, topology seeds 0-2, run seed one more)
under every strategy, plus a run seed that is a string.

A change to the event loop that claims to keep outputs identical must keep
every digest. A change that means to move results updates the table and
says why.
"""

import dataclasses
import hashlib

import pytest

from offloadsim import simulator as sim
from offloadsim.topology import generate_topology

VARIANTS = {
    "1": {"seed": 1},
    "2": {"seed": 2},
    "1-server-executes": {"seed": 1, "server_executes": True},
    "1-no-forwarding": {"seed": 1, "proactive_forwarding": False},
}

DIGESTS = {
    ("fig3", "none", "1"): "91f9722231efbc9c62d006c935313cbb5017dec5ee1f8508670b74b26dacd52a",
    ("fig3", "none", "2"): "a64f33c6c969d139de20402e35e1eae3bd667385d8353e7a020fc7bac5060c5e",
    ("fig3", "none", "1-server-executes"): "1d0ec5290e7906948e011e148473d5801ae5297bb1c5bd241e3971d52dec6a38",
    ("fig3", "none", "1-no-forwarding"): "91f9722231efbc9c62d006c935313cbb5017dec5ee1f8508670b74b26dacd52a",
    ("fig3", "passive", "1"): "9220ab672af44b949ffb1bc1231e301a7c9107a2c6e1b60ecb6b6ed4bd499a78",
    ("fig3", "passive", "2"): "0618ef3c9a8ec4c956e4d36c4a53b3e313c50705faf9ece5d156e33ea5258f37",
    ("fig3", "passive", "1-server-executes"): "0ec2ea380bb979b158e5cebe28865ab0350b58929d1d07ca73bd5fc4180a913a",
    ("fig3", "passive", "1-no-forwarding"): "9220ab672af44b949ffb1bc1231e301a7c9107a2c6e1b60ecb6b6ed4bd499a78",
    ("fig3", "proactive", "1"): "20f92ec07d04074354d3fe8f9675215e27d4483d38318b02db069ad18a20f321",
    ("fig3", "proactive", "2"): "62dba49276cf7fdc20fd0233a5ee6da434229e66ec1d160399dd3833ed1c0bb4",
    ("fig3", "proactive", "1-server-executes"): "7a774b625786705812c75fa47321a497902ceb4b5ebd256b42980607c79d375c",
    ("fig3", "proactive", "1-no-forwarding"): "1f96f2007bfc8d3fc17522f1237f22126367089cf91fc0f5180587cb1e871f9e",
    ("overload-line", "none", "1"): "f0babdb954ec675f1813cf26f4ab3095baef2fe3d3baec0ddf59f6050e8c5bd5",
    ("overload-line", "none", "2"): "92cd3db94916aad6f39c764495ba3e2310d609685e9327beaeba7576a82f75e1",
    ("overload-line", "none", "1-server-executes"): "5560ad4c2140267bb9be494f9270158fe5a0183031f63c0feba2952a44c2de40",
    ("overload-line", "none", "1-no-forwarding"): "f0babdb954ec675f1813cf26f4ab3095baef2fe3d3baec0ddf59f6050e8c5bd5",
    ("overload-line", "passive", "1"): "4414f86cff8a0aed597fc452f6c2c148b1f7bdbe6382eae3ef1336d9d8242678",
    ("overload-line", "passive", "2"): "fcdf6210863e0935a01a8d5639d092e23b8925b3dd3a3fb79b517f7c7616955e",
    ("overload-line", "passive", "1-server-executes"): "6462c91dc370f64eba61753b673affaeee4839abd9ee0335fa91804772825b40",
    ("overload-line", "passive", "1-no-forwarding"): "4414f86cff8a0aed597fc452f6c2c148b1f7bdbe6382eae3ef1336d9d8242678",
    ("overload-line", "proactive", "1"): "7cafb01fda8f7f14b5b2e61d04ba96dc4e858aa758cf92904949819335debd4f",
    ("overload-line", "proactive", "2"): "5a315edc3fbb1d60a855899b84e3637f50c355113f32b23bd6f1ed353d0a6fff",
    ("overload-line", "proactive", "1-server-executes"): "290234d7a69e34db3facbe719c4182384b85f3920456c15870e3b6444f98b5c9",
    ("overload-line", "proactive", "1-no-forwarding"): "8896c4f6b06a728c710c5ae8d01caed30628b372d6076688e8dabc85f870abef",
    ("overload-grid", "none", "1"): "cb301949fff8a020f4a6643b3b3a01feda20ab061f788b7a1742cb810478e91d",
    ("overload-grid", "none", "2"): "a8aa792e44c153d7cdc4e136eea348e448927080c111bc5db182dd1be7b76677",
    ("overload-grid", "none", "1-server-executes"): "fd9245f3f0393fb3d4bc858e7cfa35d954f71591de8d8a062dfb1067d27a4f59",
    ("overload-grid", "none", "1-no-forwarding"): "cb301949fff8a020f4a6643b3b3a01feda20ab061f788b7a1742cb810478e91d",
    ("overload-grid", "passive", "1"): "09778a3026464997b6e51b31886a566f76504afc1738733d8e5b857b8dd4007a",
    ("overload-grid", "passive", "2"): "18b6b2269fd12e052346e6498842e3bbac50cf75486a09f4edc7f00965bac992",
    ("overload-grid", "passive", "1-server-executes"): "85c71cbf606ea5538199236d91d5ca9831c97e61d77e2f7e960ef9be7f8d57f1",
    ("overload-grid", "passive", "1-no-forwarding"): "09778a3026464997b6e51b31886a566f76504afc1738733d8e5b857b8dd4007a",
    ("overload-grid", "proactive", "1"): "a7e17a496baad01ff018347bfb861075cd24139b3719a92d7a54bc4fabef0a76",
    ("overload-grid", "proactive", "2"): "8d7e185f817a027e169d73ee4e4d4927c89fbe222b1806bc3f833bb6bfbcbcd8",
    ("overload-grid", "proactive", "1-server-executes"): "a83f5e88b5e256684ce0e3e366b34d36b2f1433a83276c00b08e2e73537073eb",
    ("overload-grid", "proactive", "1-no-forwarding"): "66e59641266beaa95b1b57a94c020ab056df3108b396d4ebd4f515362ffde192",
}


@pytest.mark.parametrize("preset,strategy,variant", sorted(DIGESTS))
def test_run_metrics_match_the_pinned_digest(preset, strategy, variant):
    cfg = dataclasses.replace(sim.PRESETS[preset](strategy), **VARIANTS[variant])
    m = sim.run_scenario(cfg)
    assert hashlib.sha256(repr(m).encode()).hexdigest() == DIGESTS[preset, strategy, variant]


def test_the_table_covers_every_preset_strategy_and_variant():
    assert set(DIGESTS) == {
        (p, s, v) for p in sim.PRESETS for s in sim.STRATEGIES for v in VARIANTS
    }


# Topologies of hop diameter 1, on which the default TTL's lower bound of 2
# is the TTL itself: a request's second forward spends it without the
# diameter being computed first.
DIAMETER_ONE = {
    "line-2": ("line", {"n": 2}),
    "scale_free-3": ("scale_free", {"n": 3, "m": 2}),
}

# (topology, load multiplier) -> sha256 of repr(RunMetrics) for fig3's
# proactive scenario at seed 1 with ttl=None and server_executes=True.
DEFAULT_TTL_DIGESTS = {
    ("line-2", 1.0): "2a3dc9870e8eb94fe60cfd82411563dfbc50d0ea0f18dc637c59d9dfbca2f379",
    ("line-2", 8.0): "0e6ae9214365a34dba08d3c323d4a3ce9ddb73ebee42e929b52d30df0fb5042a",
    ("scale_free-3", 1.0): "3dcd78ebcfb94d36f12899250943ecb568b29db8179978076453d1939f94eee0",
    ("scale_free-3", 8.0): "48e5a88c7077ec2142081488396f254c3aab45d17c961774c59380dcc75c47d0",
}


@pytest.mark.parametrize("topology,load", sorted(DEFAULT_TTL_DIGESTS))
def test_default_ttl_runs_on_diameter_one_topologies_match_the_pinned_digest(topology, load):
    kind, params = DIAMETER_ONE[topology]
    cfg = dataclasses.replace(
        sim.preset_fig3("proactive"),
        topology=generate_topology(kind, params),
        ttl=None,
        server_executes=True,
        load_multiplier=load,
        seed=1,
    )
    m = sim.run_scenario(cfg)
    assert cfg.resolved_ttl() == 2
    assert m.forwarded > 0
    assert hashlib.sha256(repr(m).encode()).hexdigest() == DEFAULT_TTL_DIGESTS[topology, load]


def scalefree_scenario(instance: int) -> dict:
    return {
        "name": "scalefree-400",
        "topology": {
            "generate": {"kind": "scale_free", "n": 400, "m": 2, "cpu": 3.0, "mem": 4.0,
                         "seed": instance}
        },
        "services": [{"id": "task", "mean_exec_time_s": 0.002}],
        "base_rate_per_s": 400.0,
        "horizon_s": 0.1,
        "jitters": [
            {"start_ms": 30.0, "duration_ms": 10.0, "rate_multiplier": 4.0},
            {"start_ms": 60.0, "duration_ms": 10.0, "rate_multiplier": 4.0},
        ],
        "gossip_period_ms": 1.0,
        "sample_interval_ms": 1.0,
    }


#: A run seed that the JSON and CSV summaries must escape or quote.
STRING_SEED = 'q"b\\s\x01\u00e9\u2028'

#: (topology seed, strategy, run seed) -> sha256 of run_summary.csv,
#: run_series.csv, run_summary.json and run_series.json.
EXPORT_DIGESTS = {
    (0, "none", 1): (
        "c4def07b30ce06ffde752d2bcb656a1c3981159a23afdf8891cd12a6edd8f33c",
        "83f8c11998c3c06002232f1c5720fd1ea8005eb764966c07076cd6e651d8663c",
        "9948c388eb9653a31caa6f4ca54d5d6142cc8666941aaa6a1de76620d02d1056",
        "f4f740925d2c9cfcd0b91a6597598c929db8ef300013093779fc5123709823fc",
    ),
    (0, "passive", 1): (
        "b480f691a4bbe8a556756fdeb03b3bb840352a1cb60b22ea54d7e3db97cb670a",
        "83f8c11998c3c06002232f1c5720fd1ea8005eb764966c07076cd6e651d8663c",
        "97919a4fdf096efae6643ebdf8fa70fd59c9b559f60f2f4ef6a1e8d65326744d",
        "f4f740925d2c9cfcd0b91a6597598c929db8ef300013093779fc5123709823fc",
    ),
    (0, "proactive", 1): (
        "f685117907f779955bc70cd011a04757f18a75a9f4993a2af5d650c2909c8ece",
        "51a191723a0d1af59416d1b13f67358d4a1ca194b1d8dec2ebbe85d810c80fb9",
        "12bc4534eff896533e368b8d2f589bf5b120144108b1b8fbd612bd88144c7676",
        "ed9d5c857995921fc6ca7f504ed222d248e57f0bc6c1cb37c7cef5f622160ff0",
    ),
    (1, "none", 2): (
        "b634fb894ba9cd798238b93c2a4e07fdf32afcdd93e7228dc45ee3a7c7f98f2a",
        "691bf5a1a47de07847362196ee6b2770e93673d167b3a85aa5a0c1724664c493",
        "51bc6c8c07b6434b9eeeacfca2be11e57237501f7e12f475571991f7d2dfcca9",
        "eda070b3cc9fd25db7db16a55214c8a0a53d9f6bb5910513629bc7ccb9b988f2",
    ),
    (1, "passive", 2): (
        "bc03547b910ffbf3f083d09ad817278bc2acab3a04451f7efa15e012d6c5ec7f",
        "691bf5a1a47de07847362196ee6b2770e93673d167b3a85aa5a0c1724664c493",
        "fdd98b774d76e61a0ab8cce8903ee46864647c6f6eec8346c4132063d38b41a2",
        "eda070b3cc9fd25db7db16a55214c8a0a53d9f6bb5910513629bc7ccb9b988f2",
    ),
    (1, "proactive", 2): (
        "a364556a547cab1438b3a769fa9f642c84ce5aa1d93a2082c6078f890169a29f",
        "5a188cbf53c64fb67dc9cbe10cfe4c8fca35201dee65748241f9c83e89cec481",
        "7f3d7823fe80316f4563820d99876f3b746756963d99fe34ce161de004c4e222",
        "9027be52398cf9325c548505f0a019fab998996ecc1d4e475f7acf83146ba216",
    ),
    (2, "none", 3): (
        "59e342c021719298ccfc402b01336eddcf65c79f1d01349686b904abc3b90cef",
        "1f77ebc78bc064188dcbe312a5747d7c7399abd208a67420e9133e567150fa46",
        "c91bca23604635f48f4c3db1fa3252939941749a3aa01745af8b0d0df4137e84",
        "31a4be3caa06b76165c5ec8fd8cded7a0fa68d6ddbad576b0efd8d3d7a6975aa",
    ),
    (2, "passive", 3): (
        "02f41c96fec5e3a85c90db4ff54a917c02e88d98dc3a85b5d76dd655f6145fd7",
        "1f77ebc78bc064188dcbe312a5747d7c7399abd208a67420e9133e567150fa46",
        "b864f1af72f5906b281d668aca32da0de7944ce04f0148ea166e6df57e6d8ee0",
        "31a4be3caa06b76165c5ec8fd8cded7a0fa68d6ddbad576b0efd8d3d7a6975aa",
    ),
    (2, "proactive", 3): (
        "17f6e0804abe12e8f338ecc74157f6e977cc6d303ef25079abb2fbf44c38ab22",
        "cc6c9bc2e51f60cc1d445aad266e9ba67abb4c77949e95b3c4bad8be6dd30b82",
        "44f05c36353ec71e859a98a12ca1736ac2c6c5635cdcc95bd1047bf27f6b42a8",
        "a158d3e97463b0a95b1f28b0f4824a343a6fb1ff2ce9e91da4400cce089dfa87",
    ),
    (1, "proactive", STRING_SEED): (
        "673ee90166c0fceb1d9baea8079d5540596c5c63d748570284f23a141684c019",
        "39f62885a555de6e02904df5a81f90236f18f03700b17ab283e7fc7b00abf2b9",
        "08a925f98e63acb0814676aa3c0af52f158cccabef2e3acf98e7d320fa823ba3",
        "9833f2e76a567a713f600c1de35c07b3b8cfec215cc6973e6b9efb40baac701b",
    ),
}


@pytest.mark.parametrize("instance,strategy,seed", list(EXPORT_DIGESTS))
def test_scale_free_exports_match_the_pinned_digests(instance, strategy, seed, tmp_path):
    cfg = dataclasses.replace(
        sim.scenario_from_dict(scalefree_scenario(instance)), strategy=strategy, seed=seed
    )
    paths = sim.export_metrics(sim.run_scenario(cfg), "both", tmp_path)
    assert [p.name for p in paths] == [
        "run_summary.csv", "run_series.csv", "run_summary.json", "run_series.json",
    ]
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == EXPORT_DIGESTS[instance, strategy, seed]
