"""Pinned outputs: the sha256 of ``repr(RunMetrics)`` for every preset ×
strategy at seeds 1 and 2, and with ``server_executes=True`` or
``proactive_forwarding=False`` at seed 1.

A change to the event loop that claims to keep outputs identical must keep
every digest. A change that means to move results updates the table and
says why.
"""

import dataclasses
import hashlib

import pytest

from offloadsim import simulator as sim

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
