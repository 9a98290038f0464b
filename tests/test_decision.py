"""Offload gating checked against a straight-line transcription of the
time and energy inequalities, plus partition selection semantics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import decision as dc
from offloadsim import partition as pt
from offloadsim.partition import MethodProfile

from conftest import make_graph


def straight_line_time_valid(methods, boundary, cond):
    """Independent evaluation: weighted local time must strictly exceed the
    weighted remote time plus boundary transfer costs."""
    total_inv = sum(m.invocations for m in methods)
    local = remote = 0.0
    for m in methods:
        f = m.invocations / total_inv if total_inv > 0 else 0.0
        local += f * m.t_local_s
        remote += f * (m.t_local_s / (cond.cpu_speedup * m.cpu_scale_hint))
        if boundary:
            remote += f * (
                cond.rtt_s + (m.in_bytes + m.out_bytes) / cond.bandwidth_bytes_per_s
            )
    return local > remote


def straight_line_energy_valid(methods, boundary, cond, model):
    total_inv = sum(m.invocations for m in methods)
    local = remote = 0.0
    for m in methods:
        f = m.invocations / total_inv if total_inv > 0 else 0.0
        local += f * m.energy_local_j
        if boundary:
            wait = (
                cond.rtt_s
                + (m.in_bytes + m.out_bytes) / cond.bandwidth_bytes_per_s
                + m.t_local_s / (cond.cpu_speedup * m.cpu_scale_hint)
            )
            remote += f * (
                m.in_bytes * model.energy_per_tx_byte_j
                + m.out_bytes * model.energy_per_rx_byte_j
                + wait * model.energy_idle_per_s_j
            )
    if local == 0.0 and remote == 0.0:
        return True
    return local > remote


def one_method_profile(t_local_ms, rtt_ms=15.0, in_bytes=0.0, out_bytes=0.0,
                       invocations=1.0, boundary=True, speedup=10.0,
                       energy_mj=0.0):
    """A one-method (methods, boundary) pair and the link it runs over."""
    methods = [MethodProfile(
        name="m", invocations=invocations, t_local_s=t_local_ms / 1000.0,
        in_bytes=in_bytes, out_bytes=out_bytes,
        energy_local_j=energy_mj / 1000.0,
    )]
    cond = dc.NetworkConditions(
        rtt_s=rtt_ms / 1000.0, bandwidth_bytes_per_s=1e9, cpu_speedup=speedup
    )
    return (methods, boundary), cond


def test_short_method_loses_to_round_trip():
    prof, cond = one_method_profile(t_local_ms=10.0)
    assert dc.class_valid_time(*prof, cond) is False


def test_long_method_wins_despite_round_trip():
    prof, cond = one_method_profile(t_local_ms=100.0)
    assert dc.class_valid_time(*prof, cond) is True


def test_tie_means_stay_local():
    # Remote cost equals local bit for bit: 16 ms local against 8 ms remote
    # execution plus an 8 ms round trip (halving is exact in binary).
    prof, cond = one_method_profile(t_local_ms=16.0, rtt_ms=8.0, speedup=2.0)
    assert dc.class_valid_time(*prof, cond) is False


def exact_tie_class(energy_local_j=0.96875):
    """A boundary class whose local and remote sides are equal and non-zero
    in both gates, with every term exact in binary. Time: 1.25 s local
    against 1.25 / 5 s remote plus a 0.25 s round trip and 6 bytes at
    8 bytes/s. Energy: 4 bytes sent at 1/16 J, 2 received at 1/8 J and the
    1.25 s wait at 3/8 J/s add up to 31/32 J."""
    prof = (
        [MethodProfile(name="m", invocations=1.0, t_local_s=1.25, in_bytes=4.0,
                       out_bytes=2.0, energy_local_j=energy_local_j)],
        True,
    )
    cond = dc.NetworkConditions(rtt_s=0.25, bandwidth_bytes_per_s=8.0, cpu_speedup=5.0)
    model = dc.EnergyModel(energy_per_tx_byte_j=0.0625, energy_per_rx_byte_j=0.125,
                           energy_idle_per_s_j=0.375)
    return prof, cond, model


def test_exact_ties_fail_both_gates():
    prof, cond, model = exact_tie_class()
    assert straight_line_time_valid(*prof, cond) is False
    assert dc.class_valid_time(*prof, cond) is False
    assert straight_line_energy_valid(*prof, cond, model) is False
    assert dc.class_valid_energy(*prof, cond, model) is False
    prof, cond, model = exact_tie_class(math.nextafter(0.96875, math.inf))
    assert dc.class_valid_energy(*prof, cond, model) is True


def test_heavy_method_compensates_trivial_one():
    methods = [
        MethodProfile(name="heavy", invocations=9.0, t_local_s=0.050),
        MethodProfile(name="tostring", invocations=1.0, t_local_s=0.0001),
    ]
    cond = dc.NetworkConditions(rtt_s=0.015, bandwidth_bytes_per_s=1e9, cpu_speedup=10.0)
    assert dc.class_valid_time([methods[1]], True, cond) is False
    assert dc.class_valid_time(methods, True, cond) is True


@pytest.mark.parametrize("boundary", [True, False])
def test_empty_profile_never_valid(boundary):
    cond = dc.NetworkConditions(rtt_s=0.01, bandwidth_bytes_per_s=1e6, cpu_speedup=2.0)
    assert dc.class_valid_time([], boundary, cond) is False
    assert dc.class_valid_energy([], boundary, cond, dc.EnergyModel()) is False


def test_energy_zero_transfer_beats_positive_local():
    prof, cond = one_method_profile(t_local_ms=10.0, energy_mj=5.0)
    model = dc.EnergyModel(energy_per_tx_byte_j=1e-6, energy_per_rx_byte_j=1e-6,
                           energy_idle_per_s_j=0.0)
    assert dc.class_valid_energy(*prof, cond, model) is True


def test_energy_huge_state_transfer_invalid():
    prof, cond = one_method_profile(t_local_ms=10.0, in_bytes=1e12, energy_mj=5.0)
    model = dc.EnergyModel(energy_per_tx_byte_j=1e-6)
    assert dc.class_valid_energy(*prof, cond, model) is False


def test_energy_gate_vacuous_when_both_sides_zero():
    prof, cond = one_method_profile(t_local_ms=10.0)
    assert dc.class_valid_energy(*prof, cond, dc.EnergyModel()) is True


def test_non_boundary_method_pays_no_transfer():
    prof, cond = one_method_profile(t_local_ms=10.0, boundary=False)
    # Without the round trip the 10x speedup wins outright.
    assert dc.class_valid_time(*prof, cond) is True


def test_network_conditions_validated():
    with pytest.raises(ValueError):
        dc.NetworkConditions(rtt_s=-0.001, bandwidth_bytes_per_s=1e6, cpu_speedup=2.0)
    with pytest.raises(ValueError):
        dc.NetworkConditions(rtt_s=0.01, bandwidth_bytes_per_s=0.0, cpu_speedup=2.0)
    with pytest.raises(ValueError):
        dc.NetworkConditions(rtt_s=0.01, bandwidth_bytes_per_s=1e6, cpu_speedup=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["rtt_s", "bandwidth_bytes_per_s", "cpu_speedup"])
def test_network_conditions_reject_non_finite(field, value):
    kwargs = {"rtt_s": 0.01, "bandwidth_bytes_per_s": 1e6, "cpu_speedup": 2.0, field: value}
    with pytest.raises(dc.DecisionError):
        dc.NetworkConditions(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["energy_per_tx_byte_j", "energy_per_rx_byte_j", "energy_idle_per_s_j"]
)
def test_energy_model_rejects_non_finite(field, value):
    with pytest.raises(dc.DecisionError):
        dc.EnergyModel(**{field: value})
    with pytest.raises(dc.DecisionError):
        dc.load_energy_model({field: value})


def random_profile(rng):
    """A random (methods, boundary) pair."""
    n = rng.randint(1, 4)
    methods = [
        MethodProfile(
            name=f"m{i}",
            invocations=float(rng.randint(0, 20)),
            t_local_s=rng.uniform(1e-5, 0.2),
            in_bytes=float(rng.randint(0, 1_000_000)),
            out_bytes=float(rng.randint(0, 1_000_000)),
            energy_local_j=rng.uniform(0.0, 0.05),
            cpu_scale_hint=rng.uniform(0.5, 4.0),
        )
        for i in range(n)
    ]
    return methods, rng.random() < 0.6


def test_gates_match_straight_line_oracle():
    rng = random.Random(5150)
    model = dc.EnergyModel(energy_per_tx_byte_j=2e-7, energy_per_rx_byte_j=1e-7,
                           energy_idle_per_s_j=0.3)
    for _ in range(1000):
        prof = random_profile(rng)
        cond = dc.NetworkConditions(
            rtt_s=rng.uniform(0.0, 0.25),
            bandwidth_bytes_per_s=rng.uniform(1e4, 1e8),
            cpu_speedup=rng.uniform(0.5, 20.0),
        )
        assert dc.class_valid_time(*prof, cond) == straight_line_time_valid(*prof, cond)
        assert dc.class_valid_energy(*prof, cond, model) == straight_line_energy_valid(
            *prof, cond, model
        )


@settings(max_examples=80, deadline=None)
@given(
    t_local_ms=st.floats(min_value=0.1, max_value=500.0),
    rtt_lo=st.floats(min_value=0.0, max_value=0.2),
    rtt_hi=st.floats(min_value=0.0, max_value=0.2),
    speedup=st.floats(min_value=1.1, max_value=30.0),
)
def test_raising_rtt_never_flips_invalid_to_valid(t_local_ms, rtt_lo, rtt_hi, speedup):
    lo, hi = sorted((rtt_lo, rtt_hi))
    prof, _ = one_method_profile(t_local_ms=t_local_ms, speedup=speedup)
    cond_lo = dc.NetworkConditions(rtt_s=lo, bandwidth_bytes_per_s=1e7, cpu_speedup=speedup)
    cond_hi = dc.NetworkConditions(rtt_s=hi, bandwidth_bytes_per_s=1e7, cpu_speedup=speedup)
    if dc.class_valid_time(*prof, cond_hi):
        assert dc.class_valid_time(*prof, cond_lo)


@settings(max_examples=80, deadline=None)
@given(
    bw_lo=st.floats(min_value=1e3, max_value=1e9),
    bw_hi=st.floats(min_value=1e3, max_value=1e9),
    payload=st.floats(min_value=0.0, max_value=1e7),
)
def test_more_bandwidth_never_hurts(bw_lo, bw_hi, payload):
    lo, hi = sorted((bw_lo, bw_hi))
    prof, _ = one_method_profile(t_local_ms=40.0, in_bytes=payload)
    cond_lo = dc.NetworkConditions(rtt_s=0.005, bandwidth_bytes_per_s=lo, cpu_speedup=10.0)
    cond_hi = dc.NetworkConditions(rtt_s=0.005, bandwidth_bytes_per_s=hi, cpu_speedup=10.0)
    if dc.class_valid_time(*prof, cond_lo):
        assert dc.class_valid_time(*prof, cond_hi)


def test_perfect_network_validates_positive_work():
    methods = [MethodProfile(name="m", invocations=3.0, t_local_s=0.01)]
    cond = dc.NetworkConditions(rtt_s=0.0, bandwidth_bytes_per_s=1e12, cpu_speedup=4.0)
    assert dc.class_valid_time(methods, True, cond) is True


def offload_graph(heavy_ms=200.0):
    # Two tightly linked compute classes plus a pinned UI pair.
    methods = {
        "core.Worker": [dict(name="work", invocations=10.0, t_local_s=heavy_ms / 1000.0)],
        "core.Helper": [dict(name="help", invocations=5.0, t_local_s=heavy_ms / 1000.0)],
        "ui.Screen": [dict(name="draw", invocations=50.0, t_local_s=0.001)],
        "ui.Widget": [dict(name="paint", invocations=50.0, t_local_s=0.001)],
    }
    return make_graph(
        [("core.Worker", "core.Helper", 8.0), ("ui.Screen", "ui.Widget", 9.0),
         ("ui.Screen", "core.Worker", 1.0)],
        methods=methods,
        tags={"ui.Screen": {"pinned"}, "ui.Widget": {"pinned"}},
    )


def fast_network():
    return dc.NetworkConditions(rtt_s=0.005, bandwidth_bytes_per_s=1e8, cpu_speedup=10.0)


def test_select_partition_picks_first_valid_n():
    g = offload_graph()
    sets = [pt.girvan_newman(g, n) for n in (2, 3)]
    verdict = dc.select_partition(sets, g, fast_network())
    assert not verdict.local_only
    assert verdict.chosen_n == 2
    assert verdict.source == "partition"
    assert verdict.offload_classes == ["core.Helper", "core.Worker"]


def test_select_partition_never_offloads_pinned():
    g = offload_graph()
    sets = pt.enumerate_partition_sets(g)
    verdict = dc.select_partition(sets, g, fast_network())
    assert "ui.Screen" not in verdict.offload_classes
    assert "ui.Widget" not in verdict.offload_classes


def test_all_pinned_clusters_stay_local():
    g = make_graph(
        [("ui.A", "ui.B", 2.0)],
        methods={"ui.A": [dict(name="m", invocations=1.0, t_local_s=0.5)],
                 "ui.B": [dict(name="m", invocations=1.0, t_local_s=0.5)]},
        tags={"ui.A": {"pinned"}, "ui.B": {"pinned"}},
    )
    verdict = dc.select_partition([pt.girvan_newman(g, 1)], g, fast_network())
    assert verdict.local_only
    assert verdict.source == "local-only"
    assert verdict.offload_classes == []


def test_singleton_fallback_finds_lone_winner():
    # The remote CPU is slower overall (speedup 0.5), so only class A with
    # its fourfold per-method scale hint gains from moving; B sinks every
    # cluster it shares. The fallback must pick A alone.
    methods = {
        "A": [dict(name="big", invocations=1.0, t_local_s=0.5, cpu_scale_hint=4.0)],
        "B": [dict(name="tiny", invocations=400.0, t_local_s=0.00001)],
    }
    g = make_graph([("A", "B", 1.0)], methods=methods)
    whole = pt.girvan_newman(g, 1)
    cond = dc.NetworkConditions(rtt_s=0.010, bandwidth_bytes_per_s=1e8, cpu_speedup=0.5)
    assert dc.class_valid_time(g.vertices["B"].methods, True, cond) is False
    verdict = dc.select_partition([whole], g, cond)
    assert not verdict.local_only
    assert verdict.source == "singleton-fallback"
    assert verdict.chosen_n is None
    assert verdict.offload_classes == ["A"]


def test_select_partition_mode_all_requires_every_cluster():
    g = offload_graph()
    # Slow the network so the singleton fallback cannot rescue anything,
    # then demand that every offloadable cluster passes: the pinned pair is
    # skipped, the core pair passes, so "all" still selects it.
    sets = [pt.girvan_newman(g, 2)]
    verdict = dc.select_partition(sets, g, fast_network(), mode="all")
    assert verdict.chosen_n == 2
    with pytest.raises(dc.DecisionError):
        dc.select_partition(sets, g, fast_network(), mode="sometimes")


def test_verdict_serialization_key():
    g = offload_graph()
    verdict = dc.select_partition([pt.girvan_newman(g, 2)], g, fast_network())
    d = verdict.to_dict()
    assert d["chosen_N"] == 2
    assert d["local_only"] is False


def test_energy_model_loading(tmp_path):
    doc = '{"energy_per_tx_byte_j": 1e-7, "energy_per_rx_byte_j": 5e-8, "energy_idle_per_s_j": 0.2}'
    path = tmp_path / "energy.json"
    path.write_text(doc)
    model = dc.load_energy_model(path)
    assert model.energy_per_tx_byte_j == pytest.approx(1e-7)
    assert model.energy_idle_per_s_j == pytest.approx(0.2)


def test_select_partition_judges_boundary_per_class(monkeypatch):
    g = offload_graph()
    by_methods = {id(node.methods): name for name, node in g.vertices.items()}
    seen = set()
    gate = dc.class_valid_time

    def recording(methods, boundary, cond):
        seen.add((by_methods[id(methods)], boundary))
        return gate(methods, boundary, cond)

    monkeypatch.setattr(dc, "class_valid_time", recording)
    verdict = dc.select_partition([pt.girvan_newman(g, 2)], g, fast_network())
    assert verdict.offload_classes == ["core.Helper", "core.Worker"]
    # Worker talks to ui.Screen outside the cluster, so it is boundary;
    # Helper only talks to Worker.
    assert seen == {("core.Worker", True), ("core.Helper", False)}


def test_select_partition_refuses_a_class_the_graph_lacks():
    g = offload_graph()
    stray = pt.PartitionSet(n_clusters=1, clusters=[["core.Worker", "core.Ghost"]],
                            modularity=0.0, offloadable=[True])
    with pytest.raises(dc.DecisionError, match="unknown class 'core.Ghost'"):
        dc.select_partition([stray], g, fast_network())
