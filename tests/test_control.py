"""Per-node admission strategies and one-hop load exchange."""

import math
import random

import pytest

from offloadsim import control as ct
from offloadsim import workload as wl

from test_workload import admit_q


def warm_state(lam=4.0, mu=4.0, cpu=1.0, mem=0.0, k=2):
    """A warmed estimator with chosen steady statistics."""
    state = wl.new_estimator(k=k)
    dt = 1.0 / lam
    for i in range(k + 1):
        wl.record_arrival(state, dt * i)
    # One wrap with constant values plants mu at 0.5 * (0 + 1/t) and the
    # averages at half the recorded demands.
    wl.record_completion(state, 0.5 / mu, 2.0 * cpu, 2.0 * mem)
    for _ in range(k - 1):
        wl.record_completion(state, 0.5 / mu, 2.0 * cpu, 2.0 * mem)
    return state


def passive(topo, node_id, load, server_executes=False):
    """The passive strategy at one node: the threshold rule with the node's
    overflow decision."""
    overflow = ct.passive_overflow(
        topo.next_hop_toward_server(node_id), topo.server_id, server_executes
    )
    return ct.decide_threshold(load, 1.0, overflow)


def test_none_strategy_threshold():
    assert ct.decide_threshold(0.3, 1.0, ct.DROP).action is ct.Action.EXECUTE
    assert ct.decide_threshold(1.2, 1.0, ct.DROP).action is ct.Action.DROP


def test_none_strategy_boundary_is_drop():
    assert ct.decide_threshold(1.0, 1.0, ct.DROP).action is ct.Action.DROP


def test_passive_under_load_executes(line4):
    d = passive(line4, 1, 0.2)
    assert d.action is ct.Action.EXECUTE


def test_passive_overloaded_forwards_along_path(line4):
    d = passive(line4, 1, 1.5)
    assert d.action is ct.Action.FORWARD
    assert d.target == 2


def test_passive_boundary_takes_the_overflow(line4):
    assert passive(line4, 1, 1.0) is ct.AdmissionDecision.forward(2)


def test_passive_last_hop_drops(line4):
    # Node 2 is the final in-network hop; the sink server does not execute.
    d = passive(line4, 2, 1.5)
    assert d.action is ct.Action.DROP


def test_passive_last_hop_can_reach_executing_server(line4):
    d = passive(line4, 2, 1.5, server_executes=True)
    assert d.action is ct.Action.FORWARD
    assert d.target == 3


def test_passive_at_server_drops(line4):
    d = passive(line4, 3, 1.5, server_executes=True)
    assert d.action is ct.Action.DROP


def test_lightest_neighbor_argmin():
    table = ct.NeighborLoadTable(loads={5: 0.9, 2: 0.1}, as_of={5: 0.0, 2: 0.0})
    assert ct.lightest_load_neighbor(table) == 2


def test_lightest_neighbor_tie_breaks_low_id():
    table = ct.NeighborLoadTable(loads={7: 0.5, 3: 0.5}, as_of={7: 0.0, 3: 0.0})
    assert ct.lightest_load_neighbor(table) == 3


def test_no_neighbors_signalled():
    assert ct.lightest_load_neighbor(ct.NeighborLoadTable.seeded([])) is None


def test_gossip_delay_accounting():
    table = ct.NeighborLoadTable.seeded([4])
    assert table.apply(4, 0.42, 0.010)
    assert table.loads[4] == 0.42
    assert table.as_of[4] == 0.010


def test_stale_gossip_ignored():
    table = ct.NeighborLoadTable.seeded([4])
    table.apply(4, 0.5, 0.020)
    assert not table.apply(4, 0.9, 0.010)
    assert table.loads[4] == 0.5
    assert table.as_of[4] == 0.020


def test_equal_timestamp_gossip_accepted():
    table = ct.NeighborLoadTable.seeded([4])
    table.apply(4, 0.5, 0.020)
    assert table.apply(4, 0.6, 0.020)
    assert table.loads[4] == 0.6


def test_proactive_cold_state_executes():
    state = wl.new_estimator(k=64)
    table = ct.NeighborLoadTable.seeded([1])
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.999,
                            ttl_remaining=4, node_load=0.0, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_proactive_rejection_forwards_to_lightest():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)  # q = 0.5 at capacity 1
    q = wl.execution_probability(state, 1.0, 1.0)
    assert q == pytest.approx(0.5)
    table = ct.NeighborLoadTable(loads={2: 0.1, 3: 0.4}, as_of={2: 0.0, 3: 0.0})
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.7,
                            ttl_remaining=4, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.FORWARD
    assert d.target == 2


def test_proactive_admission_below_q():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)
    table = ct.NeighborLoadTable(loads={2: 0.1}, as_of={2: 0.0})
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.3,
                            ttl_remaining=4, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_proactive_exhausted_ttl_executes_when_feasible():
    state = warm_state()
    table = ct.NeighborLoadTable.seeded([2])
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=0, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=0, node_load=1.2, capacity_threshold=1.0)
    assert d.action is ct.Action.DROP


def test_proactive_disabled_forwarding_drops_rejections():
    state = warm_state()
    table = ct.NeighborLoadTable.seeded([2])
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=4, node_load=0.0, capacity_threshold=1.0,
                            forwarding_enabled=False)
    assert d.action is ct.Action.DROP


def test_proactive_isolated_node_falls_back_to_threshold():
    state = warm_state()
    table = ct.NeighborLoadTable.seeded([])
    d = ct.decide_proactive(state, table, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=4, node_load=0.3, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_execute_fraction_converges_to_q():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)
    q = wl.execution_probability(state, 1.0, 1.0)
    table = ct.NeighborLoadTable.seeded([2])
    rng = random.Random(17)
    n = 20_000
    executed = sum(
        1
        for _ in range(n)
        if ct.decide_proactive(state, table, 1.0, 1.0, rng.random(), 4, 0.0, 1.0).action
        is ct.Action.EXECUTE
    )
    sigma = (n * q * (1 - q)) ** 0.5
    assert abs(executed - n * q) < 3.0 * sigma


def test_conservative_mode_lowers_admission():
    # A burst inflates the effective rate, so q drops and the forwarding
    # probability (1 - q) rises relative to the plain-rate evaluation.
    state = wl.new_estimator(k=8)
    t = 0.0
    for _ in range(16):
        wl.record_arrival(state, t)
        t += 0.25
    for _ in range(8):
        wl.record_completion(state, 0.125, 1.0, 0.0)
    for _ in range(5):
        wl.record_arrival(state, t)
        t += 0.01
    assert state.delta_lambda > 0.0
    q_conservative = wl.execution_probability(state, 1.0, 1.0)
    q_plain = admit_q(state.lambda_hat, state.mu, state.cpu_avg, state.mem_avg, 1.0, 1.0)
    assert q_conservative <= q_plain


def test_gossip_from_unknown_sender_ignored():
    table = ct.NeighborLoadTable.seeded([2])
    assert not table.apply(9, 0.4, 0.001)
    assert not table.apply(9, 0.4, math.inf)
    assert 9 not in table.loads
    assert 9 not in table.as_of
