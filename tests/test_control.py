"""Per-node admission strategies and one-hop load exchange."""

import collections
import dataclasses
import math
import random
from unittest import mock

import pytest

from offloadsim import control as ct
from offloadsim import simulator as sim
from offloadsim import workload as wl

from test_workload import admit_q

# Heartbeat feeds start from a snapshot in which every node reads 0.0.
NO_LOADS = collections.defaultdict(float)


def beat_feed(delay):
    return ct.LoadFeed(delay, NO_LOADS)


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


def view_of(loads, now=0.0):
    """Feed triples whose neighbours show ``loads`` (id -> load), each
    published by a completion at ``now`` over a 0 ms link."""
    beats = beat_feed(0.0)
    links = []
    for nid, load in sorted(loads.items()):
        feed = ct.LoadFeed(0.0)
        feed.publish(now, load)
        links.append((nid, feed, beats))
    return links


def silent_view(neighbor_ids):
    """Feed triples of neighbours from which nothing has been delivered."""
    beats = beat_feed(0.0)
    return [(nid, ct.LoadFeed(0.0), beats) for nid in sorted(neighbor_ids)]


def at_most(link, now, load):
    """Whether the neighbour of ``link`` reads at most ``load`` at ``now``:
    it wins against a higher-id probe neighbour that shows ``load``."""
    (probe,) = view_of({99: load}, now=-1.0)
    return ct.lightest_load_neighbor([link, probe], now) == link[0]


def shows(link, now, load):
    """Whether the neighbour of ``link`` reads exactly ``load`` at ``now``."""
    below = math.nextafter(load, -math.inf)
    return at_most(link, now, load) and not at_most(link, now, below)


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


def test_forward_to_index_zero_is_a_forward():
    # Node 0 is a valid target and 0 is falsy: nothing may read a target
    # by its truth value.
    d = ct.passive_overflow(0, 3)
    assert d.action is ct.Action.FORWARD and d.target == 0
    assert ct.decide_threshold(1.5, 1.0, d) is d
    # On overload-line every node but the sink server executes, so node 1
    # forwards to node 0 (dense index 0) whenever 0 reads lightest; with no
    # warmup and no relays, every forward decision counts as one forward.
    cfg = dataclasses.replace(
        sim.preset_overload_line("proactive"), horizon_s=0.2, warmup_s=0.0, seed=1
    )
    decisions = collections.Counter()

    def counted(*args, **kwargs):
        dec = ct.decide_proactive(*args, **kwargs)
        decisions[dec] += 1
        return dec

    with mock.patch.object(sim, "decide_proactive", counted):
        m = sim.run_scenario(cfg)
    assert decisions[ct.AdmissionDecision.forward(0)] > 0
    assert m.forwarded == sum(
        k for dec, k in decisions.items() if dec.action is ct.Action.FORWARD
    )
    assert m.executed == decisions[ct.EXECUTE]


def test_lightest_neighbor_argmin():
    assert ct.lightest_load_neighbor(view_of({5: 0.9, 2: 0.1}), 0.0) == 2


def test_lightest_neighbor_tie_breaks_low_id():
    assert ct.lightest_load_neighbor(view_of({7: 0.5, 3: 0.5}), 0.0) == 3


def test_no_neighbors_signalled():
    assert ct.lightest_load_neighbor(silent_view([]), 0.0) is None


def test_silent_neighbours_read_zero():
    view = silent_view([4, 2])
    assert all(shows(link, 1.0, 0.0) for link in view)
    assert ct.lightest_load_neighbor(view, 1.0) == 2


def test_gossip_delay_accounting():
    feed, beats = ct.LoadFeed(0.005), beat_feed(0.005)
    link = (4, feed, beats)
    feed.publish(0.010, 0.42)
    assert shows(link, 0.0149, 0.0)
    assert shows(link, 0.010 + 0.005, 0.42)
    assert feed.latest == (0.010, 0.42)
    assert not feed.in_flight


def test_stale_gossip_ignored():
    # The heartbeat lands after the completion was published, but it was
    # published earlier, so once the completion lands its load stands.
    for delay in (0.0, 0.001):
        feed, beats = ct.LoadFeed(delay), beat_feed(delay)
        link = (4, feed, beats)
        beats.publish(0.010, {4: 0.9})
        feed.publish(0.020, 0.5)
        assert shows(link, 0.015, 0.9)
        assert shows(link, 0.030, 0.5)


def test_equal_timestamp_gossip_accepted():
    # At one instant the last completion wins. A heartbeat at that instant
    # runs after the completions: over a delayed link its delivery applies
    # first, so the completion stands; over a link that delivers at once it
    # applies last and wins.
    for delay, seen in [(0.001, 0.6), (0.0, 0.9), (1e-20, 0.9)]:
        feed, beats = ct.LoadFeed(delay), beat_feed(delay)
        feed.publish(0.020, 0.5)
        feed.publish(0.020, 0.6)
        beats.publish(0.020, {4: 0.9})
        assert shows((4, feed, beats), 0.030, seen)


def test_feed_delivers_in_order_and_keeps_only_what_is_in_flight():
    feed = ct.LoadFeed(0.003)
    for k in range(100):
        feed.publish(k * 0.001, float(k))
    # Publishing delivers what has landed, so only the last three (at
    # 0.097, 0.098 and 0.099) are still travelling.
    assert [entry[1][1] for entry in feed.in_flight] == [97.0, 98.0, 99.0]
    assert feed.latest == (96 * 0.001, 96.0)
    assert feed.deliver(0.099 + 0.003) == (0.099, 99.0)


def test_one_delivery_pass_serves_every_reader():
    feed, beats = ct.LoadFeed(0.002), beat_feed(0.002)
    feed.publish(0.0, 0.7)
    assert shows((1, feed, beats), 0.005, 0.7)
    assert not feed.in_flight
    assert shows((1, feed, beats), 0.005, 0.7)


def test_proactive_cold_state_executes():
    state = wl.new_estimator(k=64)
    view = silent_view([1])
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.999,
                            ttl_remaining=4, node_load=0.0, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_proactive_rejection_forwards_to_lightest():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)  # q = 0.5 at capacity 1
    q = wl.execution_probability(state, 1.0, 1.0)
    assert q == pytest.approx(0.5)
    view = view_of({2: 0.1, 3: 0.4})
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.7,
                            ttl_remaining=4, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.FORWARD
    assert d.target == 2


def test_proactive_admission_below_q():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)
    view = view_of({2: 0.1})
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.3,
                            ttl_remaining=4, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_proactive_exhausted_ttl_executes_when_feasible():
    state = warm_state()
    view = silent_view([2])
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=0, node_load=0.2, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=0, node_load=1.2, capacity_threshold=1.0)
    assert d.action is ct.Action.DROP


def test_proactive_disabled_forwarding_drops_rejections():
    state = warm_state()
    view = silent_view([2])
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=4, node_load=0.0, capacity_threshold=1.0,
                            forwarding_enabled=False)
    assert d.action is ct.Action.DROP


def test_proactive_isolated_node_falls_back_to_threshold():
    state = warm_state()
    view = silent_view([])
    d = ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng_draw=0.99,
                            ttl_remaining=4, node_load=0.3, capacity_threshold=1.0)
    assert d.action is ct.Action.EXECUTE


def test_execute_fraction_converges_to_q():
    state = warm_state(lam=4.0, mu=4.0, cpu=1.0)
    q = wl.execution_probability(state, 1.0, 1.0)
    view = silent_view([2])
    rng = random.Random(17)
    n = 20_000
    executed = sum(
        1
        for _ in range(n)
        if ct.decide_proactive(state, view, 0.0, 1.0, 1.0, rng.random(), 4, 0.0, 1.0).action
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
    # Node 9 publishes and shows up in heartbeat snapshots, but it is not a
    # neighbour, so the view never offers it.
    beats = beat_feed(0.0)
    mine, stranger = ct.LoadFeed(0.0), ct.LoadFeed(0.0)
    mine.publish(0.001, 0.8)
    stranger.publish(0.001, 0.0)
    beats.publish(0.001, {2: 0.8, 9: 0.0})
    assert ct.lightest_load_neighbor([(2, mine, beats)], math.inf) == 2
    assert shows((2, mine, beats), math.inf, 0.8)
