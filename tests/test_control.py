"""Per-node admission strategies and one-hop load exchange."""

import collections
import contextlib
import dataclasses
import math
from unittest import mock

import conftest
import pytest

from offloadsim import simulator as sim
from offloadsim import workload as wl
from offloadsim.topology import NodeSpec, Topology, generate_topology
from offloadsim.workload import ServiceSpec

from test_workload import admit_q

# Heartbeat feeds start from a snapshot in which every node reads 0.0.
NO_LOADS = collections.defaultdict(float)


def beat_feed(delay):
    return sim.LoadFeed(delay, NO_LOADS)


def view_of(loads, now=0.0):
    """Feed triples whose neighbours show ``loads`` (id -> load), each
    published by a completion at ``now`` over a 0 ms link."""
    beats = beat_feed(0.0)
    links = []
    for nid, load in sorted(loads.items()):
        feed = sim.LoadFeed(0.0)
        feed.publish(now, load)
        links.append((nid, feed, beats))
    return links


def silent_view(neighbor_ids):
    """Feed triples of neighbours from which nothing has been delivered."""
    beats = beat_feed(0.0)
    return [(nid, sim.LoadFeed(0.0), beats) for nid in sorted(neighbor_ids)]


def at_most(link, now, load):
    """Whether the neighbour of ``link`` reads at most ``load`` at ``now``:
    it wins against a higher-id probe neighbour that shows ``load``."""
    (probe,) = view_of({99: load}, now=-1.0)
    return sim.lightest_load_neighbor([link, probe], now) == link[0]


def shows(link, now, load):
    """Whether the neighbour of ``link`` reads exactly ``load`` at ``now``."""
    below = math.nextafter(load, -math.inf)
    return at_most(link, now, load) and not at_most(link, now, below)


def counting_lookups(targets):
    """Patch the simulator's ``lightest_load_neighbor`` to tally what each
    lookup returns in the Counter ``targets``."""
    lightest = sim.lightest_load_neighbor

    def counted(view, now):
        target = lightest(view, now)
        targets[target] += 1
        return target

    return mock.patch.object(sim, "lightest_load_neighbor", counted)


def counting_forwards(targets):
    """Patch the simulator's ``heappush`` to tally, in the Counter
    ``targets``, the node each forward sends a request to: a forward pushes
    an arrival that carries its request, an external arrival carries None."""
    push = sim.heappush

    def counted(heap, ev):
        if ev[1] == sim._ARRIVAL and ev[4] is not None:
            targets[ev[2]] += 1
        push(heap, ev)

    return mock.patch.object(sim, "heappush", counted)


def passive_run(topo, arrivals, threshold=1.0, server_executes=False):
    """A passive run on ``topo`` with ``arrivals`` external arrivals 1 ms
    apart, each held in service for 1 s, so on a topology of cpu 1 every
    admitted request keeps its node at load 1.0 for the rest of the run.
    Returns the metrics and a Counter of the forwards by target."""
    cfg = sim.ScenarioConfig(
        topology=topo,
        services=[ServiceSpec(name="s", mean_exec_time_s=0.001)],
        base_rate_per_s=1000.0,
        horizon_s=0.1,
        strategy="passive",
        warmup_s=0.0,
        capacity_threshold=threshold,
        server_executes=server_executes,
    )
    script = [(0.001 * (k + 1), 0) for k in range(arrivals)]
    sent = collections.Counter()
    with conftest.scripted_runs(script, [1.0] * arrivals, []), counting_forwards(sent):
        m = sim.run_scenario(cfg)
    assert m.executed + m.dropped == m.total_arrivals == arrivals
    assert m.forwarded == sum(sent.values())
    return m, sent


def test_none_strategy_threshold():
    assert sim.decide_threshold(0.3, 1.0, sim.DROP) == sim.EXECUTE
    assert sim.decide_threshold(1.2, 1.0, sim.DROP) == sim.DROP


def test_none_strategy_boundary_is_drop():
    assert sim.decide_threshold(1.0, 1.0, sim.DROP) == sim.DROP


@pytest.mark.parametrize("threshold", [1.0, 0.75])
def test_passive_executes_below_the_threshold_and_forwards_at_and_above(line4, threshold):
    # Node 0 runs the first request; at load 1.0, at or above the
    # threshold, it forwards the next three to node 1. Node 1 runs the
    # second and forwards the other two to node 2, which runs the third.
    m, sent = passive_run(line4, 4, threshold)
    assert m.per_node_executed == {0: 1, 1: 1, 2: 1, 3: 0}
    assert sent == {1: 3, 2: 2}


def test_passive_last_hop_drops(line4):
    # The fourth request finds nodes 0, 1 and 2 loaded; node 2 drops it.
    m, sent = passive_run(line4, 4)
    assert m.dropped == 1 and 3 not in sent


def test_passive_last_hop_can_reach_executing_server(line4):
    m, sent = passive_run(line4, 4, server_executes=True)
    assert m.per_node_executed == {0: 1, 1: 1, 2: 1, 3: 1}
    assert m.dropped == 0 and sent == {1: 3, 2: 2, 3: 1}


def test_passive_at_server_drops(line4):
    # An executing server at the threshold takes the DROP overflow it gets
    # at set-up: the fifth request reaches it and is dropped there.
    m, sent = passive_run(line4, 5, server_executes=True)
    assert m.per_node_executed == {0: 1, 1: 1, 2: 1, 3: 1}
    assert m.dropped == 1 and sent == {1: 4, 2: 3, 3: 2}


def test_forward_to_index_zero_is_a_forward(line4):
    # Node 0 is a valid target and 0 is falsy: nothing may read a target
    # by its truth value.
    assert sim.decide_threshold(1.5, 1.0, 0) == 0
    # line4 turned around: arrivals at node 3, and node 0 the server, which
    # executes. The fourth request finds nodes 3, 2 and 1 loaded, and node
    # 1 forwards it to the server, index 0.
    specs = [dataclasses.replace(s, is_access_point=s.id == 3) for s in line4.nodes.values()]
    m, sent = passive_run(Topology(specs, line4.edges(), server_id=0), 4, server_executes=True)
    assert m.per_node_executed == {0: 1, 1: 1, 2: 1, 3: 1}
    assert sent == {2: 3, 1: 2, 0: 1}
    # On overload-line every node but the sink server executes. Nodes 0 and
    # 2 each have node 1 as their only executor neighbour and forward to it
    # without a lookup; node 1 looks up the lighter of 0 and 2, and forwards
    # to node 0 (dense index 0) whenever 0 reads lightest. With no warmup
    # and no relays, every forward is counted, and each is one lookup or one
    # single-candidate forward.
    cfg = dataclasses.replace(
        sim.preset_overload_line("proactive"), horizon_s=0.2, warmup_s=0.0, seed=1
    )
    looked_up, sent = collections.Counter(), collections.Counter()
    with counting_lookups(looked_up), counting_forwards(sent):
        m = sim.run_scenario(cfg)
    assert looked_up[0] > 0 and set(looked_up) == {0, 2}
    # The forwards to 0 and 2 are node 1's lookups; those to 1 take none.
    assert sent[1] > 0 and sent == looked_up + collections.Counter({1: sent[1]})
    assert m.forwarded == sum(sent.values())
    # On a 3-node line node 1's only executor neighbour is node 0 (node 2
    # is the server): every forward to index 0 is a single-candidate one.
    line3 = generate_topology("line", {"n": 3, "cpu": 3.0, "mem": 4.0})
    cfg = dataclasses.replace(cfg, topology=line3)
    looked_up, sent = collections.Counter(), collections.Counter()
    with counting_lookups(looked_up), counting_forwards(sent):
        m = sim.run_scenario(cfg)
    assert not looked_up
    assert sent[0] > 0 and sent[1] > 0 and set(sent) == {0, 1}
    assert m.forwarded == sum(sent.values())


def test_lightest_neighbor_argmin():
    assert sim.lightest_load_neighbor(view_of({5: 0.9, 2: 0.1}), 0.0) == 2


def test_lightest_neighbor_tie_breaks_low_id():
    assert sim.lightest_load_neighbor(view_of({7: 0.5, 3: 0.5}), 0.0) == 3


def test_no_neighbors_signalled():
    assert sim.lightest_load_neighbor(silent_view([]), 0.0) is None


def test_silent_neighbours_read_zero():
    view = silent_view([4, 2])
    assert all(shows(link, 1.0, 0.0) for link in view)
    assert sim.lightest_load_neighbor(view, 1.0) == 2


def test_gossip_delay_accounting():
    feed, beats = sim.LoadFeed(0.005), beat_feed(0.005)
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
        feed, beats = sim.LoadFeed(delay), beat_feed(delay)
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
        feed, beats = sim.LoadFeed(delay), beat_feed(delay)
        feed.publish(0.020, 0.5)
        feed.publish(0.020, 0.6)
        beats.publish(0.020, {4: 0.9})
        assert shows((4, feed, beats), 0.030, seen)


def test_feed_delivers_in_order_and_keeps_only_what_is_in_flight():
    feed = sim.LoadFeed(0.003)
    for k in range(100):
        feed.publish(k * 0.001, float(k))
    # Publishing delivers what has landed, so only the last three (at
    # 0.097, 0.098 and 0.099) are still travelling.
    assert [entry[1][1] for entry in feed.in_flight] == [97.0, 98.0, 99.0]
    assert feed.latest == (96 * 0.001, 96.0)
    assert feed.deliver(0.099 + 0.003) == (0.099, 99.0)


def test_one_delivery_pass_serves_every_reader():
    feed, beats = sim.LoadFeed(0.002), beat_feed(0.002)
    feed.publish(0.0, 0.7)
    assert shows((1, feed, beats), 0.005, 0.7)
    assert not feed.in_flight
    assert shows((1, feed, beats), 0.005, 0.7)


def test_a_feed_derived_from_a_slower_record_delivers_what_a_feed_built_first_does():
    # A record over 6 ticks takes a publication every other tick; a feed
    # over 0 to 6 ticks is derived from it at each tick, after that tick's
    # publication, and then read at every half tick beside a feed over the
    # same delay that took every publication from the start.
    tick = 2.0**-10
    for ticks in range(7):
        for split in range(16):
            record, whole = sim.LoadFeed(6 * tick), sim.LoadFeed(ticks * tick)
            derived = None
            for k in range(24):
                t = k * tick
                if k % 2 == 0:
                    for feed in (record, whole, derived):
                        if feed is not None:
                            feed.publish(t, float(k))
                if k == split:
                    derived = record.over(ticks * tick)
                if derived is not None:
                    for now in (t, t + tick / 2):
                        assert derived.deliver(now) == whole.deliver(now)
            assert derived.delay == whole.delay


class FixedQ:
    """Estimator stand-in that returns the same q for every arrival. It has
    no ``execution_probability``: the loop takes q from ``record_arrival``."""

    def __init__(self, q):
        self.q = q

    def record_arrival(self, _t):
        return self.q

    def record_completion(self, *_demands):
        pass


def fork_config(neighbours=True, **overrides):
    """Proactive scenario with arrivals at node 0 (cpu 1), linked to the
    executors 1 and 2 (cpu 2, left out without ``neighbours``) and through
    them, or directly, to the sink server 3; 1 ms links, no warmup."""
    nodes = [NodeSpec(0, 1.0, 1.0, is_access_point=True), NodeSpec(3, 1.0, 1.0)]
    edges = [(0, 3, 1.0)]
    if neighbours:
        nodes += [NodeSpec(1, 2.0, 1.0), NodeSpec(2, 2.0, 1.0)]
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
    base = dict(
        topology=Topology(nodes, edges, server_id=3),
        services=[ServiceSpec(name="s", mean_exec_time_s=0.002)],
        base_rate_per_s=2000.0,
        horizon_s=0.5,
        strategy="proactive",
        warmup_s=0.0,
        ttl=4,
        seed=5,
    )
    base.update(overrides)
    return sim.ScenarioConfig(**base)


def run_with_q(cfg, q0, arrivals=None, durations=(), draws=()):
    """Run ``cfg`` with node 0 admitting at ``q0`` and nodes 1 and 2 at 1,
    told apart by the cpu capacity each estimator is built with; with
    ``arrivals`` (times in s), scripted as ``conftest.scripted_runs``."""
    q_by_cpu = {1.0: q0, 2.0: 1.0}
    stub = mock.patch.object(
        sim, "new_estimator", lambda _k, cpu_capacity, _mem: FixedQ(q_by_cpu[cpu_capacity])
    )
    script = contextlib.nullcontext()
    if arrivals is not None:
        script = conftest.scripted_runs([(t, 0) for t in arrivals], durations, draws)
    with stub, script:
        return sim.run_scenario(cfg)


def test_proactive_cold_state_executes():
    # Node 0 is far above its threshold, but a buffer larger than the run's
    # arrivals keeps every estimator cold, so q is 1 and nothing forwards.
    cfg = fork_config(buffer_size=4096)
    m = sim.run_scenario(cfg)
    assert 0 < m.gross_arrivals < cfg.buffer_size
    assert m.forwarded == m.dropped == 0
    assert m.per_node_executed[0] == m.executed == m.total_arrivals
    assert sim.run_scenario(dataclasses.replace(cfg, buffer_size=16)).forwarded > 0


def test_proactive_rejection_forwards_to_lightest():
    # Node 0 rejects every request; each goes to the neighbour that
    # lightest_load_neighbor names, which admits it.
    targets = collections.Counter()
    with counting_lookups(targets):
        m = run_with_q(fork_config(), 0.0)
    assert targets[1] > 0 and targets[2] > 0 and None not in targets
    assert m.forwarded == m.executed == m.total_arrivals == sum(targets.values())
    assert m.per_node_executed == {0: 0, 1: targets[1], 2: targets[2], 3: 0}


def test_proactive_admission_below_q():
    # Draws at node 0 against q = 0.5: 0.3 and 0.4999 admit, 0.7 and 0.5
    # forward; the forwarded requests draw 0.0 at a neighbour and run there.
    m = run_with_q(
        fork_config(),
        0.5,
        arrivals=[0.001, 0.005, 0.010, 0.015],
        draws=[0.3, 0.7, 0.0, 0.4999, 0.5, 0.0],
    )
    assert m.per_node_executed[0] == 2
    assert m.forwarded == 2 and m.executed == 4


def test_proactive_exhausted_ttl_executes_when_feasible():
    # With TTL 0 nothing forwards, though node 0 rejects every draw: the
    # first request runs for 50 ms and the second finds node 0 at its
    # threshold and drops; the third arrives after the first is done.
    m = run_with_q(
        fork_config(ttl=0), 0.0, arrivals=[0.001, 0.002, 0.060], durations=[0.05]
    )
    assert m.forwarded == 0
    assert m.per_node_executed[0] == 2 and m.dropped == 1


def test_proactive_disabled_forwarding_drops_rejections():
    m = run_with_q(fork_config(proactive_forwarding=False), 0.0)
    assert m.total_arrivals > 0
    assert m.dropped == m.total_arrivals and m.forwarded == m.executed == 0


def test_proactive_isolated_node_falls_back_to_threshold():
    # Node 0 rejects every draw and has no executor neighbour, so it
    # executes below its threshold and drops at it.
    m = run_with_q(
        fork_config(neighbours=False), 0.0, arrivals=[0.001, 0.002, 0.060], durations=[0.05]
    )
    assert m.forwarded == 0
    assert m.per_node_executed[0] == 2 and m.dropped == 1


def test_execute_fraction_converges_to_q():
    q = 0.3
    m = run_with_q(fork_config(base_rate_per_s=40_000.0), q)
    n = m.total_arrivals
    sigma = (n * q * (1 - q)) ** 0.5
    assert n > 10_000
    assert abs(m.per_node_executed[0] - n * q) < 3.0 * sigma
    assert m.forwarded == n - m.per_node_executed[0]


def test_conservative_mode_lowers_admission():
    # A burst inflates the effective rate, so q drops and the forwarding
    # probability (1 - q) rises relative to the plain-rate evaluation.
    state = wl.new_estimator(k=8)
    t = 0.0
    for _ in range(16):
        state.record_arrival(t)
        t += 0.25
    for _ in range(8):
        state.record_completion(0.125, 1.0, 0.0)
    for _ in range(5):
        state.record_arrival(t)
        t += 0.01
    assert state.lambda_eff > state.lambda_hat
    q_conservative = state.execution_probability(1.0, 1.0)
    q_plain = admit_q(state.lambda_hat, state.mu, state.cpu_avg, state.mem_avg, 1.0, 1.0)
    assert q_conservative <= q_plain


def test_gossip_from_unknown_sender_ignored():
    # Node 9 publishes and shows up in heartbeat snapshots, but it is not a
    # neighbour, so the view never offers it.
    beats = beat_feed(0.0)
    mine, stranger = sim.LoadFeed(0.0), sim.LoadFeed(0.0)
    mine.publish(0.001, 0.8)
    stranger.publish(0.001, 0.0)
    beats.publish(0.001, {2: 0.8, 9: 0.0})
    assert sim.lightest_load_neighbor([(2, mine, beats)], math.inf) == 2
    assert shows((2, mine, beats), math.inf, 0.8)
