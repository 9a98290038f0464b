"""Generated scenarios: every run terminates, conserves requests, gives
finite metrics, and repeats bit for bit under one seed.

Topologies are small lines, grids, trees and scale-free graphs with random
relay flags and per-link delays of 0 ms or more; scenarios vary the
strategy, ``server_executes``, ``proactive_forwarding``, the TTL and the
gossip period.
"""

import contextlib
import dataclasses
import math
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim import simulator as sim
from offloadsim import topology as tp
from offloadsim.workload import ServiceSpec

from conftest import route_to_server

DELAYS_MS = [0.0, 0.0, 0.5, 1.0, 3.0]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a run that outlives ``seconds`` instead of hanging the suite."""

    def expire(_signum, _frame):
        raise TimeoutError(f"run did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["line", "grid", "tree", "scale_free"]))
    if kind == "line":
        params = {"n": draw(st.integers(2, 6))}
    elif kind == "grid":
        params = {"width": draw(st.integers(1, 4)), "height": draw(st.integers(2, 4))}
    elif kind == "tree":
        params = {"branching": draw(st.integers(1, 3)), "depth": draw(st.integers(1, 3))}
    else:
        params = {"n": draw(st.integers(3, 12)), "m": draw(st.integers(1, 2))}
    base = tp.generate_topology(kind, params, seed=draw(st.integers(0, 50)))
    nodes = [
        dataclasses.replace(spec, is_relay=draw(st.booleans()) and nid != base.server_id)
        for nid, spec in base.nodes.items()
    ]
    edges = [(u, v, draw(st.sampled_from(DELAYS_MS))) for u, v, _ in base.edges()]
    return tp.Topology(nodes, edges, base.server_id)


@st.composite
def scenarios(draw):
    return sim.ScenarioConfig(
        topology=draw(topologies()),
        services=[
            ServiceSpec(name="s", mean_exec_time_s=draw(st.sampled_from([0.0005, 0.002, 0.01])))
        ],
        base_rate_per_s=draw(st.sampled_from([200.0, 1000.0, 4000.0])),
        horizon_s=draw(st.sampled_from([0.02, 0.05])),
        strategy=draw(st.sampled_from(sim.STRATEGIES)),
        buffer_size=draw(st.integers(2, 8)),
        ttl=draw(st.one_of(st.none(), st.integers(0, 4))),
        gossip_period_ms=draw(st.sampled_from([0.5, 1.0, 5.0, 100.0])),
        server_executes=draw(st.booleans()),
        proactive_forwarding=draw(st.booleans()),
        sample_interval_ms=draw(st.sampled_from([0.0, 5.0])),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_generated_scenarios_terminate_conserve_and_repeat(cfg):
    for nid in cfg.topology.nodes:
        route_to_server(cfg.topology, nid)
    with time_limit(30):
        m = sim.run_scenario(cfg)
        again = sim.run_scenario(cfg)
    assert m.executed + m.dropped == m.total_arrivals
    assert m.gross_executed + m.gross_dropped == m.gross_arrivals
    assert m.total_arrivals <= m.gross_arrivals
    for value in (m.tau, m.phi_ms, m.psi):
        assert math.isfinite(value) and value >= 0.0
    assert m.psi <= 1.0
    assert m == again
