"""Estimator statistics and arrival generation.

Every derived quantity is checked against a deliberately naive oracle: a
full window re-scan for the mean rate, a chunked list replay for the
smoothed completion stats, a straight transcription of the closed-form
admission probability, and a plain transcription of the estimator core
(``conftest.ReferenceCore``) that the optimized core must replay bit for
bit. The arrival stream is checked through ``_iter_arrival_tuples``, the
one the simulator runs, whose tuples are (time_s, service_index, origin).
"""

import dataclasses
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim import simulator as sim
from offloadsim import workload as wl

from conftest import ReferenceCore, left_sum, reference_arrival_tuples

INF = math.inf
NAN = math.nan


def admit_q(lambda_eff, mu, cpu_avg, mem_avg, cpu_capacity, mem_capacity):
    """q from a warm estimator whose statistics are set directly."""
    state = wl.new_estimator(k=2)
    state.arrival_count = 2
    state.completion_wraps = 1
    state.lambda_eff = lambda_eff
    state.mu = mu
    state.cpu_avg = cpu_avg
    state.mem_avg = mem_avg
    return state.execution_probability(cpu_capacity, mem_capacity)


def rescan_rate(timestamps, k):
    """Recompute the windowed mean rate from scratch over the last k stamps."""
    window = timestamps[-k:]
    if len(window) < 2:
        return None
    span = window[-1] - window[0]
    return (len(window) - 1) / span if span > 0.0 else math.inf


class SmoothingReplay:
    """Chunked replay of the completion smoothing: every k completions fold
    the window means into mu / cpu_avg / mem_avg with weight 0.5."""

    def __init__(self, k):
        self.k = k
        self.chunk = []
        self.mu = 0.0
        self.cpu_avg = 0.0
        self.mem_avg = 0.0

    def complete(self, exec_time, cpu, mem):
        self.chunk.append((exec_time, cpu, mem))
        if len(self.chunk) == self.k:
            mean_exec = sum(c[0] for c in self.chunk) / self.k
            self.mu = 0.5 * (self.mu + 1.0 / mean_exec)
            self.cpu_avg = 0.5 * (self.cpu_avg + sum(c[1] for c in self.chunk) / self.k)
            self.mem_avg = 0.5 * (self.mem_avg + sum(c[2] for c in self.chunk) / self.k)
            self.chunk.clear()


def q_closed_form(lambda_eff, mu, cpu_avg, mem_avg, cpu_cap, mem_cap):
    ratio = min(cpu_cap / (cpu_cap + cpu_avg), mem_cap / (mem_cap + mem_avg))
    return max(0.0, min(ratio * mu / lambda_eff, 1.0))


def test_unit_spacing_gives_unit_rate():
    st8 = wl.new_estimator(k=4)
    for t in (0.0, 1.0, 2.0, 3.0):
        st8.record_arrival(t)
    assert st8.lambda_hat == pytest.approx(1.0)


def test_half_second_spacing_gives_two_per_second():
    state = wl.new_estimator(k=8)
    for i in range(8):
        state.record_arrival(0.5 * i)
    assert state.lambda_hat == pytest.approx(2.0)


def test_tiny_buffer_rejected():
    with pytest.raises(ValueError):
        wl.new_estimator(k=1)


@pytest.mark.parametrize("k", [2.5, 64.5, 128.0, "12", None])
def test_a_buffer_size_that_is_not_an_int_is_rejected(k):
    # Over a k that is not an int the ring index would run past the buffer.
    with pytest.raises(ValueError, match="^buffer size k must be an int"):
        wl.EstimatorState(k)


def test_incremental_rate_matches_rescan_oracle():
    rng = random.Random(42)
    state = wl.new_estimator(k=16)
    stamps = []
    t = 0.0
    for _ in range(2000):
        t += rng.expovariate(3.0)
        stamps.append(t)
        state.record_arrival(t)
        if len(stamps) >= 2:
            expected = rescan_rate(stamps, 16)
            assert state.lambda_hat == pytest.approx(expected, rel=1e-9)


def test_rate_with_identical_timestamps_is_infinite():
    state = wl.new_estimator(k=4)
    for _ in range(4):
        state.record_arrival(5.0)
    assert state.lambda_hat == math.inf


def test_burst_raises_delta_lambda():
    state = wl.new_estimator(k=8)
    t = 0.0
    # Two full windows of steady traffic settle lambda_prev near 1.0.
    for _ in range(16):
        state.record_arrival(t)
        t += 1.0
    assert state.lambda_eff - state.lambda_hat == pytest.approx(0.0, abs=1e-9)
    before = state.lambda_hat
    for _ in range(6):
        state.record_arrival(t)
        t += 0.05
    assert state.lambda_hat > before
    # No wrap since the last fold, so the increment is over lambda_prev.
    assert state.lambda_eff > state.lambda_hat
    assert state.lambda_eff == pytest.approx(2.0 * state.lambda_hat - state.lambda_prev)


def test_cold_completion_window_example():
    # First wrap folds against the cold prior of zero.
    state = wl.new_estimator(k=2)
    state.record_completion(0.5, 0.0, 0.0)
    state.record_completion(0.5, 0.0, 0.0)
    assert state.mu == pytest.approx(1.0)


def test_completion_fixed_point():
    state = wl.new_estimator(k=2)
    state.record_completion(0.5, 0.0, 0.0)
    state.record_completion(0.5, 0.0, 0.0)
    assert state.mu == pytest.approx(1.0)
    state.record_completion(1.0, 0.0, 0.0)
    state.record_completion(1.0, 0.0, 0.0)
    # mu = 0.5 * (1 + 1/1) stays at the fixed point.
    assert state.mu == pytest.approx(1.0)


def test_completion_smoothing_matches_replay_oracle():
    rng = random.Random(7)
    k = 7
    state = wl.new_estimator(k=k)
    replay = SmoothingReplay(k)
    for _ in range(10_000):
        e = rng.uniform(0.01, 2.0)
        c = rng.uniform(0.0, 4.0)
        m = rng.uniform(0.0, 1.0)
        state.record_completion(e, c, m)
        replay.complete(e, c, m)
        assert state.mu == pytest.approx(replay.mu, rel=1e-12, abs=1e-15)
        assert state.cpu_avg == pytest.approx(replay.cpu_avg, rel=1e-12, abs=1e-15)
        assert state.mem_avg == pytest.approx(replay.mem_avg, rel=1e-12, abs=1e-15)


def estimator_in(phase, k):
    """A k-window estimator cold, filling (k - 1 arrivals and completions)
    or full (2k + 1 of each: both windows wrapped, mid-window again)."""
    state = wl.new_estimator(k, 2.0, 3.0)
    n = {"cold": 0, "filling": k - 1, "full": 2 * k + 1}[phase]
    for j in range(n):
        state.record_arrival(0.25 * j)
        state.record_completion(0.1 + 0.01 * j, 0.5, 0.25)
    return state


# Each refused call, by the state the estimator is in when it is made. A
# cold estimator has no last stamp, so no stamp is decreasing there.
REFUSED_ARRIVALS = {"nan": NAN, "inf": INF, "-inf": -INF, "decreasing": -1.0}
REFUSED_COMPLETIONS = {
    "zero-exec": (0.0, 1.0, 1.0),
    "negative-exec": (-0.5, 1.0, 1.0),
    "nan-exec": (NAN, 1.0, 1.0),
    "inf-exec": (INF, 1.0, 1.0),
    "negative-cpu": (0.5, -1.0, 1.0),
    "nan-cpu": (0.5, NAN, 1.0),
    "inf-cpu": (0.5, INF, 1.0),
    "negative-mem": (0.5, 1.0, -1.0),
    "nan-mem": (0.5, 1.0, NAN),
    "inf-mem": (0.5, 1.0, INF),
}
REFUSALS = [
    (phase, call, case)
    for phase in ("cold", "filling", "full")
    for call, cases in (("arrival", REFUSED_ARRIVALS), ("completion", REFUSED_COMPLETIONS))
    for case in cases
    if (phase, case) != ("cold", "decreasing")
]


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("phase, call, case", REFUSALS)
def test_a_refused_call_changes_nothing(k, phase, call, case):
    state = estimator_in(phase, k)
    before = {name: repr(getattr(state, name)) for name in wl.EstimatorState.__slots__}
    if call == "arrival":
        match = "non-decreasing" if case == "decreasing" else "must be finite"
        with pytest.raises(ValueError, match=match):
            state.record_arrival(REFUSED_ARRIVALS[case])
    else:
        match = "execution time must be positive and finite" if case.endswith("exec") else (
            "resource costs must be finite and non-negative"
        )
        with pytest.raises(ValueError, match=match):
            state.record_completion(*REFUSED_COMPLETIONS[case])
    after = {name: repr(getattr(state, name)) for name in wl.EstimatorState.__slots__}
    assert after == before


def test_finite_completion_whose_sum_overflows_is_taken():
    state = estimator_in("cold", 8)
    state.record_completion(1e308, 1e308, 1e308)
    assert (state.completion_index, state.sum_exec, state.sum_cpu) == (1, 1e308, 1e308)


def test_execution_probability_substitution():
    # Drive a real state to lambda_eff=4, mu=4, cpu_avg=2, mem_avg=0. The
    # third arrival keeps the spacing so the smoothed baseline has settled
    # and the burst increment is zero.
    state = wl.new_estimator(k=2)
    state.record_arrival(0.0)
    state.record_arrival(0.25)
    state.record_arrival(0.5)
    state.record_completion(0.125, 4.0, 0.0)
    state.record_completion(0.125, 4.0, 0.0)
    assert state.lambda_eff == pytest.approx(4.0)
    assert state.mu == pytest.approx(4.0)
    assert state.cpu_avg == pytest.approx(2.0)
    q = state.execution_probability(cpu_capacity=2.0, mem_capacity=1.0)
    assert q == pytest.approx(0.5)


def test_execution_probability_cold_state_accepts_everything():
    state = wl.new_estimator(k=8)
    assert state.execution_probability(1.0, 1.0) == 1.0
    state.record_arrival(0.0)
    assert state.execution_probability(1.0, 1.0) == 1.0


def test_underutilized_probability_caps_at_one():
    # mu/lambda = 10 with resource factor 0.5 would give 5; capped to 1.
    q = admit_q(
        lambda_eff=1.0, mu=10.0, cpu_avg=1.0, mem_avg=0.0,
        cpu_capacity=1.0, mem_capacity=1.0,
    )
    assert q == 1.0


def test_admission_probability_validates_capacities():
    with pytest.raises(ValueError):
        admit_q(1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        admit_q(1.0, 1.0, 0.0, 0.0, 1.0, -1.0)


def test_admission_probability_matches_closed_form():
    rng = random.Random(2024)
    for _ in range(1000):
        lam = rng.uniform(0.01, 50.0)
        mu = rng.uniform(0.01, 50.0)
        cpu_avg = rng.uniform(0.0, 10.0)
        mem_avg = rng.uniform(0.0, 10.0)
        cpu_cap = rng.uniform(0.1, 10.0)
        mem_cap = rng.uniform(0.1, 10.0)
        got = admit_q(lam, mu, cpu_avg, mem_avg, cpu_cap, mem_cap)
        want = q_closed_form(lam, mu, cpu_avg, mem_avg, cpu_cap, mem_cap)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 0.0 <= got <= 1.0


def test_conservative_rate_never_raises_admission():
    rng = random.Random(99)
    for _ in range(500):
        lam = rng.uniform(0.1, 20.0)
        delta = rng.uniform(0.0, 10.0)
        mu = rng.uniform(0.1, 20.0)
        cpu_avg = rng.uniform(0.0, 5.0)
        plain = admit_q(lam, mu, cpu_avg, 0.0, 1.0, 1.0)
        conservative = admit_q(lam + delta, mu, cpu_avg, 0.0, 1.0, 1.0)
        assert conservative <= plain + 1e-12


# One service and one access point, for streams whose picks do not matter.
SVC = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]


def arrivals(rate, horizon_s, seed, jitters=(), services=SVC, access_points=(0,)):
    """The simulator's arrival stream as a list of (time_s, service_index,
    origin) tuples."""
    return list(wl._iter_arrival_tuples(
        rate, horizon_s, seed, list(jitters), services, list(access_points)
    ))


def test_service_spec_validation():
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=0.0)
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=1.0, cpu_cost=-1.0)
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=1.0, popularity_weight=-1.0)
    with pytest.raises(ValueError, match="popularity weights must not all be zero"):
        arrivals(100.0, 1.0, 1, services=[
            wl.ServiceSpec(name="z", mean_exec_time_s=1.0, popularity_weight=0.0)])


def test_stream_refuses_empty_service_and_access_point_lists():
    with pytest.raises(ValueError, match="popularity weights must not all be zero"):
        arrivals(100.0, 1.0, 1, services=[])
    with pytest.raises(ValueError, match="access point list must not be empty"):
        arrivals(100.0, 1.0, 1, access_points=[])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["mean_exec_time_s", "cpu_cost", "mem_cost", "popularity_weight"]
)
def test_service_spec_rejects_non_finite(field, value):
    kwargs = {"name": "s", "mean_exec_time_s": 1.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        wl.ServiceSpec(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["start_ms", "duration_ms", "rate_multiplier"])
def test_jitter_spec_rejects_non_finite(field, value):
    kwargs = {"start_ms": 0.0, "duration_ms": 10.0, "rate_multiplier": 2.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        wl.JitterSpec(**kwargs)


# The rate is checked before the first draw: without the check an infinite
# rate yields zero gaps forever, so the stream would never end.
@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0])
def test_stream_rejects_a_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError, match="finite"):
        arrivals(rate, 0.1, 1)


def test_stream_rejects_a_rate_product_that_overflows():
    # Every factor is finite; base rate times load multiplier is not.
    with pytest.raises(ValueError, match="finite"):
        arrivals(1e300 * 1e300, 0.1, 1)
    jit = [wl.JitterSpec(start_ms=10.0, duration_ms=5.0, rate_multiplier=1e300)]
    with pytest.raises(ValueError, match="finite"):
        arrivals(1e10, 0.1, 1, jitters=jit)


def test_popularity_weights_whose_sum_overflows_are_refused():
    # Each weight is finite but their sum is not, so every draw would land
    # past the first edge, on the last service.
    services = [
        wl.ServiceSpec(name=name, mean_exec_time_s=0.001, popularity_weight=1e308)
        for name in ("a", "b")
    ]
    with pytest.raises(ValueError, match="popularity weights must sum to a finite total"):
        arrivals(100.0, 1.0, 1, services=services)
    # The largest weights whose sum is finite still split the draws.
    services[1] = dataclasses.replace(services[1], popularity_weight=7e307)
    picks = {a[1] for a in arrivals(1000.0, 0.1, 1, services=services)}
    assert picks == {0, 1}


def test_jitter_spec_validation():
    with pytest.raises(ValueError):
        wl.JitterSpec(start_ms=-1.0, duration_ms=10.0, rate_multiplier=6.0)
    with pytest.raises(ValueError):
        wl.JitterSpec(start_ms=0.0, duration_ms=0.0, rate_multiplier=6.0)
    with pytest.raises(ValueError):
        wl.JitterSpec(start_ms=0.0, duration_ms=10.0, rate_multiplier=0.0)


def test_overlapping_jitters_rejected():
    jitters = [
        wl.JitterSpec(start_ms=40.0, duration_ms=10.0, rate_multiplier=6.0),
        wl.JitterSpec(start_ms=45.0, duration_ms=10.0, rate_multiplier=6.0),
    ]
    with pytest.raises(ValueError):
        arrivals(1000.0, 0.1, 1, jitters=jitters)


def test_poisson_counts_within_three_sigma():
    mean, sigma = 10_000.0, 100.0
    for seed in range(6):
        assert abs(len(arrivals(1000.0, 10.0, seed)) - mean) < 3.0 * sigma


def test_jitter_window_carries_sixfold_rate():
    jit = [wl.JitterSpec(start_ms=40.0, duration_ms=10.0, rate_multiplier=6.0)]
    counts = []
    for seed in range(40):
        events = arrivals(1000.0, 0.15, seed, jitters=jit)
        counts.append(sum(1 for e in events if 0.040 <= e[0] < 0.050))
    mean = sum(counts) / len(counts)
    # Expected about 60 arrivals in the boosted window; tolerance is three
    # standard errors of the 40-seed mean.
    assert abs(mean - 60.0) < 3.0 * math.sqrt(60.0 / len(counts))


def test_same_seed_reproduces_event_list():
    svc = [
        wl.ServiceSpec(name="a", mean_exec_time_s=0.001, popularity_weight=2.0),
        wl.ServiceSpec(name="b", mean_exec_time_s=0.002, popularity_weight=1.0),
    ]
    jit = [wl.JitterSpec(start_ms=10.0, duration_ms=5.0, rate_multiplier=3.0)]
    a = arrivals(500.0, 0.2, 11, jitters=jit, services=svc, access_points=[0, 3])
    b = arrivals(500.0, 0.2, 11, jitters=jit, services=svc, access_points=[0, 3])
    assert a and a == b


def test_different_seeds_differ():
    assert arrivals(500.0, 0.2, 1) != arrivals(500.0, 0.2, 2)


def test_arrivals_sorted_and_bounded():
    events = arrivals(2000.0, 0.5, 3, access_points=[1, 2])
    times = [e[0] for e in events]
    assert times == sorted(times)
    assert all(0.0 <= t < 0.5 for t in times)
    assert all(e[2] in (1, 2) for e in events)


@st.composite
def arrival_inputs(draw):
    """Arguments of ``_iter_arrival_tuples``: surges a few ms apart (some
    back to back, some past the horizon) at rates that put many draws on
    each side of every boundary, 1-7 weighted services, and 1-9 access
    points (mostly not a power of two)."""
    horizon_s = draw(st.floats(min_value=0.02, max_value=0.1))
    jitters = []
    start_ms = 0.0
    for _ in range(draw(st.integers(0, 3))):
        start_ms += draw(st.floats(min_value=0.0, max_value=40.0))
        duration_ms = draw(st.floats(min_value=0.5, max_value=20.0))
        mult = draw(st.floats(min_value=0.05, max_value=10.0))
        jitters.append(wl.JitterSpec(start_ms, duration_ms, mult))
        start_ms += duration_ms
    services = draw(st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=7
    ).map(lambda ws: [
        wl.ServiceSpec(name=f"s{i}", mean_exec_time_s=0.001, popularity_weight=w)
        for i, w in enumerate(ws)
    ]))
    access_points = draw(st.lists(st.integers(0, 50), min_size=1, max_size=9))
    rate = draw(st.floats(min_value=200.0, max_value=5000.0))
    seed = draw(st.integers(0, 2**16))
    return rate, horizon_s, seed, jitters, services, access_points


@settings(max_examples=150, deadline=None)
@given(arrival_inputs())
@example((1000.0, 0.15, 0, [wl.JitterSpec(40.0, 10.0, 6.0), wl.JitterSpec(70.0, 10.0, 6.0)],
          SVC, [0, 1, 2, 3, 4]))
def test_arrival_stream_matches_the_randrange_oracle(args):
    assert list(wl._iter_arrival_tuples(*args)) == list(reference_arrival_tuples(*args))


# Zero, subnormal and normal popularity weights. With a subnormal total,
# u * total can round up to the total and pass every cumulative edge.
EDGE_WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-320, 2.2250738585072014e-308]) | st.floats(
    min_value=0.01, max_value=10.0
)


@st.composite
def edge_arrival_inputs(draw):
    """Arguments of ``_iter_arrival_tuples`` at the edges of the service
    pick and the segment crossing: 1-5 services with zero (trailing ones
    too), unequal and subnormal weights, 1-7 access points, and surge
    windows of at most a few ms, some back to back, at base rates whose
    mean gap spans several of them, so that one gap crosses more than one
    boundary."""
    weights = draw(st.lists(EDGE_WEIGHTS, min_size=1, max_size=5).filter(any))
    services = [
        wl.ServiceSpec(name=f"s{i}", mean_exec_time_s=0.001, popularity_weight=w)
        for i, w in enumerate(weights)
    ]
    jitters = []
    start_ms = draw(st.floats(min_value=0.0, max_value=5.0))
    for _ in range(draw(st.integers(1, 8))):
        duration_ms = draw(st.floats(min_value=0.05, max_value=3.0))
        mult = draw(st.floats(min_value=0.05, max_value=20.0))
        jitters.append(wl.JitterSpec(start_ms, duration_ms, mult))
        start_ms += duration_ms + draw(st.sampled_from([0.0, 0.0, 0.5, 2.0]))
    access_points = draw(st.lists(st.integers(0, 50), min_size=1, max_size=7))
    rate = draw(st.floats(min_value=20.0, max_value=2000.0))
    horizon_s = draw(st.floats(min_value=0.005, max_value=0.05))
    seed = draw(st.integers(0, 2**16))
    return rate, horizon_s, seed, jitters, services, access_points


@settings(max_examples=200, deadline=None)
@given(edge_arrival_inputs())
@example((50.0, 0.03, 1, [wl.JitterSpec(1.0, 1.0, 1.0), wl.JitterSpec(2.0, 1.0, 0.1),
                          wl.JitterSpec(3.0, 0.5, 1.0)],
          [wl.ServiceSpec(name=f"s{i}", mean_exec_time_s=0.001, popularity_weight=w)
           for i, w in enumerate([5e-324, 0.0, 0.0])], [3, 1]))
def test_bisected_pick_and_crossings_match_the_oracle(args):
    assert list(wl._iter_arrival_tuples(*args)) == list(reference_arrival_tuples(*args))


# Positive finite rates: subnormal, normal, and near the largest double.
POSITIVE_RATES = (
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)
    | st.floats(min_value=1e-300, max_value=1e300)
    | st.floats(min_value=1e300, allow_infinity=False)
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**128) | st.text(max_size=8), POSITIVE_RATES, st.floats(0.0, 1e3))
@example(0, 5e-324, 0.0)
@example(1, 1.7976931348623157e308, 0.5)
def test_inline_exponential_draw_is_expovariate_bit_for_bit(seed, rate, t):
    # The simulator and the arrival stream write the draw out, in the
    # arrival stream as t - log(1 - u) / rate; both must be the bits of
    # expovariate, which evaluates -log(1.0 - random()) / rate.
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(4):
        u = ours.random()
        drawn = theirs.expovariate(rate)
        assert (-math.log(1.0 - u) / rate).hex() == drawn.hex()
        assert (t - math.log(1.0 - u) / rate).hex() == (t + drawn).hex()


def test_estimator_memory_is_fixed_by_k():
    state = wl.new_estimator(k=32)
    rng = random.Random(5)
    t = 0.0
    for _ in range(5000):
        t += rng.expovariate(10.0)
        state.record_arrival(t)
        state.record_completion(rng.uniform(0.01, 1.0), 1.0, 1.0)
    # One k-slot ring of arrival timestamps; every other slot is a scalar.
    assert len(state.buf_lambda) == 32
    for name in wl.EstimatorState.__slots__:
        if name != "buf_lambda":
            assert type(getattr(state, name)) in (int, float), name
    assert 0 <= state.arrival_index < 32
    assert 0 <= state.completion_index < 32


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["arrival", "completion"]),
            st.floats(min_value=0.001, max_value=1.0),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_interleaved_streams_keep_invariants(ops):
    state = wl.new_estimator(k=8)
    stamps = []
    t = 0.0
    for kind, x in ops:
        if kind == "arrival":
            t += x
            state.record_arrival(t)
            stamps.append(t)
        else:
            state.record_completion(x, x, x / 2.0)
        assert state.lambda_eff >= state.lambda_hat
        assert 0.0 <= state.execution_probability(1.0, 1.0) <= 1.0
        if len(stamps) >= 2:
            want = rescan_rate(stamps, 8)
            assert state.lambda_hat == pytest.approx(want, rel=1e-9)


# The core's running window sums and the oracle buffers they replace.
WINDOW_SUMS = {"sum_exec": "buf_mu", "sum_cpu": "buf_cpu", "sum_mem": "buf_mem"}
# The core's slots the oracle has no counterpart for: the node's capacities
# and the headroom factor of q that each fold derives from them.
CAPACITY_SLOTS = ("cpu_capacity", "mem_capacity", "headroom")


def assert_same_core(got, want):
    slots = wl.EstimatorState.__slots__
    shared = [name for name in slots if hasattr(want, name) and name != "buf_lambda"]
    assert sorted(set(slots) - set(shared)) == sorted(
        ["buf_lambda", *WINDOW_SUMS, *CAPACITY_SLOTS]
    )
    for name in shared:
        # Compared by repr: NaN matches NaN, and every bit of a float counts.
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    # The core's arrival buffer holds the stamps seen so far, up to k; the
    # oracle's k slots start as NaN.
    filled = min(want.arrival_count, want.k)
    assert len(got.buf_lambda) == filled
    assert repr(got.buf_lambda) == repr(want.buf_lambda[:filled])
    assert all(math.isnan(x) for x in want.buf_lambda[filled:])
    # A running sum holds the oracle's window so far, added left to right.
    for name, buf in WINDOW_SUMS.items():
        window = getattr(want, buf)[: want.completion_index]
        assert getattr(got, name).hex() == left_sum(window).hex(), name
    cpu, mem = got.cpu_capacity, got.mem_capacity
    headroom = min(cpu / (cpu + want.cpu_avg), mem / (mem + want.mem_avg))
    assert repr(got.headroom) == repr(headroom)
    for caps in ((2.0, 2.0), (0.5, 3.0), (cpu, mem)):
        assert got.execution_probability(*caps) == want.execution_probability(*caps)


def seeded_ops(seed, n):
    """A long mixed stream with irregular gaps and demands, so rounding
    differences between update orders show up."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        if rng.random() < 0.55:
            ops.append(("arrival", rng.expovariate(20.0)))
        else:
            ops.append((
                "completion",
                rng.uniform(0.001, 0.5), rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0),
            ))
    return ops


@settings(max_examples=150, deadline=None)
@example(16, seeded_ops(1234, 4000))
@example(3, seeded_ops(99, 1000))
@given(
    st.integers(min_value=2, max_value=16),
    st.lists(
        st.one_of(
            st.tuples(
                st.just("arrival"),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
            ),
            st.tuples(
                st.just("completion"),
                st.floats(min_value=1e-4, max_value=0.5),
                st.floats(min_value=0.0, max_value=3.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
        ),
        max_size=400,
    ),
)
def test_core_replays_reference_bit_for_bit(k, ops):
    core = wl.new_estimator(k)
    ref = ReferenceCore(k)
    t = 0.0
    for op in ops:
        if op[0] == "arrival":
            t += op[1]  # a zero gap repeats the previous timestamp
            core.record_arrival(t)
            ref.record_arrival(t)
        else:
            core.record_completion(*op[1:])
            ref.record_completion(*op[1:])
        assert_same_core(core, ref)


capacities = st.one_of(
    st.sampled_from([1.0, 3.0, 4.0]),
    st.floats(min_value=5e-324, max_value=1e308, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
# k=2 with zero gaps (lambda = inf, so q = 0 once warm) and zero mean demands.
@example(2, 1.0, 1.0, [("arrival", 0.0)] * 3 + [("completion", 0.01, 0.0, 0.0)] * 2
         + [("arrival", 0.0)] * 3 + [("arrival", 0.25)] * 3)
# Cold throughout: fewer arrivals than k.
@example(8, 3.0, 4.0, [("arrival", 0.1)] * 7 + [("completion", 0.01, 1.0, 1.0)] * 9)
@example(16, 3.0, 4.0, seeded_ops(1234, 4000))
@example(3, 0.5, 2.0, seeded_ops(99, 1000))
@given(
    st.integers(min_value=2, max_value=16),
    capacities,
    capacities,
    st.lists(
        st.one_of(
            st.tuples(
                st.just("arrival"),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
            ),
            st.tuples(
                st.just("completion"),
                st.floats(min_value=1e-4, max_value=0.5),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            ),
        ),
        max_size=400,
    ),
)
def test_record_arrival_returns_the_q_of_execution_probability(k, cpu, mem, ops):
    core = wl.new_estimator(k, cpu, mem)
    ref = ReferenceCore(k)
    t = 0.0
    for op in ops:
        if op[0] == "arrival":
            t += op[1]
            q = core.record_arrival(t)
            ref.record_arrival(t)
            # By repr, so every bit counts and a NaN q would match only NaN.
            assert repr(q) == repr(core.execution_probability(cpu, mem))
            assert repr(q) == repr(ref.execution_probability(cpu, mem))
        else:
            core.record_completion(*op[1:])
            ref.record_completion(*op[1:])
    assert_same_core(core, ref)


def test_estimator_capacities_must_be_positive():
    for cpu, mem in ((0.0, 1.0), (1.0, -1.0), (NAN, 1.0), (1.0, NAN)):
        with pytest.raises(ValueError, match="capacities must be positive"):
            wl.new_estimator(4, cpu, mem)


def test_arrival_buffer_grows_with_the_arrivals_seen():
    state = wl.new_estimator(k=10**6)
    assert state.buf_lambda == []
    for n in range(1, 301):
        state.record_arrival(0.001 * n)
        assert len(state.buf_lambda) == n
    assert state.buf_lambda == [0.001 * n for n in range(1, 301)]
    # A proactive run whose buffer outlasts its arrivals keeps every
    # estimator cold, at the metrics of any such buffer, and allocates for
    # the stamps it saw, not for k of them (8 MB per estimator at k=10**6).
    built = []

    def watched(*args):
        built.append(wl.new_estimator(*args))
        return built[-1]

    cfg = sim.preset_fig3("proactive")
    tracemalloc.start()
    try:
        with mock.patch.object(sim, "new_estimator", watched):
            m = sim.run_scenario(dataclasses.replace(cfg, buffer_size=10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m == sim.run_scenario(dataclasses.replace(cfg, buffer_size=1000))
    assert 0 < m.gross_arrivals < 1000
    assert built and all(len(e.buf_lambda) == e.arrival_count for e in built)
    assert sum(e.arrival_count for e in built) >= m.gross_arrivals
    assert peak < 2**22


# On Python 3.12+, sum() gives other bits for mu at seeds 0 and 6, for
# cpu_avg at 0 and 2, and for mem_avg at 2 and 6.
@pytest.mark.parametrize("seed", [0, 2, 6])
def test_window_means_add_left_to_right(seed):
    rng = random.Random(seed)
    k = 16
    state = wl.new_estimator(k)
    mu = cpu_avg = mem_avg = 0.0
    for _ in range(50):
        window = [
            (rng.uniform(1e-4, 2e-3), rng.uniform(0.0, 4.0), rng.uniform(0.0, 1.0))
            for _ in range(k)
        ]
        for exec_time, cpu, mem in window:
            state.record_completion(exec_time, cpu, mem)
        mu = 0.5 * (mu + 1.0 / (left_sum(w[0] for w in window) / k))
        cpu_avg = 0.5 * (cpu_avg + left_sum(w[1] for w in window) / k)
        mem_avg = 0.5 * (mem_avg + left_sum(w[2] for w in window) / k)
    assert state.completion_wraps == 50
    assert (state.mu, state.cpu_avg, state.mem_avg) == (mu, cpu_avg, mem_avg)
