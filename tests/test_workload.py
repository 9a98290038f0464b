"""Estimator statistics and arrival generation.

Every derived quantity is checked against a deliberately naive oracle: a
full window re-scan for the mean rate, a chunked list replay for the
smoothed completion stats, a straight transcription of the closed-form
admission probability, and a plain transcription of the estimator core
(``ReferenceCore``) that the optimized core must replay bit for bit.
"""

import dataclasses
import math
import operator
import random
import tracemalloc
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim import simulator as sim
from offloadsim import workload as wl

from conftest import reference_arrival_tuples

INF = math.inf
NAN = math.nan


def left_sum(values):
    """Left-to-right float sum; the same bits as the built-in ``sum`` of
    floats before Python 3.12, which switched to compensated summation."""
    return reduce(operator.add, values, 0.0)


def reference_admission_probability(
    lambda_eff, mu, cpu_avg, mem_avg, cpu_capacity, mem_capacity
):
    """The closed form as a free function, written for reading."""
    if cpu_capacity <= 0.0 or mem_capacity <= 0.0:
        raise ValueError("capacities must be positive")
    if lambda_eff <= 0.0:
        return 1.0
    headroom = min(
        cpu_capacity / (cpu_capacity + cpu_avg),
        mem_capacity / (mem_capacity + mem_avg),
    )
    q = headroom * (mu / lambda_eff)
    if q >= 1.0:
        return 1.0
    if q <= 0.0:
        return 0.0
    return q


class ReferenceCore:
    """The estimator core written plainly: attribute updates in place, a
    separate warm-up predicate and a free-function closed form. The window
    sums use ``left_sum`` so the oracle means the same on every Python."""

    def __init__(self, k):
        if k < 2:
            raise ValueError("buffer size k must be at least 2")
        self.k = k
        self.buf_lambda = [NAN] * k
        self.buf_mu = [NAN] * k
        self.buf_cpu = [NAN] * k
        self.buf_mem = [NAN] * k
        self.arrival_index = 0
        self.completion_index = 0
        self.arrival_count = 0
        self.completion_count = 0
        self.arrival_wraps = 0
        self.completion_wraps = 0
        self.interval_sum = 0.0
        self.last_arrival = NAN
        self.lambda_hat = 0.0
        self.lambda_prev = 0.0
        self.delta_lambda = 0.0
        self.lambda_eff = 0.0
        self.mu = 0.0
        self.cpu_avg = 0.0
        self.mem_avg = 0.0

    def record_arrival(self, timestamp):
        k = self.k
        count = self.arrival_count
        idx = self.arrival_index
        if count > 0:
            if timestamp < self.last_arrival:
                raise ValueError("arrival timestamps must be non-decreasing")
            z = timestamp - self.last_arrival
            if count >= k:
                buf = self.buf_lambda
                y = buf[(idx + 1) % k] - buf[idx]
                self.interval_sum += z - y
            else:
                self.interval_sum += z
        self.buf_lambda[idx] = timestamp
        self.last_arrival = timestamp
        self.arrival_count = count + 1
        idx += 1
        if idx == k:
            idx = 0
        self.arrival_index = idx

        valid = count + 1
        if valid > k:
            valid = k
        if valid >= 2:
            s = self.interval_sum
            self.lambda_hat = (valid - 1) / s if s > 0.0 else INF
        d = self.lambda_hat - self.lambda_prev
        self.delta_lambda = d if d > 0.0 else 0.0
        self.lambda_eff = self.lambda_hat + self.delta_lambda

        if idx == 0:
            self.arrival_wraps += 1
            if self.arrival_wraps == 1:
                self.lambda_prev = self.lambda_hat
            else:
                self.lambda_prev = 0.5 * (self.lambda_prev + self.lambda_hat)

    def record_completion(self, exec_time, cpu_cost, mem_cost):
        if exec_time <= 0.0 or math.isnan(exec_time):
            raise ValueError("execution time must be positive")
        if cpu_cost < 0.0 or mem_cost < 0.0:
            raise ValueError("resource costs must be non-negative")
        k = self.k
        idx = self.completion_index
        self.buf_mu[idx] = exec_time
        self.buf_cpu[idx] = cpu_cost
        self.buf_mem[idx] = mem_cost
        self.completion_count += 1
        idx += 1
        if idx == k:
            idx = 0
        self.completion_index = idx
        if idx == 0:
            self.completion_wraps += 1
            mean_exec = left_sum(self.buf_mu) / k
            self.mu = 0.5 * (self.mu + 1.0 / mean_exec)
            self.cpu_avg = 0.5 * (self.cpu_avg + left_sum(self.buf_cpu) / k)
            self.mem_avg = 0.5 * (self.mem_avg + left_sum(self.buf_mem) / k)

    def is_warm(self):
        return self.arrival_count >= self.k and self.completion_wraps >= 1

    def execution_probability(self, cpu_capacity, mem_capacity):
        if not self.is_warm():
            return 1.0
        return reference_admission_probability(
            self.lambda_eff, self.mu, self.cpu_avg, self.mem_avg,
            cpu_capacity, mem_capacity,
        )


def admit_q(lambda_eff, mu, cpu_avg, mem_avg, cpu_capacity, mem_capacity):
    """q from a warm estimator whose statistics are set directly."""
    state = wl.new_estimator(k=2)
    state.arrival_count = 2
    state.completion_wraps = 1
    state.lambda_eff = lambda_eff
    state.mu = mu
    state.cpu_avg = cpu_avg
    state.mem_avg = mem_avg
    return wl.execution_probability(state, cpu_capacity, mem_capacity)


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
        wl.record_arrival(st8, t)
    assert wl.mean_arrival_rate(st8) == pytest.approx(1.0)


def test_half_second_spacing_gives_two_per_second():
    state = wl.new_estimator(k=8)
    for i in range(8):
        wl.record_arrival(state, 0.5 * i)
    assert wl.mean_arrival_rate(state) == pytest.approx(2.0)


def test_single_arrival_signals_warmup():
    state = wl.new_estimator(k=8)
    wl.record_arrival(state, 1.0)
    with pytest.raises(ValueError):
        wl.mean_arrival_rate(state)


def test_decreasing_timestamps_rejected():
    state = wl.new_estimator(k=8)
    wl.record_arrival(state, 2.0)
    with pytest.raises(ValueError):
        wl.record_arrival(state, 1.5)


def test_tiny_buffer_rejected():
    with pytest.raises(ValueError):
        wl.new_estimator(k=1)


def test_incremental_rate_matches_rescan_oracle():
    rng = random.Random(42)
    state = wl.new_estimator(k=16)
    stamps = []
    t = 0.0
    for _ in range(2000):
        t += rng.expovariate(3.0)
        stamps.append(t)
        wl.record_arrival(state, t)
        if len(stamps) >= 2:
            expected = rescan_rate(stamps, 16)
            assert wl.mean_arrival_rate(state) == pytest.approx(expected, rel=1e-9)


def test_rate_with_identical_timestamps_is_infinite():
    state = wl.new_estimator(k=4)
    for _ in range(4):
        wl.record_arrival(state, 5.0)
    assert wl.mean_arrival_rate(state) == math.inf


def test_burst_raises_delta_lambda():
    state = wl.new_estimator(k=8)
    t = 0.0
    # Two full windows of steady traffic settle lambda_prev near 1.0.
    for _ in range(16):
        wl.record_arrival(state, t)
        t += 1.0
    assert state.delta_lambda == pytest.approx(0.0, abs=1e-9)
    before = state.lambda_hat
    for _ in range(6):
        wl.record_arrival(state, t)
        t += 0.05
    assert state.lambda_hat > before
    assert state.delta_lambda > 0.0
    assert state.lambda_eff == pytest.approx(state.lambda_hat + state.delta_lambda)


def test_cold_completion_window_example():
    # First wrap folds against the cold prior of zero.
    state = wl.new_estimator(k=2)
    wl.record_completion(state, 0.5, 0.0, 0.0)
    wl.record_completion(state, 0.5, 0.0, 0.0)
    assert state.mu == pytest.approx(1.0)


def test_completion_fixed_point():
    state = wl.new_estimator(k=2)
    wl.record_completion(state, 0.5, 0.0, 0.0)
    wl.record_completion(state, 0.5, 0.0, 0.0)
    assert state.mu == pytest.approx(1.0)
    wl.record_completion(state, 1.0, 0.0, 0.0)
    wl.record_completion(state, 1.0, 0.0, 0.0)
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
        wl.record_completion(state, e, c, m)
        replay.complete(e, c, m)
        assert state.mu == pytest.approx(replay.mu, rel=1e-12, abs=1e-15)
        assert state.cpu_avg == pytest.approx(replay.cpu_avg, rel=1e-12, abs=1e-15)
        assert state.mem_avg == pytest.approx(replay.mem_avg, rel=1e-12, abs=1e-15)


def test_invalid_completions_rejected():
    state = wl.new_estimator(k=4)
    with pytest.raises(ValueError):
        wl.record_completion(state, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        wl.record_completion(state, 1.0, -0.5, 0.0)


def test_queue_length_substitutions():
    assert wl.expected_queue_length(0.5) == pytest.approx(1.0)
    assert wl.expected_queue_length(0.0) == 0.0
    assert wl.expected_queue_length(0.9) == pytest.approx(9.0)
    assert wl.expected_queue_length(1.0) == math.inf
    assert wl.expected_queue_length(3.0) == math.inf
    with pytest.raises(ValueError):
        wl.expected_queue_length(-0.1)


def test_execution_probability_substitution():
    # Drive a real state to lambda_eff=4, mu=4, cpu_avg=2, mem_avg=0. The
    # third arrival keeps the spacing so the smoothed baseline has settled
    # and the burst increment is zero.
    state = wl.new_estimator(k=2)
    wl.record_arrival(state, 0.0)
    wl.record_arrival(state, 0.25)
    wl.record_arrival(state, 0.5)
    wl.record_completion(state, 0.125, 4.0, 0.0)
    wl.record_completion(state, 0.125, 4.0, 0.0)
    assert state.lambda_eff == pytest.approx(4.0)
    assert state.mu == pytest.approx(4.0)
    assert state.cpu_avg == pytest.approx(2.0)
    q = wl.execution_probability(state, cpu_capacity=2.0, mem_capacity=1.0)
    assert q == pytest.approx(0.5)


def test_execution_probability_cold_state_accepts_everything():
    state = wl.new_estimator(k=8)
    assert wl.execution_probability(state, 1.0, 1.0) == 1.0
    wl.record_arrival(state, 0.0)
    assert wl.execution_probability(state, 1.0, 1.0) == 1.0


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


def test_service_spec_validation():
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=0.0)
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=1.0, cpu_cost=-1.0)
    with pytest.raises(ValueError):
        wl.ServiceSpec(name="bad", mean_exec_time_s=1.0, popularity_weight=-1.0)
    with pytest.raises(ValueError):
        wl.popularity([wl.ServiceSpec(name="z", mean_exec_time_s=1.0,
                                      popularity_weight=0.0)])


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
        wl.poisson_stream(rate, 0.1, seed=1)


def test_stream_rejects_a_rate_product_that_overflows():
    # Every factor is finite; base rate times load multiplier is not.
    with pytest.raises(ValueError, match="finite"):
        wl.poisson_stream(1e300 * 1e300, 0.1, seed=1)
    jit = [wl.JitterSpec(start_ms=10.0, duration_ms=5.0, rate_multiplier=1e300)]
    with pytest.raises(ValueError, match="finite"):
        wl.poisson_stream(1e10, 0.1, seed=1, jitters=jit)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8))
def test_popularity_normalizes(weights):
    services = [
        wl.ServiceSpec(name=f"s{i}", mean_exec_time_s=1.0, popularity_weight=w)
        for i, w in enumerate(weights)
    ]
    probs = wl.popularity(services)
    assert sum(probs) == pytest.approx(1.0)
    assert all(p > 0.0 for p in probs)


def test_popularity_weights_whose_sum_overflows_are_refused():
    # Each weight is finite but their sum is not, so every draw would land
    # past the first edge, on the last service.
    services = [
        wl.ServiceSpec(name=name, mean_exec_time_s=0.001, popularity_weight=1e308)
        for name in ("a", "b")
    ]
    with pytest.raises(ValueError, match="popularity weights must sum to a finite total"):
        wl.popularity(services)
    with pytest.raises(ValueError, match="popularity weights must sum to a finite total"):
        wl.poisson_stream(100.0, 1.0, seed=1, services=services)
    # The largest weights whose sum is finite still split the draws.
    services[1] = dataclasses.replace(services[1], popularity_weight=7e307)
    assert wl.popularity(services) == pytest.approx([1e308 / 1.7e308, 7e307 / 1.7e308])
    picks = {a.service_index for a in wl.poisson_stream(1000.0, 0.1, seed=1, services=services)}
    assert picks == {0, 1}


def test_catalog_means_weighted():
    services = [
        wl.ServiceSpec(name="a", mean_exec_time_s=1.0, cpu_cost=1.0, popularity_weight=3.0),
        wl.ServiceSpec(name="b", mean_exec_time_s=2.0, cpu_cost=2.0, popularity_weight=1.0),
    ]
    cpu, mem = wl.catalog_means(services)
    assert cpu == pytest.approx(0.75 * 1.0 + 0.25 * 2.0)
    assert mem == pytest.approx(0.0)


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
    svc = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]
    with pytest.raises(ValueError):
        wl.poisson_stream(1000.0, 0.1, seed=1, jitters=jitters, services=svc,
                          access_points=[0])


def test_poisson_counts_within_three_sigma():
    svc = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]
    mean, sigma = 10_000.0, 100.0
    for seed in range(6):
        events = wl.poisson_stream(1000.0, 10.0, seed=seed, jitters=[],
                                   services=svc, access_points=[0])
        assert abs(len(events) - mean) < 3.0 * sigma


def test_jitter_window_carries_sixfold_rate():
    svc = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]
    jit = [wl.JitterSpec(start_ms=40.0, duration_ms=10.0, rate_multiplier=6.0)]
    counts = []
    for seed in range(40):
        events = wl.poisson_stream(1000.0, 0.15, seed=seed, jitters=jit,
                                   services=svc, access_points=[0])
        counts.append(sum(1 for e in events if 0.040 <= e.time_s < 0.050))
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
    a = wl.poisson_stream(500.0, 0.2, seed=11, jitters=jit, services=svc,
                          access_points=[0, 3])
    b = wl.poisson_stream(500.0, 0.2, seed=11, jitters=jit, services=svc,
                          access_points=[0, 3])
    assert a == b


def test_different_seeds_differ():
    svc = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]
    a = wl.poisson_stream(500.0, 0.2, seed=1, jitters=[], services=svc,
                          access_points=[0])
    b = wl.poisson_stream(500.0, 0.2, seed=2, jitters=[], services=svc,
                          access_points=[0])
    assert a != b


def test_arrivals_sorted_and_bounded():
    svc = [wl.ServiceSpec(name="s", mean_exec_time_s=0.001)]
    events = wl.poisson_stream(2000.0, 0.5, seed=3, jitters=[], services=svc,
                               access_points=[1, 2])
    times = [e.time_s for e in events]
    assert times == sorted(times)
    assert all(0.0 <= t < 0.5 for t in times)
    assert all(e.origin in (1, 2) for e in events)


@st.composite
def arrival_inputs(draw):
    """Arguments of ``_iter_arrival_tuples``: surges a few ms apart (some
    back to back, some past the horizon) at rates that put many draws on
    each side of every boundary, 1-7 weighted services or none, and 1-9
    access points (mostly not a power of two) or none."""
    horizon_s = draw(st.floats(min_value=0.02, max_value=0.1))
    jitters = []
    start_ms = 0.0
    for _ in range(draw(st.integers(0, 3))):
        start_ms += draw(st.floats(min_value=0.0, max_value=40.0))
        duration_ms = draw(st.floats(min_value=0.5, max_value=20.0))
        mult = draw(st.floats(min_value=0.05, max_value=10.0))
        jitters.append(wl.JitterSpec(start_ms, duration_ms, mult))
        start_ms += duration_ms
    services = draw(st.none() | st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=7
    ).map(lambda ws: [
        wl.ServiceSpec(name=f"s{i}", mean_exec_time_s=0.001, popularity_weight=w)
        for i, w in enumerate(ws)
    ]))
    access_points = draw(st.none() | st.lists(
        st.integers(0, 50), min_size=1, max_size=9
    ))
    rate = draw(st.floats(min_value=200.0, max_value=5000.0))
    seed = draw(st.integers(0, 2**16))
    return rate, horizon_s, seed, jitters, services, access_points


@settings(max_examples=150, deadline=None)
@given(arrival_inputs())
@example((1000.0, 0.15, 0, [wl.JitterSpec(40.0, 10.0, 6.0), wl.JitterSpec(70.0, 10.0, 6.0)],
          None, [0, 1, 2, 3, 4]))
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
        wl.record_arrival(state, t)
        wl.record_completion(state, rng.uniform(0.01, 1.0), 1.0, 1.0)
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
            wl.record_arrival(state, t)
            stamps.append(t)
        else:
            wl.record_completion(state, x, x, x / 2.0)
        assert state.delta_lambda >= 0.0
        assert 0.0 <= wl.execution_probability(state, 1.0, 1.0) <= 1.0
        if len(stamps) >= 2:
            want = rescan_rate(stamps, 8)
            assert wl.mean_arrival_rate(state) == pytest.approx(want, rel=1e-9)


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


def test_module_functions_are_the_estimator_methods():
    assert wl.record_arrival is wl.EstimatorState.record_arrival
    assert wl.record_completion is wl.EstimatorState.record_completion
    assert wl.execution_probability is wl.EstimatorState.execution_probability
    assert not hasattr(wl, "iter_poisson_arrivals")
    # Called as a function, record_arrival returns the method's q: the
    # q execution_probability gives for the state's own capacities.
    state = wl.new_estimator(16, 3.0, 4.0)
    t = 0.0
    qs = []
    for op in seeded_ops(1234, 4000):
        if op[0] == "arrival":
            t += op[1]
            q = wl.record_arrival(state, t)
            assert repr(q) == repr(wl.execution_probability(state, 3.0, 4.0))
            qs.append(q)
        else:
            assert wl.record_completion(state, *op[1:]) is None
    # The stream warms the estimator, so q leaves 1.0.
    assert min(qs) < 1.0


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
            wl.record_completion(state, exec_time, cpu, mem)
        mu = 0.5 * (mu + 1.0 / (left_sum(w[0] for w in window) / k))
        cpu_avg = 0.5 * (cpu_avg + left_sum(w[1] for w in window) / k)
        mem_avg = 0.5 * (mem_avg + left_sum(w[2] for w in window) / k)
    assert state.completion_wraps == 50
    assert (state.mu, state.cpu_avg, state.mem_avg) == (mu, cpu_avg, mem_avg)
