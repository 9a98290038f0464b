"""Request workload model and per-node arrival/service estimation.

* ``EstimatorState``: one node's windowed arrival rate and its positive
  increment (the burst detector), the smoothed service rate and mean
  cpu/memory demand, and the proactive strategy's admission probability
  q, each in O(1) per event. The module functions ``record_arrival``,
  ``record_completion`` and ``execution_probability`` are its methods,
  called with the state first.

* The request source: a service catalog with popularity weights and
  ``poisson_stream``, which samples (possibly jittered) Poisson arrival
  times, service picks, and origin access points from a seeded RNG. The
  origin draw is ``randrange``'s own, inlined: ``getrandbits`` of the
  count's bit length, redrawn until below the access point count.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import log

from .partition import _left_sum, _non_negative, _positive

ARMA_WEIGHT = 0.5


def _headroom(cpu_capacity: float, mem_capacity: float, cpu_avg: float, mem_avg: float) -> float:
    """The smaller of the cpu and memory headroom ratios of q."""
    headroom = cpu_capacity / (cpu_capacity + cpu_avg)
    mem_headroom = mem_capacity / (mem_capacity + mem_avg)
    if mem_headroom < headroom:
        headroom = mem_headroom
    return headroom


class EstimatorState:
    """Windowed statistics for one node with the given capacities: the last
    k arrival timestamps in one circular buffer, filled by appending until
    it holds k, and the current completion window as three running sums.
    The methods work on locals and inline their helpers; every float
    operation and its order is part of the simulator's byte-identical output.

    Not thread safe; one instance per simulated node. Timestamps are seconds
    and must be non-decreasing per stream.
    """

    __slots__ = (
        "k",
        "buf_lambda",
        "sum_exec",
        "sum_cpu",
        "sum_mem",
        "arrival_index",
        "completion_index",
        "arrival_count",
        "completion_wraps",
        "interval_sum",
        "last_arrival",
        "lambda_hat",
        "lambda_prev",
        "delta_lambda",
        "lambda_eff",
        "mu",
        "cpu_avg",
        "mem_avg",
        "cpu_capacity",
        "mem_capacity",
        "headroom",
    )

    def __init__(self, k: int = 128, cpu_capacity: float = 1.0, mem_capacity: float = 1.0):
        if k < 2:
            raise ValueError("buffer size k must be at least 2")
        if not (cpu_capacity > 0.0 and mem_capacity > 0.0):
            raise ValueError("capacities must be positive")
        self.k = k
        self.buf_lambda = []
        self.sum_exec = 0.0
        self.sum_cpu = 0.0
        self.sum_mem = 0.0
        self.arrival_index = 0
        self.completion_index = 0
        self.arrival_count = 0
        self.completion_wraps = 0
        self.interval_sum = 0.0
        self.last_arrival = math.nan
        self.lambda_hat = 0.0
        self.lambda_prev = 0.0
        self.delta_lambda = 0.0
        self.lambda_eff = 0.0
        self.mu = 0.0
        self.cpu_avg = 0.0
        self.mem_avg = 0.0
        self.cpu_capacity = cpu_capacity
        self.mem_capacity = mem_capacity
        self.headroom = _headroom(cpu_capacity, mem_capacity, 0.0, 0.0)

    def record_arrival(self, timestamp: float) -> float:
        """Push one arrival and return q for this node's capacities, the
        bits ``execution_probability(cpu_capacity, mem_capacity)`` gives."""
        k = self.k
        count = self.arrival_count
        idx = self.arrival_index
        buf = self.buf_lambda
        last = self.last_arrival
        s = self.interval_sum
        if count > 0:
            if timestamp < last:
                raise ValueError(
                    f"arrival timestamps must be non-decreasing "
                    f"({timestamp!r} after {last!r})"
                )
            z = timestamp - last
            if count >= k:
                # Slot idx holds the oldest timestamp; evicting it removes the
                # interval between it and its successor from the window sum.
                s += z - (buf[(idx + 1) % k] - buf[idx])
            else:
                s += z
            self.interval_sum = s
        if count < k:  # idx == count: the buffer grows to k stamps
            buf.append(timestamp)
        else:
            buf[idx] = timestamp
        self.last_arrival = timestamp
        count += 1
        self.arrival_count = count
        idx += 1
        if idx == k:
            idx = 0
        self.arrival_index = idx

        lambda_hat = self.lambda_hat
        if count >= 2:
            valid = count if count < k else k
            lambda_hat = (valid - 1) / s if s > 0.0 else math.inf
            self.lambda_hat = lambda_hat
        d = lambda_hat - self.lambda_prev
        if not d > 0.0:
            d = 0.0
        self.delta_lambda = d
        lambda_eff = self.lambda_eff = lambda_hat + d

        if idx == 0:  # buffer wrapped on this arrival
            if count == k:
                # No defined prior for the historical rate; adopting the
                # current estimate avoids a spurious burst signal at warm-up.
                self.lambda_prev = lambda_hat
            else:
                self.lambda_prev = ARMA_WEIGHT * (self.lambda_prev + lambda_hat)

        # ``execution_probability`` for the node's own capacities, whose
        # check the constructor made.
        if count < k or self.completion_wraps < 1 or lambda_eff <= 0.0:
            return 1.0
        q = self.headroom * (self.mu / lambda_eff)
        if q >= 1.0:
            return 1.0
        if q <= 0.0:
            return 0.0
        return q

    def record_completion(self, exec_time: float, cpu_cost: float, mem_cost: float) -> None:
        if exec_time <= 0.0 or math.isnan(exec_time):
            raise ValueError("execution time must be positive")
        if cpu_cost < 0.0 or mem_cost < 0.0:
            raise ValueError("resource costs must be non-negative")
        # The window sums add left to right from 0.0, in completion order.
        self.sum_exec += exec_time
        self.sum_cpu += cpu_cost
        self.sum_mem += mem_cost
        idx = self.completion_index + 1
        k = self.k
        if idx == k:  # window full: fold its means into the smoothed stats
            idx = 0
            self.completion_wraps += 1
            self.mu = ARMA_WEIGHT * (self.mu + 1.0 / (self.sum_exec / k))
            cpu_avg = self.cpu_avg = ARMA_WEIGHT * (self.cpu_avg + self.sum_cpu / k)
            mem_avg = self.mem_avg = ARMA_WEIGHT * (self.mem_avg + self.sum_mem / k)
            self.headroom = _headroom(self.cpu_capacity, self.mem_capacity, cpu_avg, mem_avg)
            self.sum_exec = self.sum_cpu = self.sum_mem = 0.0
        self.completion_index = idx

    def execution_probability(self, cpu_capacity: float, mem_capacity: float) -> float:
        """Admission probability q in [0, 1]; 1.0 until both buffers carry a
        full window of history. Once warm, the closed form capped into [0, 1]:

        q = min(cpu_cap/(cpu_cap+cpu_avg), mem_cap/(mem_cap+mem_avg)) * mu/lambda_eff

        A zero mean demand leaves the corresponding headroom ratio at 1; a
        non-positive effective arrival rate means no observed pressure, so
        q = 1.
        """
        if self.arrival_count < self.k or self.completion_wraps < 1:
            return 1.0
        if cpu_capacity <= 0.0 or mem_capacity <= 0.0:
            raise ValueError("capacities must be positive")
        lambda_eff = self.lambda_eff
        if lambda_eff <= 0.0:
            return 1.0
        q = _headroom(cpu_capacity, mem_capacity, self.cpu_avg, self.mem_avg) * (
            self.mu / lambda_eff
        )
        if q >= 1.0:
            return 1.0
        if q <= 0.0:
            return 0.0
        return q


record_arrival = EstimatorState.record_arrival
record_completion = EstimatorState.record_completion
execution_probability = EstimatorState.execution_probability


def estimator_backend() -> str:
    """Name of the estimator implementation, which the benchmark harness
    stamps on every record. There is one, in pure Python."""
    return "pure-python"


def new_estimator(
    k: int = 128, cpu_capacity: float = 1.0, mem_capacity: float = 1.0
) -> EstimatorState:
    """Fresh estimator with a window of k arrivals and k completions (k >= 2)
    for a node of the given (positive) capacities, for which its
    ``record_arrival`` method returns q."""
    return EstimatorState(k, cpu_capacity, mem_capacity)


def mean_arrival_rate(state: EstimatorState) -> float:
    """Windowed mean rate: (valid-1) intervals over the buffer span.

    Raises ValueError until two arrivals have been seen; identical
    timestamps across the whole window yield inf.
    """
    if state.arrival_count < 2:
        raise ValueError("need at least two arrivals to estimate a rate")
    return state.lambda_hat


def expected_queue_length(rho: float) -> float:
    """Stationary mean number in system for utilization rho = lambda/mu.

    rho >= 1 has no stationary regime; inf signals the unstable case.
    """
    if rho < 0.0:
        raise ValueError("utilization must be non-negative")
    if rho >= 1.0:
        return math.inf
    return rho / (1.0 - rho)


@dataclass(frozen=True)
class ServiceSpec:
    """One entry of the service catalog offered by executor nodes."""

    name: str
    mean_exec_time_s: float
    cpu_cost: float = 1.0
    mem_cost: float = 0.0
    popularity_weight: float = 1.0

    def __post_init__(self):
        if not _positive(self.mean_exec_time_s):
            raise ValueError(
                f"service {self.name!r}: mean_exec_time_s must be positive and finite"
            )
        if not (_non_negative(self.cpu_cost) and _non_negative(self.mem_cost)):
            raise ValueError(
                f"service {self.name!r}: resource costs must be non-negative and finite"
            )
        if not _non_negative(self.popularity_weight):
            raise ValueError(
                f"service {self.name!r}: popularity_weight must be non-negative and finite"
            )


def _check_total_weight(total: float) -> None:
    if total <= 0.0:
        raise ValueError("popularity weights must not all be zero")
    if total == math.inf:
        raise ValueError("popularity weights must sum to a finite total")


def popularity(services: list[ServiceSpec]) -> list[float]:
    """Normalized popularity shares (sums to 1)."""
    total = _left_sum(s.popularity_weight for s in services)
    _check_total_weight(total)
    return [s.popularity_weight / total for s in services]


def catalog_means(services: list[ServiceSpec]) -> tuple[float, float]:
    """Popularity-weighted mean cpu and memory demand of the catalog."""
    shares = popularity(services)
    cpu = _left_sum(p * s.cpu_cost for p, s in zip(shares, services))
    mem = _left_sum(p * s.mem_cost for p, s in zip(shares, services))
    return cpu, mem


@dataclass(frozen=True)
class JitterSpec:
    """A rate surge window: inside [start, start+duration) the Poisson rate
    becomes rate_multiplier x the configured base rate."""

    start_ms: float
    duration_ms: float
    rate_multiplier: float

    def __post_init__(self):
        if not _non_negative(self.start_ms):
            raise ValueError("jitter start must be non-negative and finite")
        if not _positive(self.duration_ms):
            raise ValueError("jitter duration must be positive and finite")
        if not _positive(self.rate_multiplier):
            raise ValueError("jitter rate multiplier must be positive and finite")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms


def _validate_jitters(jitters: list[JitterSpec]) -> list[JitterSpec]:
    ordered = sorted(jitters, key=lambda j: j.start_ms)
    for a, b in zip(ordered, ordered[1:]):
        if b.start_ms < a.end_ms:
            raise ValueError(
                f"jitter windows overlap: [{a.start_ms}, {a.end_ms}) and "
                f"[{b.start_ms}, {b.end_ms}) ms"
            )
    return ordered


@dataclass
class ArrivalEvent:
    """One external request arrival produced by the stream."""

    time_s: float
    service_index: int
    origin: int


def _segment_boundaries(jitters: list[JitterSpec], horizon_s: float) -> list[tuple[float, float]]:
    """Piecewise-constant rate segments as (start_s, multiplier)."""
    segs: list[tuple[float, float]] = [(0.0, 1.0)]
    for j in jitters:
        start = j.start_ms / 1000.0
        end = j.end_ms / 1000.0
        if start >= horizon_s:
            continue
        segs.append((start, j.rate_multiplier))
        if end < horizon_s:
            segs.append((end, 1.0))
    segs.sort(key=lambda t: t[0])
    return segs


def _iter_arrival_tuples(
    rate_per_s: float,
    horizon_s: float,
    seed,
    jitters: list[JitterSpec] | None = None,
    services: list[ServiceSpec] | None = None,
    access_points: list[int] | None = None,
):
    """Yields raw (time_s, service_index, origin) tuples; shared core of
    ``poisson_stream`` and the simulator's hot loop. Every argument is
    checked before the first tuple is drawn."""
    if not _positive(horizon_s):
        raise ValueError("horizon must be positive and finite")
    jitters = _validate_jitters(list(jitters or []))
    segs = _segment_boundaries(jitters, horizon_s)
    # An infinite rate draws zero gaps forever; finite factors can overflow.
    if not all(_positive(rate_per_s * mult) for _, mult in segs):
        raise ValueError("arrival rate must be positive and finite in every rate segment")

    rng = random.Random(f"{seed}|arrivals")
    uniform = rng.random
    getrandbits = rng.getrandbits

    # A service is picked as the first whose cumulative weight exceeds
    # u * total_w, the count of edges at or below it. The last edge is inf
    # so that the pick is clamped to the last index: for a subnormal total
    # u * total_w can round up to total_w and pass every finite edge.
    cum: list[float] = []
    total_w = 0.0
    if services is not None:
        for s in services:
            total_w += s.popularity_weight
            cum.append(total_w)
        _check_total_weight(total_w)
        cum[-1] = math.inf
    if access_points is not None and not access_points:
        raise ValueError("access point list must not be empty")
    n_ap = len(access_points) if access_points is not None else 0
    k_ap = n_ap.bit_length()

    t = 0.0
    origin = 0
    seg_i = 0
    last_seg = len(segs) - 1
    # The current segment's rate, and where the next segment starts.
    rate = rate_per_s * segs[0][1]
    seg_end = segs[1][0] if last_seg else math.inf
    svc = 0
    while True:
        # The exponential gap is memoryless, so on crossing a rate boundary
        # the residual wait can be redrawn at the new rate without bias.
        # The gap is ``expovariate(rate)`` written out: -log(1 - u) / rate.
        t -= log(1.0 - uniform()) / rate
        # The last segment ends at inf, which an infinite gap reaches.
        while t >= seg_end and seg_i < last_seg:
            seg_i += 1
            rate = rate_per_s * segs[seg_i][1]
            t = seg_end - log(1.0 - uniform()) / rate
            seg_end = segs[seg_i + 1][0] if seg_i < last_seg else math.inf
        if t >= horizon_s:
            return
        if cum:
            svc = bisect_right(cum, uniform() * total_w)
        if n_ap:
            r = getrandbits(k_ap)
            while r >= n_ap:
                r = getrandbits(k_ap)
            origin = access_points[r]
        yield (t, svc, origin)


def poisson_stream(
    rate_per_s: float,
    horizon_s: float,
    seed,
    jitters: list[JitterSpec] | None = None,
    services: list[ServiceSpec] | None = None,
    access_points: list[int] | None = None,
) -> list[ArrivalEvent]:
    """Materialized arrival list over [0, horizon).

    Same seed and arguments always reproduce the identical list; jitter
    windows multiply the base rate while active and must not overlap.
    """
    return [
        ArrivalEvent(t, svc, origin)
        for t, svc, origin in _iter_arrival_tuples(
            rate_per_s, horizon_s, seed, jitters, services, access_points
        )
    ]


__all__ = [
    "ARMA_WEIGHT",
    "ArrivalEvent",
    "EstimatorState",
    "JitterSpec",
    "ServiceSpec",
    "catalog_means",
    "estimator_backend",
    "execution_probability",
    "expected_queue_length",
    "mean_arrival_rate",
    "new_estimator",
    "poisson_stream",
    "popularity",
    "record_arrival",
    "record_completion",
]
