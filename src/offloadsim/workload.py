"""Request workload model and per-node arrival/service estimation.

* ``EstimatorState``: one node's windowed arrival rate and its effective
  rate, which adds the rate's positive increment over the historical rate
  (the burst detector; the increment itself is not kept), the smoothed
  service rate and mean cpu/memory demand, and the proactive strategy's
  admission probability q, each in O(1) per event. ``record_arrival`` has a
  fill path, which appends until the window holds k stamps and returns
  q = 1 before the arrival that fills it, and a full-window path, which
  overwrites the oldest stamp, finds the next slot once by
  compare-and-wrap and runs no fill-phase test; every slot gets the bits
  of a plain one-path transcription. A NaN or infinite timestamp, one
  below the last, an execution time that is not positive and a negative
  or NaN cost raise ``ValueError`` and change nothing.

* The request source: a service catalog with popularity weights and
  ``_iter_arrival_tuples``, which samples (possibly jittered) Poisson
  arrival times, service picks, and origin access points from a seeded
  RNG for the simulator's loop. The origin draw is ``randrange``'s own,
  inlined: ``getrandbits`` of the count's bit length, redrawn until below
  the access point count.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import log

from ._inputs import _invertible, _non_negative, _positive

ARMA_WEIGHT = 0.5
_INF = math.inf


def _headroom(cpu_capacity: float, mem_capacity: float, cpu_avg: float, mem_avg: float) -> float:
    """The smaller of the cpu and memory headroom ratios of q."""
    headroom = cpu_capacity / (cpu_capacity + cpu_avg)
    mem_headroom = mem_capacity / (mem_capacity + mem_avg)
    if mem_headroom < headroom:
        headroom = mem_headroom
    return headroom


def _refused_timestamp(timestamp: float, last: float | None) -> ValueError:
    """The error for an arrival timestamp ``record_arrival`` refuses."""
    if not -_INF < timestamp < _INF:
        return ValueError(f"arrival timestamps must be finite, not {timestamp!r}")
    return ValueError(f"arrival timestamps must be non-decreasing ({timestamp!r} after {last!r})")


class EstimatorState:
    """Windowed statistics for one node with the given capacities: the last
    k arrival timestamps in one circular buffer, filled by appending until
    it holds k, and the current completion window as three running sums.
    The methods work on locals and inline their helpers; every float
    operation and its order is part of the simulator's byte-identical output.

    Not thread safe; one instance per simulated node. Timestamps are seconds
    and must be finite and non-decreasing per stream.
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
        "lambda_eff",
        "mu",
        "cpu_avg",
        "mem_avg",
        "cpu_capacity",
        "mem_capacity",
        "headroom",
    )

    def __init__(self, k: int = 128, cpu_capacity: float = 1.0, mem_capacity: float = 1.0):
        # A k that is not an int would run the ring index past the buffer.
        if isinstance(k, (int, float)) and k < 2:
            raise ValueError("buffer size k must be at least 2")
        if type(k) is not int:
            raise ValueError(f"buffer size k must be an int, not {k!r}")
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
        self.lambda_eff = 0.0
        self.mu = 0.0
        self.cpu_avg = 0.0
        self.mem_avg = 0.0
        self.cpu_capacity = cpu_capacity
        self.mem_capacity = mem_capacity
        self.headroom = _headroom(cpu_capacity, mem_capacity, 0.0, 0.0)

    def record_arrival(self, timestamp: float) -> float:
        """Push one arrival and return q for this node's capacities, the
        bits ``execution_probability(cpu_capacity, mem_capacity)`` gives.

        Raises ValueError, and changes nothing, for a timestamp that is not
        finite or is below the last one."""
        count = self.arrival_count
        k = self.k
        if count >= k:
            # Full window: the stamp in slot idx is the oldest and the next
            # slot holds the one after it. ``not >=`` refuses NaN too.
            if not timestamp >= self.last_arrival or timestamp == _INF:
                raise _refused_timestamp(timestamp, self.last_arrival)
            idx = self.arrival_index
            nxt = idx + 1
            if nxt == k:
                nxt = 0
            buf = self.buf_lambda
            # Evicting slot idx removes the interval between it and its
            # successor from the window sum.
            s = self.interval_sum = self.interval_sum + (
                timestamp - self.last_arrival - (buf[nxt] - buf[idx])
            )
            buf[idx] = timestamp
            self.last_arrival = timestamp
            self.arrival_count = count + 1
            self.arrival_index = nxt
            lambda_hat = self.lambda_hat = (k - 1) / s if s > 0.0 else _INF
            d = lambda_hat - self.lambda_prev
            if not d > 0.0:
                d = 0.0
            lambda_eff = self.lambda_eff = lambda_hat + d
            if not nxt:  # the buffer wraps: fold the rate into the history
                self.lambda_prev = ARMA_WEIGHT * (self.lambda_prev + lambda_hat)
        else:
            # Filling: the buffer grows to k stamps, and q is 1.0 until the
            # arrival that fills it. The historical rate is 0.0 until the
            # first wrap, so the burst increment is the whole rate.
            if count:
                last = self.last_arrival
                if not timestamp >= last or timestamp == _INF:
                    raise _refused_timestamp(timestamp, last)
                s = self.interval_sum = self.interval_sum + (timestamp - last)
            elif not -_INF < timestamp < _INF:
                raise _refused_timestamp(timestamp, None)
            self.buf_lambda.append(timestamp)
            self.last_arrival = timestamp
            count += 1
            self.arrival_count = count
            lambda_hat = self.lambda_hat
            if count >= 2:
                lambda_hat = self.lambda_hat = (count - 1) / s if s > 0.0 else _INF
            lambda_eff = self.lambda_eff = lambda_hat + lambda_hat
            if count < k:
                self.arrival_index = count
                return 1.0
            # The first wrap. No defined prior for the historical rate;
            # adopting the current estimate avoids a spurious burst signal
            # at warm-up.
            self.arrival_index = 0
            self.lambda_prev = lambda_hat

        # ``execution_probability`` for the node's own capacities, whose
        # check the constructor made.
        if not self.completion_wraps or lambda_eff <= 0.0:
            return 1.0
        q = self.headroom * (self.mu / lambda_eff)
        if q >= 1.0:
            return 1.0
        if q <= 0.0:
            return 0.0
        return q

    def record_completion(self, exec_time: float, cpu_cost: float, mem_cost: float) -> None:
        """Push one completion. Raises ValueError, and changes nothing, for
        an execution time that is not positive and finite or a cost that is
        not finite and non-negative, NaN among them."""
        # One test on the common path. The exact tests run only when it
        # fails, so finite values whose sum overflows still pass.
        if not (
            exec_time > 0.0 and cpu_cost >= 0.0 and mem_cost >= 0.0
            and exec_time + cpu_cost + mem_cost < _INF
        ):
            if not 0.0 < exec_time < _INF:
                raise ValueError("execution time must be positive and finite")
            if not (0.0 <= cpu_cost < _INF and 0.0 <= mem_cost < _INF):
                raise ValueError("resource costs must be finite and non-negative")
        # The window sums add left to right from 0.0, in completion order.
        self.sum_exec += exec_time
        self.sum_cpu += cpu_cost
        self.sum_mem += mem_cost
        idx = self.completion_index + 1
        if idx == self.k:  # window full: fold its means into the smoothed stats
            idx = 0
            k = self.k
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


@dataclass(frozen=True)
class ServiceSpec:
    """One entry of the service catalog offered by executor nodes."""

    name: str
    mean_exec_time_s: float
    cpu_cost: float = 1.0
    mem_cost: float = 0.0
    popularity_weight: float = 1.0

    def __post_init__(self):
        if not _invertible(self.mean_exec_time_s):
            raise ValueError(
                f"service {self.name!r}: mean_exec_time_s and its reciprocal must be"
                " positive and finite"
            )
        if not (_non_negative(self.cpu_cost) and _non_negative(self.mem_cost)):
            raise ValueError(
                f"service {self.name!r}: resource costs must be non-negative and finite"
            )
        if not _non_negative(self.popularity_weight):
            raise ValueError(
                f"service {self.name!r}: popularity_weight must be non-negative and finite"
            )


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


def _segment_boundaries(jitters: list[JitterSpec], horizon_s: float) -> list[tuple[float, float]]:
    """Piecewise-constant rate segments as (start_s, multiplier), in start
    order: ``jitters`` come sorted and apart from ``_validate_jitters``, and
    dividing by 1000 keeps their order."""
    segs: list[tuple[float, float]] = [(0.0, 1.0)]
    for j in jitters:
        start = j.start_ms / 1000.0
        end = j.end_ms / 1000.0
        if start >= horizon_s:
            continue
        segs.append((start, j.rate_multiplier))
        if end < horizon_s:
            segs.append((end, 1.0))
    return segs


def _arrival_inputs(rate_per_s, horizon_s, jitters, services, access_points):
    """The arrival stream's argument checks, shared with ``ScenarioConfig.validate``;
    returns the rate segments, the cumulative popularity weights and their total."""
    if not _positive(horizon_s):
        raise ValueError("horizon must be positive and finite")
    segs = _segment_boundaries(_validate_jitters(jitters), horizon_s)
    # An infinite rate draws zero gaps forever; finite factors can overflow.
    if not all(_positive(rate_per_s * mult) for _, mult in segs):
        raise ValueError("arrival rate must be positive and finite in every rate segment")
    # A service is picked as the first whose cumulative weight exceeds
    # u * total_w, the count of edges at or below it. The last edge is inf
    # so that the pick is clamped to the last index: for a subnormal total
    # u * total_w can round up to total_w and pass every finite edge.
    cum: list[float] = []
    total_w = 0.0
    for s in services:
        total_w += s.popularity_weight
        cum.append(total_w)
    if total_w <= 0.0:
        raise ValueError("popularity weights must not all be zero")
    if total_w == math.inf:
        raise ValueError("popularity weights must sum to a finite total")
    cum[-1] = math.inf
    if not access_points:
        raise ValueError("access point list must not be empty")
    return segs, cum, total_w


def _iter_arrival_tuples(
    rate_per_s: float,
    horizon_s: float,
    seed,
    jitters: list[JitterSpec],
    services: list[ServiceSpec],
    access_points: list[int],
):
    """Yields raw (time_s, service_index, origin) tuples for the simulator's
    loop. ``_arrival_inputs`` checks every argument before the first tuple
    is drawn, so an empty service or access point list is refused."""
    segs, cum, total_w = _arrival_inputs(rate_per_s, horizon_s, jitters, services, access_points)
    rng = random.Random(f"{seed}|arrivals")
    uniform = rng.random
    getrandbits = rng.getrandbits
    n_ap = len(access_points)
    k_ap = n_ap.bit_length()

    t = 0.0
    seg_i = 0
    last_seg = len(segs) - 1
    # The current segment's rate, and where the next segment starts.
    rate = rate_per_s * segs[0][1]
    seg_end = segs[1][0] if last_seg else math.inf
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
        svc = bisect_right(cum, uniform() * total_w)
        r = getrandbits(k_ap)
        while r >= n_ap:
            r = getrandbits(k_ap)
        yield (t, svc, access_points[r])


__all__ = [
    "ARMA_WEIGHT",
    "EstimatorState",
    "JitterSpec",
    "ServiceSpec",
    "estimator_backend",
    "new_estimator",
]
