"""Request workload model and per-node arrival/service estimation.

Two halves live here:

* ``EstimatorState`` plus the functional wrappers (``record_arrival``,
  ``mean_arrival_rate``, ``record_completion``, ``execution_probability``,
  ``expected_queue_length``). The state class is the pure-Python
  ``EstimatorCore`` from ``_estimator_py``; the simulator calls its
  ``record_arrival`` method, which also returns q for the node's own
  capacities.

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
from dataclasses import dataclass, field
from math import log

from ._estimator_py import ARMA_WEIGHT
from ._estimator_py import EstimatorCore as EstimatorState
from .partition import _left_sum, _non_negative, _positive


def estimator_backend() -> str:
    """Name of the estimator implementation, recorded by benchmarks. There
    is one, in pure Python."""
    return "pure-python"


def new_estimator(
    k: int = 128, cpu_capacity: float = 1.0, mem_capacity: float = 1.0
) -> EstimatorState:
    """Fresh estimator with a window of k arrivals and k completions (k >= 2)
    for a node of the given (positive) capacities, for which its
    ``record_arrival`` method returns q."""
    return EstimatorState(k, cpu_capacity, mem_capacity)


def record_arrival(state: EstimatorState, timestamp: float) -> EstimatorState:
    """Push one arrival timestamp (seconds, non-decreasing) and refresh the
    rate estimates. Returns the same (mutated) state for chaining."""
    state.record_arrival(timestamp)
    return state


def record_completion(
    state: EstimatorState, exec_time: float, cpu_cost: float, mem_cost: float
) -> EstimatorState:
    """Push one completed execution (duration seconds, resource demands)."""
    state.record_completion(exec_time, cpu_cost, mem_cost)
    return state


def mean_arrival_rate(state: EstimatorState) -> float:
    """Windowed mean rate: (valid-1) intervals over the buffer span.

    Raises ValueError until two arrivals have been seen; identical
    timestamps across the whole window yield inf.
    """
    return state.mean_arrival_rate()


def execution_probability(
    state: EstimatorState, cpu_capacity: float, mem_capacity: float
) -> float:
    """Admission probability q in [0, 1]; 1.0 while the state is cold."""
    return state.execution_probability(cpu_capacity, mem_capacity)


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
    """Yields raw (time_s, service_index, origin) tuples; shared core for
    the public stream API and the simulator's hot loop."""
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


def iter_poisson_arrivals(
    rate_per_s: float,
    horizon_s: float,
    seed,
    jitters: list[JitterSpec] | None = None,
    services: list[ServiceSpec] | None = None,
    access_points: list[int] | None = None,
):
    """Lazy generator behind ``poisson_stream`` (same arguments)."""
    for t, svc, origin in _iter_arrival_tuples(
        rate_per_s, horizon_s, seed, jitters, services, access_points
    ):
        yield ArrivalEvent(t, svc, origin)


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
    return list(
        iter_poisson_arrivals(rate_per_s, horizon_s, seed, jitters, services, access_points)
    )


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
    "iter_poisson_arrivals",
    "mean_arrival_rate",
    "new_estimator",
    "poisson_stream",
    "popularity",
    "record_arrival",
    "record_completion",
]
