"""Estimator core: the per-node arrival/service statistics.

Keeps the last k arrival timestamps in one circular buffer, filled by
appending until it holds k of them, and the current completion window as
three running sums, and derives, in O(1) per event:

* the windowed mean arrival rate (k-1 intervals over the buffer span),
* the smoothed historical rate and its positive increment (burst detector),
* the smoothed service rate and mean per-request cpu/memory demand,
* the admission probability q used by the proactive strategy.

An estimator knows its node's cpu and memory capacities, so the headroom
factor of q changes only where the mean demands do, at the completion
window's fold, and ``record_arrival`` returns q: a proactive arrival costs
one call. It works on locals and inlines its helpers; every float operation
and its order is part of the simulator's byte-identical output.
``execution_probability`` gives the same q for any capacities.
"""

import math

NAN = float("nan")
INF = float("inf")

ARMA_WEIGHT = 0.5


def _headroom(cpu_capacity: float, mem_capacity: float, cpu_avg: float, mem_avg: float) -> float:
    """The smaller of the cpu and memory headroom ratios of q."""
    headroom = cpu_capacity / (cpu_capacity + cpu_avg)
    mem_headroom = mem_capacity / (mem_capacity + mem_avg)
    if mem_headroom < headroom:
        headroom = mem_headroom
    return headroom


class EstimatorCore:
    """Windowed statistics for one node with the given capacities.

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
        self.last_arrival = NAN
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
            lambda_hat = (valid - 1) / s if s > 0.0 else INF
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

    def mean_arrival_rate(self) -> float:
        if self.arrival_count < 2:
            raise ValueError("need at least two arrivals to estimate a rate")
        return self.lambda_hat

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
