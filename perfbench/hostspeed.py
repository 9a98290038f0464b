"""Host-speed yardstick: fixed pure-Python loops timed next to every op.

On a shared host the same op can run up to twice as slow for seconds or
minutes at a time, and a whole run can land in a slow spell. The process is
not descheduled during such a spell: its CPU time grows exactly as its wall
time does, so neither CPU time nor longer runs take the swing out.

What does take it out is timing a fixed piece of work right next to each
op. The op's wall time is divided by the mean of the yardstick times
measured just before and just after it, and multiplied by ``NOMINAL_S``.
The result reads as milliseconds on a host where the yardstick takes
``NOMINAL_S``; a change to the program moves it, a slow spell of the host
mostly does not.

Slow spells are not all alike, so the yardstick is the geometric mean of
two loops that feel them differently. The compute loop (heap traffic, dict
counting, float math, string joins and splits on a small working set)
slows most when the core itself is slower. The memory loop reads random
items of a 64K-element list of ints (about 2.5 MB, past the 2 MB L2 cache
and into the shared L3) after a 4 MB pass has evicted it from L2, so it
slows most when neighbours crowd the shared caches, whatever the op before
it left behind. Against interleaved ops on a loaded 2-core host, the
compute loop alone overstated some slow spells (op time grew as its time
to the power 0.6 to 0.9) and the memory loop alone understated others. With
their geometric mean, the medians of each op kind over 15 s windows spread
by 3% or less (IQR over median) in a four-minute run whose yardstick swung
by 1.7x.

Neither loop touches the program. Changing a loop, its sizes or
``NOMINAL_S`` rescales every timing metric, so results from before and
after such a change do not compare.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

#: Iterations of each loop (each takes about 2 ms on an unloaded host).
COMPUTE_ITERATIONS = 2500
MEMORY_READS = 3500

#: Yardstick time that a normalized timing is scaled to: about what it
#: takes between ops on an unloaded 2-core host running Python 3.11.
NOMINAL_S = 0.0019

_TABLE = list(range(1 << 16))
_FLUSH = bytearray(4 << 20)


def _compute(n: int) -> float:
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    words: list[str] = []
    acc = 0.0
    for i in range(n):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        acc += math.sqrt(x * i)
        if i % 16 == 0:
            words.append(f"app.m{key}.core")
    return acc + len(".".join(words).split(".")) + len(counts)


def _memory(n: int) -> int:
    rng = random.Random(4)
    size = len(_TABLE)
    acc = 0
    for _ in range(n):
        acc += _TABLE[rng.randrange(size)]
    return acc


def measure() -> float:
    """Yardstick seconds: the geometric mean of the two loops' wall times.
    The collector is paused so the program's live objects do not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _compute(COMPUTE_ITERATIONS)
        compute_s = time.perf_counter() - t0
        _FLUSH.count(1)
        t0 = time.perf_counter()
        _memory(MEMORY_READS)
        memory_s = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return math.sqrt(compute_s * memory_s)


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two yardstick
    measurements into yardstick-normalized time."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
