"""offloadsim benchmark: one workload per run, closed loop, one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-overload --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops back to back for about ``--seconds`` seconds (see
MIN_SAMPLES) and reports the end-to-end metrics. Every timing is wall time
normalized by a host-speed yardstick measured around it (see
``hostspeed.py``), so slow spells of a shared host do not show as program
changes. ``--trace 1`` runs a fixed number of workload
cycles, each op untraced and then traced, and reports the per-layer metrics
plus the tracing overhead. Every op's output is checked against the golden
digest recorded in ``golden.json``; a missing program, a raised error, a
non-zero exit or a different digest counts as a failed op.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment stamp, sample
counts, tail percentiles, failures) goes to ``.bench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: Set-up (interpreter start, import, input generation) is repeated this
#: many times per run and reported as the median.
SETUP_REPEATS = 7

#: A timed run goes on past its deadline until every op kind has
#: MIN_SAMPLES, so that at least 10 lie beyond the p75 tail, but it stops at
#: HARD_STOP times the deadline whatever the count.
MIN_SAMPLES = 40
HARD_STOP = 1.75


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not (SRC / "offloadsim" / "__init__.py").is_file():
    _fail(f"program sources not found under {SRC}")
sys.path.insert(1, str(SRC))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

from offloadsim import workload as workload_mod  # noqa: E402


def stamp(args) -> dict:
    """Where and on what a result was measured."""
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "offloadsim").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "estimator_backend": workload_mod.estimator_backend(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def time_setup(workload, seed: int, workdir: Path):
    """SETUP_REPEATS normalized samples of: a fresh interpreter importing
    the program, plus generating every input of the run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    inputs = None
    ref = hostspeed.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import offloadsim.cli"], env=env, cwd=ROOT, check=True
        )
        if workdir.exists():
            shutil.rmtree(workdir)
        inputs = workloads.generate_inputs(workload, seed, workdir)
        elapsed = time.perf_counter() - t0
        ref_after = hostspeed.measure()
        samples.append(elapsed * hostspeed.scale(ref, ref_after))
        ref = ref_after
    return inputs, samples


class Run:
    """Per-kind timings, arrivals and failures of the ops executed.

    ``times`` holds yardstick-normalized seconds, ``wall`` the raw wall
    seconds; the yardstick runs after every op and serves as the "after" of
    one op and the "before" of the next.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.refs = [hostspeed.measure()]
        self.times = {k: [] for k in workloads.KINDS}
        self.wall = {k: [] for k in workloads.KINDS}
        self.per_kind = dict.fromkeys(workloads.KINDS, 0)
        self.arrivals = {k: [] for k in workloads.SIM_KINDS}
        self.attempted = 0
        self.failures: list[dict] = []

    def do(self, op, inputs) -> float:
        outcome = workloads.execute(op, inputs)
        ref_after = hostspeed.measure()
        normalized = outcome.elapsed_s * hostspeed.scale(self.refs[-1], ref_after)
        self.refs.append(ref_after)
        self.attempted += 1
        self.per_kind[op.kind] += 1
        reason = workloads.check(op, outcome, self.golden)
        if reason is not None:
            self.failures.append({"op": op.key, "reason": reason})
            return outcome.elapsed_s
        self.times[op.kind].append(normalized)
        self.wall[op.kind].append(outcome.elapsed_s)
        if op.kind in workloads.SIM_KINDS:
            self.arrivals[op.kind].append(outcome.arrivals)
        return outcome.elapsed_s


def run_timed(workload, seed: int, seconds: float, inputs, golden: dict) -> Run:
    run = Run(golden)
    ops = workloads.schedule(workload, seed)
    start = time.perf_counter()
    deadline, hard_stop = start + seconds, start + HARD_STOP * seconds
    while True:
        now = time.perf_counter()
        if now >= deadline and (min(run.per_kind.values()) >= MIN_SAMPLES or now >= hard_stop):
            break
        run.do(next(ops), inputs)
    return run


def sim_req_per_s(run: Run) -> float | None:
    """Simulated external requests per second of simulator op time, for a
    typical sweep over the strategies: the sum over strategies of the
    median arrivals per op, over the sum of the median op times. Medians
    keep one slow op from moving it."""
    kinds = [k for k in workloads.SIM_KINDS if run.times[k]]
    if not kinds:
        return None
    arrivals = sum(statistics.median(run.arrivals[k]) for k in kinds)
    return arrivals / sum(statistics.median(run.times[k]) for k in kinds)


def end_to_end(run: Run, setup_samples: list[float]) -> tuple[dict, dict]:
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "sim_req_per_s": (sim_req_per_s(run), "1/s"),
    }
    detail = {}
    for kind in workloads.KINDS:
        samples = run.times[kind]
        if not samples:
            metrics[f"{kind}_ms.p50"] = (None, "ms")
            metrics[f"{kind}_ms.tail"] = (None, "ms")
            detail[kind] = {"n": 0}
            continue
        summary = stats.summarize([t * 1000.0 for t in samples])
        metrics[f"{kind}_ms.p50"] = (summary["p50"], "ms")
        metrics[f"{kind}_ms.tail"] = (summary["tail"], "ms")
        detail[kind] = {
            "n": summary["n"],
            "beyond_tail": summary["beyond_tail"],
            "wall_ms.p50": statistics.median(run.wall[kind]) * 1000.0,
        }
    return metrics, detail


def run_traced(workload, seed: int, inputs, golden: dict):
    """A fixed op list, each op run untraced and then traced; per-layer
    metrics. Running the pair back to back keeps host speed swings out of
    the overhead figure."""
    ops = workloads.schedule(workload, seed)
    op_list = [next(ops) for _ in range(workload.trace_cycles * len(workload.cycle))]
    compiled = _compiled_core()
    estimator_log = {} if compiled is not None else None
    tracer = tracing.Tracer()
    plain, traced = Run(golden), Run(golden)
    untraced_s = traced_s = 0.0
    for op in op_list:
        untraced_s += plain.do(op, inputs)
        tracing.install(tracer, estimator_log)
        try:
            traced_s += traced.do(op, inputs)
        finally:
            tracer.restore()

    values = tracer.layer_metrics()
    values["trace.op_s"] = traced_s
    values["trace.untraced_op_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.self_sum_s"] = tracer.self_sum()
    units = tracing.metric_units()
    metrics = {name: (values[name], units[name]) for name in units}

    extra = {"spans": tracer.spans}
    if compiled is not None:
        from offloadsim._estimator_py import EstimatorCore as PureCore

        extra["estimator_columns"] = tracing.replay_estimators(
            estimator_log, {"pure-python": PureCore, "compiled": compiled}
        )
    return plain, traced, metrics, extra


def _compiled_core():
    try:
        from offloadsim._estimator_cy import EstimatorCore
    except ImportError:
        return None
    return EstimatorCore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="offloadsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = stamp(args)
    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    workdir = OUT / f"work-{os.getpid()}"
    try:
        inputs, setup_samples = time_setup(workload, args.seed, workdir)
        if args.trace:
            plain, run, metrics, extra = run_traced(workload, args.seed, inputs, golden)
            attempted = plain.attempted + run.attempted
            failures = plain.failures + run.failures
            detail = {}
        else:
            run = run_timed(workload, args.seed, args.seconds, inputs, golden)
            metrics, detail = end_to_end(run, setup_samples)
            attempted, failures, extra = run.attempted, run.failures, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not failures and all(v is not None for v, _ in metrics.values())
    record = {
        "stamp": env,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": detail,
        "setup_samples_s": setup_samples,
        "yardstick_ms.p50": statistics.median(run.refs) * 1000.0,
        "failures": failures[:50],
        **{k: v for k, v in extra.items() if k != "spans"},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in extra:
        spans = [
            {"id": sid, "parent": parent, "name": name, "start_s": t0, "end_s": t1}
            for sid, parent, name, t0, t1 in extra["spans"]
        ]
        (OUT / f"spans_{tag}.json").write_text(json.dumps(spans) + "\n")

    for failure in failures[:10]:
        sys.stderr.write(f"failed op {failure['op']}: {failure['reason']}\n")
    print(json.dumps({"stamp": env, "samples": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
