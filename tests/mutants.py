"""Mutants the tests must kill: single-site text substitutions in the library.

Each entry names a file, a text that occurs in it exactly once, the text
that replaces it, and the test files expected to kill the result. For each
mutant the runner copies the checkout (without ``.git`` and caches) to a
temporary directory outside it, applies the substitution there, and runs
the listed files with ``-x``. Only if they pass does it run the whole
suite. A mutant that the whole suite lets pass survives, and any survivor
fails the runner. So does a mutant that only the whole suite kills: that
run has no unmutated baseline, and the entry's killers need mending.
Before the first mutant it runs every listed file on the unmutated copy,
since a failure there would pass for a kill.

An equivalent mutant, one that no input can tell apart from the library,
stays in the list with its reason; the runner checks only that its text is
still there.

Run from the repository root, with pytest and hypothesis installed::

    python tests/mutants.py

It exits 1 if a mutant survives or is killed by the whole suite only, the
unmutated copy fails, or an entry's text is missing or not unique. Property tests run with a fixed hypothesis
seed, so a kill repeats.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", "*.egg-info", "build"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]  # test files, relative to the repository root
    equivalent: str | None = None  # why no input can kill it


MUTANTS = [
    Mutant(
        "default-ttl-lower-bound",
        "src/offloadsim/simulator.py",
        "ttl = cfg.ttl if ttl_exact else (2 if len(topo.nodes) > 1 else 0)",
        "ttl = cfg.ttl if ttl_exact else (3 if len(topo.nodes) > 1 else 0)",
        ("tests/test_golden_runs.py",),
    ),
    Mutant(
        "aggregate-pstdev",
        "src/offloadsim/simulator.py",
        '"std": statistics.stdev(values)',
        '"std": statistics.pstdev(values)',
        ("tests/test_simulator.py",),
    ),
    Mutant(
        "threshold-at-or-below",
        "src/offloadsim/simulator.py",
        "return EXECUTE if node_load < capacity_threshold else overflow",
        "return EXECUTE if node_load <= capacity_threshold else overflow",
        ("tests/test_control.py",),
    ),
    Mutant(
        "feed-delivers-late",
        "src/offloadsim/simulator.py",
        "def deliver(self, now: float) -> tuple:\n"
        "        in_flight = self.in_flight\n"
        "        while in_flight and in_flight[0][0] <= now:",
        "def deliver(self, now: float) -> tuple:\n"
        "        in_flight = self.in_flight\n"
        "        while in_flight and in_flight[0][0] < now:",
        ("tests/test_control.py",),
    ),
    Mutant(
        "latency-one-way-delay",
        "src/offloadsim/simulator.py",
        "lat_sum += (t - req[4]) + 2.0 * req[2]",
        "lat_sum += (t - req[4]) + req[2]",
        ("tests/test_golden_runs.py",),
    ),
    Mutant(
        "gossip-tie-goes-to-the-heartbeat",
        "src/offloadsim/simulator.py",
        "if h > p or (h == p and h + beats.delay == h):",
        "if h >= p or (h == p and h + beats.delay == h):",
        ("tests/test_control.py",),
    ),
    Mutant(
        "lightest-tie-goes-to-the-higher-id",
        "src/offloadsim/simulator.py",
        "if best_id is None or load < best_load:",
        "if best_id is None or load <= best_load:",
        ("tests/test_control.py",),
    ),
    Mutant(
        "derived-feed-keeps-the-record-delay",
        "src/offloadsim/simulator.py",
        "(pub[0] + delay, pub)",
        "(pub[0] + self.delay, pub)",
        ("tests/test_control.py",),
    ),
    Mutant(
        "passive-drops-before-an-executing-server",
        "src/offloadsim/simulator.py",
        "j if is_relay[i] or j != server or server_executes else DROP",
        "j if is_relay[i] or j != server else DROP",
        ("tests/test_control.py",),
    ),
    Mutant(
        "forward-spends-two-hops",
        "src/offloadsim/simulator.py",
        "req[1] += 1",
        "req[1] += 2",
        ("tests/test_golden_runs.py",),
    ),
    Mutant(
        "ttl-spent-one-hop-late",
        "src/offloadsim/simulator.py",
        "if req[1] >= ttl and",
        "if req[1] > ttl and",
        ("tests/test_control.py",),
    ),
    Mutant(
        "loop-integral-ignores-warmup",
        "src/offloadsim/simulator.py",
        "hi = t if t < horizon else horizon\n"
        "            lo = lt if lt > warmup else warmup",
        "hi = t if t < horizon else horizon\n"
        "            lo = lt",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "origination-at-warmup-not-counted",
        "src/offloadsim/simulator.py",
        "req = [nxt[1], 0, 0.0, t >= warmup, 0.0]",
        "req = [nxt[1], 0, 0.0, t > warmup, 0.0]",
        ("tests/test_properties.py",),
    ),
    Mutant(
        "sample-at-horizon-skipped",
        "src/offloadsim/simulator.py",
        "if t_next <= horizon + 1e-12:",
        "if t_next < horizon + 1e-12:",
        ("tests/test_simulator.py",),
    ),
    Mutant(
        "snapshot-aliases-the-live-loads",
        "src/offloadsim/simulator.py",
        "snap = loads.copy()",
        "snap = loads",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "heartbeats-need-three-choices",
        "src/offloadsim/simulator.py",
        "if max(choices) >= 2:",
        "if max(choices) >= 3:",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "route-without-the-hop-tie-break",
        "src/offloadsim/topology.py",
        "if dv < dist[v] or (dv == dist[v] and h < hops[v]):",
        "if dv < dist[v]:",
        ("tests/test_topology.py",),
    ),
    Mutant(
        "burst-increment-keeps-nan",
        "src/offloadsim/workload.py",
        "if not d > 0.0:",
        "if d < 0.0:",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "full-window-evicts-wrong-slot",
        "src/offloadsim/workload.py",
        "(buf[nxt] - buf[idx])",
        "(buf[idx - 1] - buf[idx])",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "full-window-boundary-by-one",
        "src/offloadsim/workload.py",
        "if count >= k:",
        "if count > k:",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "full-window-skips-arma-fold",
        "src/offloadsim/workload.py",
        "self.lambda_prev = ARMA_WEIGHT * (self.lambda_prev + lambda_hat)",
        "pass",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "full-window-keeps-nan-stamp",
        "src/offloadsim/workload.py",
        "if not timestamp >= self.last_arrival or timestamp == _INF:",
        "if timestamp < self.last_arrival or timestamp == _INF:",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "completion-keeps-nan-exec-time",
        "src/offloadsim/workload.py",
        "if not 0.0 < exec_time < _INF:",
        "if exec_time <= 0.0 or exec_time == _INF:",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "completion-accepts-inf-exec-time",
        "src/offloadsim/workload.py",
        "if not 0.0 < exec_time < _INF:",
        "if not 0.0 < exec_time:",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "completion-accepts-inf-cost",
        "src/offloadsim/workload.py",
        "0.0 <= cpu_cost < _INF and",
        "0.0 <= cpu_cost and",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "completion-guard-skips-the-sum",
        "src/offloadsim/workload.py",
        "            and exec_time + cpu_cost + mem_cost < _INF\n",
        "",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "divisive-pass-yields-after-every-cut",
        "src/offloadsim/partition.py",
        "if len(parts) > 1:",
        "if len(parts) >= 1:",
        ("tests/test_partition.py",),
    ),
    Mutant(
        "route-takes-an-equal-hop-neighbour",
        "src/offloadsim/topology.py",
        "(dist[nb] == d and hops[nb] < h)",
        "(dist[nb] == d and hops[nb] <= h)",
        ("tests/test_topology.py",),
    ),
    Mutant(
        "route-ties-to-the-last-candidate",
        "src/offloadsim/topology.py",
        "if best is None or cand < best:",
        "if best is None or cand <= best:",
        ("tests/test_topology.py",),
        equivalent=(
            "candidates are (delay, neighbour id) pairs and a node's neighbour ids are"
            " distinct, so no two candidates are equal"
        ),
    ),
    Mutant(
        "time-gate-passes-a-tie",
        "src/offloadsim/decision.py",
        "            remote += f * _transfer_time(m, cond)\n    return local > remote",
        "            remote += f * _transfer_time(m, cond)\n    return local >= remote",
        ("tests/test_decision.py",),
    ),
    Mutant(
        "energy-gate-passes-a-tie",
        "src/offloadsim/decision.py",
        "        return True\n    return local > remote",
        "        return True\n    return local >= remote",
        ("tests/test_decision.py",),
    ),
    Mutant(
        "writer-skips-the-cut",
        "src/offloadsim/emit.py",
        "            fh.truncate()",
        "            pass",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "shared-key-refuses-exact-depth",
        "src/offloadsim/appstats.py",
        "if len(segments) < depth or",
        "if len(segments) <= depth or",
        ("tests/test_appstats.py",),
    ),
    Mutant(
        "shared-key-needs-three-holders",
        "src/offloadsim/appstats.py",
        "len(h) >= 2",
        "len(h) > 2",
        ("tests/test_appstats.py",),
    ),
    Mutant(
        "savings-keeps-the-smallest-copy",
        "src/offloadsim/appstats.py",
        "size, count = max(zip(",
        "size, count = min(zip(",
        ("tests/test_appstats.py",),
    ),
    Mutant(
        "modularity-drops-the-half",
        "src/offloadsim/partition.py",
        "(w_tot / (2.0 * total)) ** 2",
        "(w_tot / total) ** 2",
        ("tests/test_partition.py",),
    ),
    Mutant(
        "service-pick-unclamped",
        "src/offloadsim/workload.py",
        "cum[-1] = math.inf",
        "pass",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "surge-outlasts-its-window",
        "src/offloadsim/workload.py",
        "segs.append((end, 1.0))",
        "segs.append((end, j.rate_multiplier))",
        ("tests/test_workload.py",),
    ),
    Mutant(
        "private-count-bound",
        "src/offloadsim/appstats.py",
        "while r >= 56:",
        "while r > 56:",
        ("tests/test_appstats.py",),
    ),
    Mutant(
        "obfuscated-first-letter",
        "src/offloadsim/appstats.py",
        "seg1 = _LETTERS[i % 16]",
        "seg1 = _LETTERS[(i + 1) % 16]",
        ("tests/test_appstats.py",),
    ),
    Mutant(
        "inclusion-at-or-below",
        "src/offloadsim/appstats.py",
        "if uniform() < _INCLUSION_PROB:",
        "if uniform() <= _INCLUSION_PROB:",
        ("tests/test_appstats.py",),
        equivalent=(
            "the two differ only when random() returns exactly 0.35, one draw in 2**53,"
            " and no seed that does so is known"
        ),
    ),
]


def _pytest(copy: Path, files: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(copy / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *files]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)


def _last_line(run: subprocess.CompletedProcess) -> str:
    lines = (run.stdout + run.stderr).strip().splitlines()
    return lines[-1] if lines else ""


def _failures(run: subprocess.CompletedProcess) -> str:
    """The short summary's FAILED and ERROR lines, else the last line."""
    lines = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "; ".join(lines) or _last_line(run)


def _substituted(m: Mutant) -> str:
    text = (ROOT / m.path).read_text()
    count = text.count(m.old)
    if count != 1:
        raise SystemExit(f"{m.name}: {m.path} holds its text {count} times, not once")
    return text.replace(m.old, m.new)


def run(mutants: list[Mutant]) -> int:
    texts = {m.name: _substituted(m) for m in mutants}
    live = [m for m in mutants if m.equivalent is None]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="offloadsim-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        killers = sorted({f for m in live for f in m.killers})
        if killers:
            base = _pytest(copy, killers)
            if base.returncode != 0:
                print(f"unmutated copy fails {' '.join(killers)}: {_last_line(base)}")
                return 1
        for m in mutants:
            if m.equivalent is not None:
                print(f"{m.name}: equivalent, {m.equivalent}")
                continue
            target = copy / m.path
            original = target.read_text()
            target.write_text(texts[m.name])
            start = time.perf_counter()
            try:
                listed = _pytest(copy, list(m.killers))
                full = _pytest(copy, ["tests"]) if listed.returncode == 0 else None
            finally:
                target.write_text(original)
            took = time.perf_counter() - start
            if listed.returncode == 1:
                print(f"{m.name}: killed by {' '.join(m.killers)} in {took:.1f} s")
            elif listed.returncode != 0:
                failed += 1
                print(f"{m.name}: error in {' '.join(m.killers)}: {_last_line(listed)}")
            elif full.returncode == 1:
                failed += 1
                print(f"{m.name}: killed by the whole suite only, in {took:.1f} s;"
                      f" list its killer among the entry's files: {_failures(full)}")
            else:
                failed += 1
                state = "SURVIVED" if full.returncode == 0 else "error"
                print(f"{m.name}: {state} in {took:.1f} s: {_last_line(full)}")
    return 1 if failed else 0


def main() -> int:
    return run(MUTANTS)


if __name__ == "__main__":
    sys.exit(main())
