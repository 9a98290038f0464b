"""Workload definitions, op schedules, and op execution with output digests.

Each workload is a fixed cycle of op templates that a run repeats, closed
loop, until its time is up. Every cycle holds all six op kinds, so every
end-to-end metric exists on every workload; what differs is the input shape
each kind gets and how much of the cycle it takes:

* ``sim-overload``: the ``overload-line`` preset at 8x load, run through
  ``simulator.run_scenario``. The per-event path (arrival generation,
  estimator, ``decide_*``, heap traffic) dominates; topology set-up is
  negligible and nothing is sampled or exported. ``none`` skips the
  estimator and gossip, so an estimator or proactive change should leave
  ``none_ms`` unmoved.
* ``sim-scalefree``: a lightly loaded scale-free network through ``cli
  simulate`` with CSV and JSON export. Per-run costs that grow with node
  count dominate (``hop_diameter``, routing, heartbeat fan-out, load
  sampling, export); per-request work is small.
* ``analysis``: ``partition``, ``decide`` and ``appstats`` through
  ``cli.dispatch`` on planted-community call graphs and a synthetic app
  corpus; the betweenness, Girvan-Newman and Louvain layers dominate.

The op kinds a workload does not stress ride along on small inputs
(4-module call graphs, 600-app corpora, the ``fig3`` preset) so that their
metrics exist without shifting the workload's load shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import FAMILIES

from offloadsim import cli, simulator

KINDS = ("none", "passive", "proactive", "partition", "decide", "appstats")
SIM_KINDS = ("none", "passive", "proactive")

#: decide link conditions: on ``good`` a planted module passes both gates;
#: on ``bad`` nothing beats local execution and selection ends local-only.
LINKS = {
    "good": ("5", "5e6", "4"),
    "bad": ("200", "1e5", "1"),
}


@dataclass(frozen=True)
class Template:
    """One slot of a workload cycle: op kind, input family, variant.

    Variants: a preset name for direct simulator ops, ``cli`` for
    simulate-through-the-CLI, ``plain``/``weighted`` for partition, a
    ``LINKS`` key for decide, the prefix depth for appstats.
    """

    kind: str
    family: str
    variant: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple[Template, ...]
    #: instances each family contributes to one run, chosen by the seed
    picks: dict
    #: full cycles the traced run executes (once untraced, once traced)
    trace_cycles: int


def _sim(preset: str, family: str = "overload") -> list[Template]:
    return [Template(k, family, preset) for k in SIM_KINDS]


_SMALL_ANALYSIS = [
    Template("partition", "graph-small", "plain"),
    Template("decide", "graph-small", "good"),
    Template("appstats", "corpus-small", "3"),
]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-overload",
            why="per-event hot path at 8x overload: arrivals, estimator, decide_*, heap",
            cycle=tuple(_sim("overload-line") + _SMALL_ANALYSIS),
            picks={"overload": 20, "graph-small": 12, "corpus-small": 8},
            trace_cycles=3,
        ),
        Workload(
            name="sim-scalefree",
            why="per-run costs that scale with node count: diameter, routing, fan-out, sampling, export",
            cycle=tuple(_sim("cli", "scalefree") + _SMALL_ANALYSIS),
            picks={"scalefree": 12, "graph-small": 12, "corpus-small": 8},
            trace_cycles=4,
        ),
        Workload(
            name="analysis",
            why="offline commands: betweenness, Girvan-Newman, Louvain, decision gates, corpus overlap",
            cycle=(
                Template("partition", "graph", "plain"),
                Template("decide", "graph", "good"),
                Template("appstats", "corpus", "3"),
                *_sim("fig3", "fig3"),
                Template("partition", "graph", "weighted"),
                Template("decide", "graph", "bad"),
                Template("appstats", "corpus", "3"),
                *_sim("fig3", "fig3"),
            ),
            picks={"graph": 12, "corpus": 8, "fig3": 16},
            trace_cycles=2,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    kind: str
    family: str
    variant: str
    instance: int

    @property
    def key(self) -> str:
        """Golden-digest key; independent of workload, seed and paths."""
        return f"{self.kind}|{self.family}|{self.variant}|{self.instance}"


def choose_instances(workload: Workload, seed: int) -> dict[str, list[int]]:
    """The seed's pick of instances per family, in the order a run uses them."""
    rng = random.Random(f"perfbench|{workload.name}|{seed}")
    return {
        fam: rng.sample(range(FAMILIES[fam].universe), count)
        for fam, count in sorted(workload.picks.items())
    }


def schedule(workload: Workload, seed: int):
    """Endless deterministic op stream: the cycle repeated, each family's
    chosen instances taken round-robin."""
    chosen = choose_instances(workload, seed)
    cursor = {fam: 0 for fam in chosen}
    while True:
        for tpl in workload.cycle:
            picks = chosen[tpl.family]
            inst = picks[cursor[tpl.family] % len(picks)]
            cursor[tpl.family] += 1
            yield Op(tpl.kind, tpl.family, tpl.variant, inst)


class Inputs:
    """Materialized inputs for a set of (family, instance) pairs."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.paths: dict[tuple[str, int], dict] = {}
        self.configs: dict[tuple[str, str, int], simulator.ScenarioConfig] = {}

    def add(self, family: str, instance: int) -> None:
        self.paths[(family, instance)] = FAMILIES[family].materialize(instance, self.workdir)

    def config(self, op: Op) -> simulator.ScenarioConfig:
        """Preset config for a direct simulator op, built once per input."""
        key = (op.variant, op.kind, op.instance)
        cfg = self.configs.get(key)
        if cfg is None:
            seed = self.paths[(op.family, op.instance)]["seed"]
            cfg = dataclasses.replace(simulator.PRESETS[op.variant](op.kind), seed=seed)
            self.configs[key] = cfg
        return cfg


def generate_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write every file and build every config the workload's run uses."""
    inputs = Inputs(workdir)
    chosen = choose_instances(workload, seed)
    for fam, instances in chosen.items():
        for inst in instances:
            inputs.add(fam, inst)
    for tpl in workload.cycle:
        if tpl.kind in SIM_KINDS and tpl.variant != "cli":
            for inst in chosen[tpl.family]:
                inputs.config(Op(tpl.kind, tpl.family, tpl.variant, inst))
    return inputs


def cli_argv(op: Op, paths: dict, out_dir: Path) -> list[str]:
    if op.kind in SIM_KINDS:
        return ["simulate", "--config", paths["config"], "--seed", str(paths["seed"]),
                "--strategy", op.kind, "--out", str(out_dir)]
    if op.kind == "partition":
        argv = ["partition", "--graph", paths["graph"], "--rules", paths["rules"]]
        return argv + (["--weighted"] if op.variant == "weighted" else [])
    if op.kind == "decide":
        rtt, bw, speedup = LINKS[op.variant]
        return ["decide", "--graph", paths["graph"], "--rules", paths["rules"],
                "--rtt-ms", rtt, "--bandwidth-bytes-per-s", bw, "--cpu-speedup", speedup]
    if op.kind == "appstats":
        return ["appstats", "--corpus", paths["corpus"], "--depth", op.variant]
    raise ValueError(f"unknown op kind {op.kind!r}")


def metrics_digest(metrics) -> str:
    """sha256 over every RunMetrics field (floats by exact repr)."""
    doc = json.dumps(dataclasses.asdict(metrics), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def cli_digest(exit_code: int, stdout: str, files: list[Path]) -> str:
    """sha256 over exit code, stdout and each written file (name and bytes)."""
    h = hashlib.sha256()
    h.update(f"exit={exit_code}\n".encode())
    h.update(stdout.encode())
    for path in sorted(files, key=lambda p: p.name):
        h.update(f"\n--{path.name}--\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One executed op: wall seconds of the public call, its output digest,
    and the simulated external requests it served (sim ops only)."""

    elapsed_s: float
    digest: str | None
    arrivals: int = 0
    error: str | None = None


def execute(op: Op, inputs: Inputs) -> Outcome:
    """Run one op; only the call into the program is timed."""
    try:
        if op.kind in SIM_KINDS and op.variant != "cli":
            cfg = inputs.config(op)
            t0 = time.perf_counter()
            metrics = simulator.run_scenario(cfg)
            elapsed = time.perf_counter() - t0
            return Outcome(elapsed, metrics_digest(metrics), metrics.gross_arrivals)
        out_dir = inputs.workdir / "out"
        argv = cli_argv(op, inputs.paths[(op.family, op.instance)], out_dir)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            outcome = cli.dispatch(argv)
            elapsed = time.perf_counter() - t0
        digest = cli_digest(outcome.exit_code, buf.getvalue(), outcome.artifacts)
        if outcome.exit_code != 0:
            return Outcome(elapsed, digest, error=f"exit code {outcome.exit_code}")
        arrivals = 0
        if op.kind in SIM_KINDS:
            summary = out_dir / "run_summary.json"
            arrivals = json.loads(summary.read_text())["gross_arrivals"]
        return Outcome(elapsed, digest, arrivals)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Outcome(0.0, None, error=f"{type(exc).__name__}: {exc}")


def check(op: Op, outcome: Outcome, golden: dict) -> str | None:
    """Why the op failed, or None when it ran and matched its golden digest."""
    if outcome.error is not None:
        return outcome.error
    want = golden.get(op.key)
    if want is None:
        return "no golden digest recorded"
    if outcome.digest != want:
        return "output digest differs from golden"
    return None
