"""Command-line interface.

Four subcommands mirror the library surface:

* ``simulate``: run a scenario (config file or named preset) for one seed
  or a seed sweep and export metrics,
* ``partition``: cluster a call graph and report candidate offload sets,
* ``decide``: evaluate offload validity under given network conditions,
* ``appstats``: overlap and storage-savings report for an app corpus.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
All outputs are byte-deterministic for identical arguments and inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

# ``simulate`` needs only the simulator stack, so the other commands import
# their modules in their handlers.
from . import simulator as simulator_mod
from .emit import _write_text, json_text
from .simulator import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The most seeds one ``--seeds`` sweep may name, checked before any list of
# them is built.
MAX_SWEEP_SEEDS = 10_000


@dataclass
class CommandOutcome:
    """What a dispatch produced: exit code and any files written."""

    exit_code: int
    artifacts: list[Path] = field(default_factory=list)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="offloadsim",
        description="Offloading simulator, call-graph partitioning, and corpus statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an offloading scenario")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", type=Path, help="scenario config JSON file")
    src.add_argument(
        "--preset",
        choices=sorted(simulator_mod.PRESETS),
        help="built-in scenario preset",
    )
    sim.add_argument(
        "--strategy",
        choices=simulator_mod.STRATEGIES,
        help="override the scenario's admission strategy",
    )
    seeds = sim.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="RNG seed for a single run")
    seeds.add_argument(
        "--seeds",
        help="seed sweep: 'A..B' (inclusive) or comma-separated list; "
        "one that starts with a negative seed takes the '=' form, as in --seeds=-2..1",
    )
    sim.add_argument("--out", type=Path, required=True, help="output directory")
    sim.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default="both",
        help="export format for single runs (default both)",
    )

    part = sub.add_parser("partition", help="cluster an application call graph")
    part.add_argument("--graph", type=Path, required=True, help="call graph JSON file")
    part.add_argument("--rules", type=Path, help="tag rules JSON file")
    part.add_argument(
        "--weighted",
        action="store_true",
        help="treat heavier edges as shorter paths in betweenness",
    )
    part.add_argument("--out", type=Path, help="write the report here instead of stdout")

    dec = sub.add_parser("decide", help="evaluate offload validity")
    dec.add_argument("--graph", type=Path, required=True, help="call graph JSON file")
    dec.add_argument("--rules", type=Path, help="tag rules JSON file")
    dec.add_argument("--rtt-ms", type=float, required=True, help="round-trip time (ms)")
    dec.add_argument(
        "--bandwidth-bytes-per-s",
        type=float,
        required=True,
        help="link throughput in bytes per second",
    )
    dec.add_argument(
        "--cpu-speedup",
        type=float,
        default=1.0,
        help="how much faster the remote cpu is (default 1.0)",
    )
    dec.add_argument("--energy-model", type=Path, help="energy model JSON file")
    dec.add_argument(
        "--mode",
        choices=("any", "all"),
        default="any",
        help="cluster acceptance mode (default any)",
    )
    dec.add_argument("--out", type=Path, help="write the verdict here instead of stdout")

    stats = sub.add_parser("appstats", help="app corpus overlap statistics")
    stats.add_argument("--corpus", type=Path, required=True, help="corpus file")
    stats.add_argument("--depth", type=int, required=True, help="package prefix depth")
    stats.add_argument("--out", type=Path, help="write the report here instead of stdout")

    return parser


def _emit(payload: dict, out: Path | None, artifacts: list[Path]) -> None:
    text = json_text(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, text)
        artifacts.append(out)


def _parse_seed_sweep(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo_text, _, hi_text = spec.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigError(f"malformed seed range {spec!r}") from None
        if hi < lo:
            raise ConfigError(f"empty seed range {spec!r}")
        _check_sweep_size(hi - lo + 1)
        return list(range(lo, hi + 1))
    chunks = [chunk for chunk in spec.split(",") if chunk.strip()]
    _check_sweep_size(len(chunks))
    try:
        return [int(chunk) for chunk in chunks]
    except ValueError:
        raise ConfigError(f"malformed seed list {spec!r}") from None


def _check_sweep_size(count: int) -> None:
    if count > MAX_SWEEP_SEEDS:
        raise ConfigError(
            f"seed sweep names {count} seeds, more than the limit of {MAX_SWEEP_SEEDS}"
        )


def _cmd_simulate(args) -> CommandOutcome:
    if args.config is not None:
        cfg = simulator_mod.load_scenario(args.config)
    else:
        cfg = simulator_mod.PRESETS[args.preset]()
    if args.strategy:
        cfg = replace(cfg, strategy=args.strategy)
    artifacts: list[Path] = []
    if args.seeds is not None:
        seeds = _parse_seed_sweep(args.seeds)
        if not seeds:
            raise ConfigError("seed sweep selects no seeds")
        runs = simulator_mod.run_batch(cfg, seeds)
        out = simulator_mod.export_batch(runs, args.out)
        artifacts.append(out)
        agg = simulator_mod.aggregate_metrics(runs)
        sys.stdout.write(
            f"runs={agg['runs']} tau_mean={agg['tau']['mean']!r} "
            f"phi_ms_mean={agg['phi_ms']['mean']!r} psi_mean={agg['psi']['mean']!r}\n"
        )
    else:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        metrics = simulator_mod.run_scenario(cfg)
        artifacts.extend(simulator_mod.export_metrics(metrics, args.format, args.out))
        line = (
            f"strategy={metrics.strategy} seed={metrics.seed} tau={metrics.tau!r} "
            f"phi_ms={metrics.phi_ms!r} psi={metrics.psi!r}\n"
        )
        # Escape what stdout cannot encode (a string seed under the C locale).
        encoding = sys.stdout.encoding or "utf-8"
        sys.stdout.write(line.encode(encoding, "backslashreplace").decode(encoding))
    return CommandOutcome(EXIT_OK, artifacts)


def _load_graph(args):
    from . import partition as partition_mod

    graph = partition_mod.build_call_graph(args.graph)
    if args.rules is not None:
        rules = partition_mod.load_tag_rules(args.rules)
        partition_mod.apply_tag_rules(graph, rules)
    return graph


def _cmd_partition(args) -> CommandOutcome:
    from . import partition as partition_mod

    graph = _load_graph(args)
    natural = partition_mod.louvain_optimal(graph)
    sets = partition_mod.enumerate_partition_sets(
        graph, weighted=args.weighted, natural=natural.n_clusters
    )
    payload = {
        "natural_n_clusters": natural.n_clusters,
        "natural_modularity": natural.modularity,
        "sets": [
            {
                "n_clusters": p.n_clusters,
                "modularity": p.modularity,
                "clusters": p.clusters,
                "offloadable": p.offloadable,
                "offloadable_fraction": partition_mod.offloadable_fraction(graph, p),
            }
            for p in sets
        ],
    }
    artifacts: list[Path] = []
    _emit(payload, args.out, artifacts)
    return CommandOutcome(EXIT_OK, artifacts)


def _cmd_decide(args) -> CommandOutcome:
    from . import decision as decision_mod, partition as partition_mod

    graph = _load_graph(args)
    cond = decision_mod.NetworkConditions(
        rtt_s=args.rtt_ms / 1000.0,
        bandwidth_bytes_per_s=args.bandwidth_bytes_per_s,
        cpu_speedup=args.cpu_speedup,
    )
    model = (
        decision_mod.load_energy_model(args.energy_model)
        if args.energy_model is not None
        else decision_mod.EnergyModel()
    )
    sets = partition_mod.enumerate_partition_sets(graph)
    verdict = decision_mod.select_partition(sets, graph, cond, model, mode=args.mode)
    artifacts: list[Path] = []
    _emit(verdict.to_dict(), args.out, artifacts)
    return CommandOutcome(EXIT_OK, artifacts)


def _cmd_appstats(args) -> CommandOutcome:
    from . import appstats as appstats_mod

    corpus = appstats_mod.parse_corpus(args.corpus)
    report = appstats_mod.unique_class_fraction(corpus, args.depth)
    payload = {
        "apps": len(corpus.apps),
        "depth": report.depth,
        "mean_unique_fraction": report.mean_unique_fraction,
        "median_unique_fraction": report.median_unique_fraction,
        "storage_savings": report.storage_savings,
        "per_app_unique_fraction": report.per_app_unique_fraction,
    }
    artifacts: list[Path] = []
    _emit(payload, args.out, artifacts)
    return CommandOutcome(EXIT_OK, artifacts)


_HANDLERS = {
    "simulate": _cmd_simulate,
    "partition": _cmd_partition,
    "decide": _cmd_decide,
    "appstats": _cmd_appstats,
}


def dispatch(argv: list[str] | None = None) -> CommandOutcome:
    """Parse arguments and run the chosen subcommand (testable entry)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return CommandOutcome(int(exc.code or 0))
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # ConfigError, TopologyError, CallGraphError, DecisionError, and
        # CorpusError all subclass ValueError: bad input, not a crash.
        sys.stderr.write(f"error: {exc}\n")
        return CommandOutcome(EXIT_CONFIG)
    except OSError as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return CommandOutcome(EXIT_RUNTIME)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]).exit_code)


__all__ = [
    "EXIT_CONFIG",
    "EXIT_OK",
    "EXIT_RUNTIME",
    "CommandOutcome",
    "dispatch",
    "main",
]


if __name__ == "__main__":
    main()
