"""Record the golden output digest of every op any workload can run.

Run from the repository root at a commit whose outputs are the reference::

    python3 perfbench/record_golden.py

It executes each (kind, family, variant) a workload cycle names on every
instance of the family's universe and writes ``perfbench/golden.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import workloads  # noqa: E402
from inputs import FAMILIES  # noqa: E402


def all_ops():
    seen = set()
    for workload in workloads.WORKLOADS.values():
        for tpl in workload.cycle:
            if (tpl.kind, tpl.family, tpl.variant) in seen:
                continue
            seen.add((tpl.kind, tpl.family, tpl.variant))
            for inst in range(FAMILIES[tpl.family].universe):
                yield workloads.Op(tpl.kind, tpl.family, tpl.variant, inst)


def main() -> int:
    workdir = ROOT / ".bench_out" / "golden-work"
    inputs = workloads.Inputs(workdir)
    golden = {}
    try:
        for op in all_ops():
            if (op.family, op.instance) not in inputs.paths:
                inputs.add(op.family, op.instance)
            outcome = workloads.execute(op, inputs)
            if outcome.error is not None:
                sys.stderr.write(f"{op.key}: {outcome.error}\n")
                return 1
            golden[op.key] = outcome.digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(__file__).resolve().parent / "golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
