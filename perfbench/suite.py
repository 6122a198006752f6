"""Run the benchmark over several seeds and workloads into one file.

Usage (from the repository root)::

    python3 perfbench/suite.py --out results.jsonl [--runs 10]
        [--first-seed 1] [--workload NAME ...] [--trace 0|1]

Runs ``perfbench/run.py`` once per workload and seed, one at a time,
for ``run_seconds`` from ``BENCHMARK.json``, appending each result
line to ``--out`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"{last[0][:100]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
