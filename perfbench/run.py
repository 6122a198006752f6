"""The SoftCache benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload thrash|paging|fleet_rollout \\
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of one
traced run.  Every run's output is checked against the native oracle.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out``
appends the same object, tagged with workload, seed and trace, to a
JSON-lines file that ``perfbench/compare.py`` reads.

Exits 2 without a result when the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import bench
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.measure(workload, args.seed, args.seconds,
                           bool(args.trace))
    print(f"{workload.name} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): "
          f"{result.attempted} runs, {result.failed} failed, "
          f"failed_frac {result.failed_frac:.3f}")
    for problem in result.problems[:20]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    for note in result.notes:
        print(f"  ({note})")
    line = result.to_json()
    if args.out is not None:
        with args.out.open("a") as fh:
            fh.write(json.dumps(dict(line, workload=workload.name,
                                     seed=args.seed,
                                     trace=args.trace)) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
