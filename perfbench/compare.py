"""Compare two sets of benchmark results, or summarise one.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds result lines written by ``perfbench/run.py --out`` (or
``perfbench/suite.py``), any number of seeds and workloads.  For every
workload and metric it prints each side's median and quartiles over the
runs, and the spread (interquartile range over the median).  Given two
files it also prints the ratio CHANGE/BASE with its base and a verdict:

* ``worse``: the change's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``better``: it is better by more than the base's own interquartile
  range;
* ``same``: neither;
* ``unresolved``: either side spreads wider than the bound, and the
  runs of one side are not all better (or all worse) than every run of
  the other.

Per-layer metrics have no bound: they are ``same`` when every value is
identical, ``better``/``worse`` when every run of one side beats every
run of the other, else ``unresolved``.  ``failed_frac`` (failed runs
over attempted runs) is printed per workload from the result lines.

Exits 1 when any end-to-end verdict is ``worse`` or any run failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """``{workload: {"metrics": {name: [values]}, "units": {...},
    "attempted": n, "failed": n}}`` from a results file."""
    out: dict = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        side = out.setdefault(row["workload"], {
            "metrics": {}, "units": {}, "attempted": 0, "failed": 0})
        side["attempted"] += row["attempted"]
        side["failed"] += row["failed"]
        for name, m in row["metrics"].items():
            side["metrics"].setdefault(name, []).append(m["value"])
            side["units"][name] = m["unit"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], change: list[float], lower: bool,
            bound: float | None) -> str:
    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    if all(beats(c, b) for c in change for b in base):
        sweep = "better"
    elif all(beats(b, c) for c in change for b in base):
        sweep = "worse"
    else:
        sweep = None
    if bound is None:
        if set(base) == set(change) and len(set(base)) == 1:
            return "same"
        return sweep or "unresolved"
    if max(spread(base), spread(change)) > bound:
        return sweep or "unresolved"
    q1, mb, q3 = quartiles(base)
    mc = statistics.median(change)
    gain = (mb - mc) if lower else (mc - mb)
    if mb and gain / abs(mb) < -bound:
        return "worse"
    if gain > 0 and gain > q3 - q1:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    info = {m["name"]: (m["better"] == "lower", m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(p)) for p in argv]
    status = 0
    for workload in sides[0]:
        print(f"== {workload}")
        for i, side in enumerate(sides):
            data = side.get(workload, {"attempted": 0, "failed": 0})
            frac = (data["failed"] / data["attempted"]
                    if data["attempted"] else float("nan"))
            label = "base" if i == 0 else "change"
            print(f"  failed_frac {label}: {frac:.3f} "
                  f"({data['failed']} of {data['attempted']} runs)")
            if data["failed"]:
                status = 1
        for name, (lower, bound) in info.items():
            cols = [s.get(workload, {}).get("metrics", {}).get(name)
                    for s in sides]
            if cols[0] is None:
                continue
            unit = sides[0][workload]["units"][name]
            cells = []
            for values in cols:
                if values is None:
                    cells.append("-")
                    continue
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"spread {spread(values):.3f} n={len(values)}")
            line = f"  {name} ({unit}): " + " | ".join(cells)
            if len(cols) == 2 and cols[1] is not None:
                mb = statistics.median(cols[0])
                mc = statistics.median(cols[1])
                ratio = f"{mc / mb:.4f}" if mb else "n/a"
                v = verdict(cols[0], cols[1], lower, bound)
                line += (f" | change/base {ratio} (base {mb:.6g} {unit})"
                         f" -> {v}")
                if v == "worse" and bound is not None:
                    status = 1
            elif bound is not None:
                s = spread(cols[0])
                line += (f" | bound {bound}: "
                         f"{'ok' if s < bound / 3 else 'WIDE'}")
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
