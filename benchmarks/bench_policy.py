"""Replacement-policy benchmark: per-policy thrash floor + ablation.

Two halves, written to ``BENCH_policy.json`` for CI to archive:

* **Per-policy thrash gate** — the bench_misspath thrash workload
  (sensor, 768B tcache, local link, ``prefetch_depth 0``) run once
  per policy.  At depth 0 no admission path executes, so every
  eviction-path policy must land on the same simulated counts as
  fifo and under the same ``--floor-ms`` wall-clock floor: the
  policy layer may not tax the seed hot path.  ``flush`` is reported but not floor-gated — it
  re-translates ~46% more chunks by design and has never been inside
  the fifo-path floor.
* **Policy × depth ablations** — the fig8-per-policy sweep
  (:func:`repro.eval.fig8_policy_ablation`: adpcm_enc in its paging
  regime, proc granularity), a sensor block-granularity sweep on a
  1KiB tcache at depths 0/2/4, and the streaming cell (compress95,
  block granularity, 512B tcache, depths 2/4) where seqcutoff's
  sequential-run rejection beats fifo, all on the networked link.
  The winner block records, per workload, the lowest-cycle cell at
  depth ≥ 2 and the admission policy that most reduces
  shipped-then-wasted prefetch traffic vs fifo at the same depth;
  the default policy only changes if one policy wins cycles on every
  workload.

Usage::

    python benchmarks/bench_policy.py [--repeat N] [--out PATH]
                                      [--floor-ms MS] [--scale S]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval import fig8_policy_ablation  # noqa: E402
from repro.net import LOCAL_LINK  # noqa: E402
from repro.softcache import (  # noqa: E402
    SoftCacheConfig,
    SoftCacheSystem,
    policy_names,
)
from repro.workloads import build_workload  # noqa: E402

#: The seed thrash counters (sensor @ 0.05, 768B, block, local link).
#: Every policy must reproduce these exactly at prefetch_depth 0 —
#: same goldens as tests/test_eviction_equivalence.py.
_THRASH_GOLDEN = {"translations": 2040, "evictions": 2018,
                  "cycles": 1_622_021}


def _thrash_per_policy(image, policies, repeat: int) -> dict:
    out = {}
    for policy in policies:
        config = SoftCacheConfig(tcache_size=768, link=LOCAL_LINK,
                                 policy=policy, record_timeline=False)
        SoftCacheSystem(image, config).run()  # warm-up, untimed
        walls = []
        system = report = None
        for _ in range(repeat):
            system = SoftCacheSystem(image, config)
            t0 = time.perf_counter()
            report = system.run()
            walls.append(time.perf_counter() - t0)
        stats = system.stats
        row = {
            "wall_s_best": min(walls),
            "wall_s_p50": statistics.median(walls),
            "cycles": report.cycles,
            "translations": stats.translations,
            "evictions": stats.evictions,
            "flushes": stats.flushes,
        }
        if policy == "fifo":
            for key, want in _THRASH_GOLDEN.items():
                got = row[key]
                if got != want:
                    raise SystemExit(
                        f"fifo thrash {key}={got} != golden {want}: "
                        f"the policy object diverged from the seed "
                        f"path")
        out[policy] = row
    return out


def _block_sweep(image, policies, tcache_size: int,
                 depths) -> list[dict]:
    """Block-granularity admission sweep on the networked link."""
    from repro.net import LinkModel

    rows = []
    for policy in policies:
        for depth in depths:
            system = SoftCacheSystem(image, SoftCacheConfig(
                tcache_size=tcache_size, policy=policy,
                prefetch_depth=depth, link=LinkModel(),
                record_timeline=False))
            report = system.run()
            s = system.stats
            rows.append({
                "policy": policy, "depth": depth,
                "cycles": report.cycles,
                "translations": s.translations,
                "prefetch_installs": s.prefetch_installs,
                "prefetch_hits": s.prefetch_hits,
                "prefetch_drops": s.prefetch_drops,
                "prefetch_dropped_bytes": s.prefetch_dropped_bytes,
                "wasted_prefetch_bytes": s.wasted_prefetch_bytes,
                "policy_prefetch_rejects": s.policy_prefetch_rejects,
                "link_bytes": system.link_stats.total_bytes,
            })
    return rows


def _winner(rows: list[dict]) -> dict:
    """Per-workload verdict: cycle winner + best waste reducer.

    *Shipped-then-wasted* = dropped bytes (paid on the link, thrown
    away at install) + wasted bytes (installed, evicted untouched) —
    the pollution the admission policies exist to cut.
    """
    fifo_at = {r["depth"]: r for r in rows if r["policy"] == "fifo"}
    deep = [r for r in rows if r["depth"] >= 2]
    by_cycles = min(deep, key=lambda r: r["cycles"])
    best_saving, reducer = 0, None
    for r in deep:
        if r["policy"] in ("fifo", "flush"):
            continue
        base = fifo_at[r["depth"]]
        saving = ((base["prefetch_dropped_bytes"]
                   + base["wasted_prefetch_bytes"])
                  - (r["prefetch_dropped_bytes"]
                     + r["wasted_prefetch_bytes"]))
        if saving > best_saving:
            best_saving, reducer = saving, r
    verdict = {
        "cycles_winner": {"policy": by_cycles["policy"],
                          "depth": by_cycles["depth"],
                          "cycles": by_cycles["cycles"]},
        "waste_reducer": None,
    }
    if reducer is not None:
        base = fifo_at[reducer["depth"]]
        verdict["waste_reducer"] = {
            "policy": reducer["policy"],
            "depth": reducer["depth"],
            "saved_bytes_vs_fifo": best_saving,
            "drops_vs_fifo": (reducer["prefetch_drops"]
                              - base["prefetch_drops"]),
            "cycles_vs_fifo": reducer["cycles"] - base["cycles"],
            "rejects": reducer["policy_prefetch_rejects"],
        }
    return verdict


def run_benchmarks(repeat: int = 3, scale: float = 0.35) -> dict:
    policies = policy_names()
    image = build_workload("sensor", 0.05)
    results: dict = {
        "schema": "BENCH_policy/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "policies": list(policies),
    }
    results["thrash"] = _thrash_per_policy(image, policies, repeat)

    adpcm_rows = [vars(r) for r in fig8_policy_ablation(scale=scale)]
    sensor_rows = _block_sweep(image, policies, 1024, (0, 2, 4))
    stream_rows = _block_sweep(build_workload("compress95", 0.05),
                               policies, 512, (2, 4))
    results["ablation_adpcm"] = adpcm_rows
    results["ablation_sensor"] = sensor_rows
    results["ablation_streaming"] = stream_rows
    verdicts = {"adpcm_enc": _winner(adpcm_rows),
                "sensor": _winner(sensor_rows),
                "compress95": _winner(stream_rows)}
    cycle_winners = {v["cycles_winner"]["policy"]
                     for v in verdicts.values()}
    # a challenger becomes default only by winning cycles everywhere
    default = (cycle_winners.pop()
               if len(cycle_winners) == 1
               and cycle_winners != {"flush"} else "fifo")
    results["winner"] = {"per_workload": verdicts, "default": default}
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_policy.json"))
    parser.add_argument("--floor-ms", type=float, default=None,
                        help="fail if any policy's best thrash run "
                             "exceeds this")
    parser.add_argument("--scale", type=float, default=0.35,
                        help="adpcm_enc scale for the ablation sweep")
    args = parser.parse_args(argv)

    results = run_benchmarks(args.repeat, args.scale)
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    failed = False
    for policy, row in results["thrash"].items():
        best_ms = row["wall_s_best"] * 1e3
        line = (f"thrash[{policy:>9}]: best {best_ms:.1f}ms  "
                f"p50 {row['wall_s_p50'] * 1e3:.1f}ms  "
                f"({row['translations']} translations, "
                f"{row['evictions']} evictions, "
                f"{row['flushes']} flushes)")
        if policy == "flush":
            line += "  (not floor-gated: drop-everything by design)"
        elif args.floor_ms is not None and best_ms > args.floor_ms:
            line += f"  FAIL > {args.floor_ms:.0f}ms floor"
            failed = True
        print(line)
    for label in ("ablation_adpcm", "ablation_sensor",
                  "ablation_streaming"):
        for row in results[label]:
            print(f"{label} {row['policy']:>9} depth {row['depth']}: "
                  f"{row['cycles']} cycles, "
                  f"{row['prefetch_drops']} drops, "
                  f"{row['prefetch_dropped_bytes']}B dropped, "
                  f"{row['wasted_prefetch_bytes']}B wasted, "
                  f"{row['policy_prefetch_rejects']} rejected")
    stream = {(r["policy"], r["depth"]): r
              for r in results["ablation_streaming"]}
    for depth in sorted({d for _, d in stream}):
        seq, fifo = stream["seqcutoff", depth], stream["fifo", depth]
        print(f"streaming depth {depth}: seqcutoff vs fifo "
              + ", ".join(f"{seq[k] - fifo[k]:+d} {k}" for k in
                          ("translations", "prefetch_drops",
                           "link_bytes", "cycles")))
    winner = results["winner"]
    for workload, verdict in winner["per_workload"].items():
        cw = verdict["cycles_winner"]
        line = (f"{workload}: cycles winner {cw['policy']} at depth "
                f"{cw['depth']}")
        wr = verdict["waste_reducer"]
        if wr is not None:
            line += (f"; waste reducer {wr['policy']} at depth "
                     f"{wr['depth']} "
                     f"(-{wr['saved_bytes_vs_fifo']}B shipped-wasted, "
                     f"{wr['drops_vs_fifo']:+d} drops, "
                     f"{wr['cycles_vs_fifo']:+d} cycles vs fifo, "
                     f"{wr['rejects']} rejected)")
        print(line)
    print(f"default policy: {winner['default']}")
    print(f"wrote {args.out}")
    if failed:
        print("FAIL: a policy regressed the thrash floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
