"""Fleet-scale benchmark: the event scheduler vs fleet size.

Sweeps the discrete-event fleet simulation across client counts up to
10k+ devices (capture once per distinct client, replay everyone
through one heap-ordered clock), recording host wall clock (split
into the capture of the distinct clients and the ``run_event_sim``
replay), uplink utilization, queueing delay, and shard balance at each
point.
Results are written to ``BENCH_fleet.json`` so CI can archive them
and diff runs across commits.

Usage::

    python benchmarks/bench_fleet.py [--max-clients N] [--shards N]
                                     [--hub-capacity B] [--out PATH]
                                     [--budget-s S]

``--budget-s`` turns the largest run's wall clock into a scaling
gate: exit non-zero if simulating the full fleet took longer than the
budget (CI pins 10k clients under a fixed budget so the event loop
can never regress to per-client quadratic behaviour unnoticed).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import fleet as fleet_mod  # noqa: E402
from repro.fleet import simulate_fleet  # noqa: E402
from repro.softcache import SoftCacheConfig  # noqa: E402
from repro.workloads import build_workload  # noqa: E402


@contextmanager
def _phase_clock():
    """Host seconds of the two fleet phases inside ``simulate_fleet``:
    ``capture_s`` builds and runs each distinct client, ``replay_s``
    is the ``run_event_sim`` call.  Wraps the module's names from the
    outside and restores them on exit."""
    spent = {"capture_s": 0.0, "replay_s": 0.0}

    def timed(phase, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - t0
        return call

    saved = fleet_mod.SoftCacheSystem, fleet_mod.run_event_sim

    def build(*args, **kwargs):
        system = timed("capture_s", saved[0])(*args, **kwargs)
        system.run = timed("capture_s", system.run)
        return system

    fleet_mod.SoftCacheSystem = build
    fleet_mod.run_event_sim = timed("replay_s", saved[1])
    try:
        yield spent
    finally:
        fleet_mod.SoftCacheSystem, fleet_mod.run_event_sim = saved


def _point(image, config, n: int, *, shards: int, hub_capacity: int,
           stagger_s: float) -> dict:
    with _phase_clock() as spent:
        t0 = time.perf_counter()
        r = simulate_fleet(image, n, config, stagger_s=stagger_s,
                           shards=shards, hub_capacity=hub_capacity)
        wall = time.perf_counter() - t0
    return {
        "clients": n,
        "distinct_clients": r.distinct_clients,
        "wall_s": wall,
        "capture_s": spent["capture_s"],
        "replay_s": spent["replay_s"],
        "makespan_s": r.makespan_s,
        "link_utilization": r.link_utilization,
        "mean_queue_delay_s": r.mean_queue_delay_s,
        "max_queue_delay_s": r.max_queue_delay_s,
        "delayed_requests": r.delayed_requests,
        "mc_requests": r.mc_requests,
        "mc_chunks_built": r.mc_chunks_built,
        "chunk_cache_sharing": r.chunk_cache_sharing,
        "shard_requests": [s.requests for s in r.shard_loads],
        "shard_balance": r.shard_balance,
        "hub_hit_rate": r.hub_hit_rate,
        "rollout_makespan_s": r.rollout_makespan_s,
        "clients_converged": r.clients_converged,
    }


def run_benchmarks(max_clients: int, shards: int, hub_capacity: int,
                   stagger_s: float,
                   update_at: tuple = ()) -> dict:
    image = build_workload("sensor", 0.05)
    config = SoftCacheConfig(tcache_size=8192, record_timeline=False,
                             update_at=update_at)
    counts = [n for n in (1, 10, 100, 1000, 10_000)
              if n <= max_clients]
    if counts[-1] != max_clients:
        counts.append(max_clients)
    points = [_point(image, config, n, shards=shards,
                     hub_capacity=hub_capacity, stagger_s=stagger_s)
              for n in counts]
    return {
        "schema": "BENCH_fleet/3",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "shards": shards,
        "hub_capacity": hub_capacity,
        "stagger_s": stagger_s,
        "update_at": list(update_at),
        "scaling": points,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-clients", type=int, default=10_000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--hub-capacity", type=int, default=64 * 1024)
    parser.add_argument("--stagger-us", type=float, default=50.0,
                        help="boot-time offset between clients "
                             "(microseconds)")
    parser.add_argument("--update-at", metavar="CYCLES:IMAGE",
                        action="append", default=None,
                        help="publish a live update mid-run; the "
                             "rollout-wavefront column then reports "
                             "time to full-fleet convergence")
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_fleet.json"))
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail if the largest fleet exceeds this "
                             "wall clock")
    args = parser.parse_args(argv)

    results = run_benchmarks(args.max_clients, args.shards,
                             args.hub_capacity,
                             args.stagger_us * 1e-6,
                             tuple(args.update_at or ()))
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    print(f"{'clients':>8} {'wall':>9} {'capture':>9} {'replay':>9} "
          f"{'makespan':>10} {'util':>6} "
          f"{'mean queue':>11} {'balance':>8} {'hub':>5} "
          f"{'rollout':>9}")
    for p in results["scaling"]:
        print(f"{p['clients']:>8} {p['wall_s'] * 1e3:>7.0f}ms "
              f"{p['capture_s'] * 1e3:>7.0f}ms "
              f"{p['replay_s'] * 1e3:>7.0f}ms "
              f"{p['makespan_s']:>9.3f}s "
              f"{100 * p['link_utilization']:>5.1f}% "
              f"{p['mean_queue_delay_s'] * 1e6:>9.1f}us "
              f"{p['shard_balance']:>8.2f} "
              f"{100 * p['hub_hit_rate']:>4.0f}% "
              f"{p['rollout_makespan_s'] * 1e3:>7.2f}ms")
    print(f"wrote {args.out}")

    biggest = results["scaling"][-1]
    # sanity: server-side rewrite work must stay constant in fleet
    # size (the whole point of the shared chunk cache).  With a live
    # update in play the single-client point skips stale-version
    # serving entirely, so compare against the previous sweep point
    # instead of the smallest.
    smallest = results["scaling"][-2 if args.update_at else 0] \
        if len(results["scaling"]) > 1 else biggest
    if biggest["mc_chunks_built"] != smallest["mc_chunks_built"]:
        print("FAIL: MC rewrite work grew with fleet size",
              file=sys.stderr)
        return 1
    if args.budget_s is not None:
        if biggest["wall_s"] > args.budget_s:
            print(f"FAIL: {biggest['clients']} clients took "
                  f"{biggest['wall_s']:.1f}s, budget "
                  f"{args.budget_s:.0f}s", file=sys.stderr)
            return 1
        print(f"budget check OK: {biggest['clients']} clients in "
              f"{biggest['wall_s']:.1f}s <= {args.budget_s:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
