"""Figure 8: eviction (paging) rate over time versus CC memory size.

The paper runs adpcm encode on the ARM prototype with CC memories of
800B, 900B and 1KB: below the steady-state working set the cache pages
continuously; at 900B paging falls to zero during steady state with a
blip at the end "to load the terminal statistics routines"; above it,
paging is negligible.  We size the three memories automatically
around the profiled hot-code size so the same three regimes appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..softcache import SoftCacheConfig, SoftCacheSystem
from ..workloads import build_workload
from .render import ascii_table, series_plot


@dataclass
class Fig8Series:
    label: str
    cc_memory: int
    #: evictions per second in consecutive time bins
    bin_seconds: float
    rates: list[float]
    total_evictions: int
    steady_state_rate: float   # mean rate over the middle half
    final_blip: float          # rate in the last bin


def derive_memories(workload: str,
                    scale: float) -> tuple[int, int, int]:
    """Derive the three CC memory sizes from the program's behavior,
    mirroring the paper's 800B / 900B / 1KB:

    * below the steady-state working set (continuous paging),
    * fitting the steady loop but *not* the terminal statistics
      routines (zero steady-state paging, a blip at the end),
    * fitting everything the run ever touches (no paging at all).

    The steady set is every procedure first touched in the early part
    of the run; procedures first touched in the final 10% are the
    terminal routines.
    """
    import numpy as np

    from .common import native_trace

    run = native_trace(workload, scale, arm_profile=True)
    trace = run.trace
    n = trace.size
    steady_bytes = 0
    terminal_bytes = 0
    for proc in run.image.procs:
        mask = (trace >= proc.addr) & (trace < proc.end)
        hits = np.flatnonzero(mask)
        if hits.size == 0:
            continue
        if hits[0] > 0.9 * n:
            terminal_bytes += proc.size
        else:
            steady_bytes += proc.size
    total = steady_bytes + terminal_bytes
    return (int(steady_bytes * 0.85) & ~7,
            (steady_bytes + 24) & ~7,
            int(total * 1.2) & ~7)


def fig8(workload: str = "adpcm_enc", scale: float = 0.35,
         memories: tuple[int, ...] | None = None, nbins: int = 20,
         max_instructions: int = 400_000_000) -> list[Fig8Series]:
    image = build_workload(workload, scale, arm_profile=True)
    if memories is None:
        memories = derive_memories(workload, scale)
    series = []
    for memory in memories:
        config = SoftCacheConfig(tcache_size=memory, granularity="proc",
                                 policy="fifo", record_timeline=True)
        system = SoftCacheSystem(image, config)
        report = system.run(max_instructions)
        total_s = report.seconds or 1e-9
        bin_s = total_s / nbins
        counts = [0] * nbins
        for cycle in system.stats.eviction_timestamps:
            t = system.config.costs.cycles_to_seconds(cycle)
            counts[min(nbins - 1, int(t / bin_s))] += 1
        rates = [c / bin_s for c in counts]
        mid = rates[nbins // 4: 3 * nbins // 4]
        series.append(Fig8Series(
            label=f"mem={memory}B", cc_memory=memory, bin_seconds=bin_s,
            rates=rates,
            total_evictions=len(system.stats.eviction_timestamps),
            steady_state_rate=sum(mid) / len(mid) if mid else 0.0,
            final_blip=rates[-1]))
    return series


@dataclass
class Fig8PrefetchRow:
    """One depth setting of the proc-granularity prefetch ablation."""

    depth: int
    cycles: int
    relative_time: float
    evictions: int
    miss_service_cycles: int
    demand_translations: int
    prefetch_installs: int
    prefetch_hits: int
    wasted_prefetch_bytes: int


def fig8_prefetch_ablation(workload: str = "adpcm_enc",
                           scale: float = 0.35,
                           memory: int | None = None,
                           depths: tuple[int, ...] = (0, 1, 2, 4),
                           max_instructions: int = 400_000_000
                           ) -> list[Fig8PrefetchRow]:
    """Sweep ``prefetch_depth`` in the Figure 8 paging regime.

    Uses the middle of the derived CC memories (the one that pages
    hardest) and the networked link, so the sweep answers: can callee
    prefetch into a barely-too-small memory buy back miss time, and
    how much of it is wasted when evictions outrun speculation?
    """
    from ..net import LinkModel

    image = build_workload(workload, scale, arm_profile=True)
    if memory is None:
        memory = derive_memories(workload, scale)[0]
    rows: list[Fig8PrefetchRow] = []
    base_cycles: int | None = None
    for depth in depths:
        config = SoftCacheConfig(tcache_size=memory, granularity="proc",
                                 policy="fifo", prefetch_depth=depth,
                                 link=LinkModel(),
                                 record_timeline=False)
        system = SoftCacheSystem(image, config)
        report = system.run(max_instructions)
        if base_cycles is None:
            base_cycles = report.cycles
        s = system.stats
        rows.append(Fig8PrefetchRow(
            depth=depth, cycles=report.cycles,
            relative_time=report.cycles / base_cycles,
            evictions=s.evictions + s.blocks_flushed,
            miss_service_cycles=s.miss_service_cycles,
            demand_translations=s.demand_translations,
            prefetch_installs=s.prefetch_installs,
            prefetch_hits=s.prefetch_hits,
            wasted_prefetch_bytes=s.wasted_prefetch_bytes))
    return rows


@dataclass
class Fig8PolicyRow:
    """One (policy, depth) cell of the policy-ablation sweep."""

    policy: str
    depth: int
    cycles: int
    relative_time: float
    evictions: int
    flushes: int
    miss_service_cycles: int
    demand_translations: int
    prefetch_installs: int
    prefetch_hits: int
    prefetch_drops: int
    prefetch_dropped_bytes: int
    wasted_prefetch_bytes: int
    policy_prefetch_rejects: int
    policy_promotions: int


def fig8_policy_ablation(workload: str = "adpcm_enc",
                         scale: float = 0.35,
                         memory: int | None = None,
                         policies: tuple[str, ...] | None = None,
                         depths: tuple[int, ...] = (0, 2, 4),
                         max_instructions: int = 400_000_000
                         ) -> list[Fig8PolicyRow]:
    """Replacement-policy × prefetch-depth sweep in the Figure 8
    paging regime (small tcache, networked link).

    Each cell's ``relative_time`` is normalized to the fifo/depth-0
    cell — the seed configuration.  The interesting columns at depth
    ≥ 2 are the admission ones: ``rejected`` candidates were never
    shipped (pure link savings), ``drops``/``dropped B`` were shipped
    then thrown away, ``wasted B`` were installed then evicted
    untouched.
    """
    from ..net import LinkModel
    from ..softcache import policy_names

    image = build_workload(workload, scale, arm_profile=True)
    if memory is None:
        memory = derive_memories(workload, scale)[0]
    if policies is None:
        policies = policy_names()
    rows: list[Fig8PolicyRow] = []
    base_cycles: int | None = None
    for policy in policies:
        for depth in depths:
            config = SoftCacheConfig(
                tcache_size=memory, granularity="proc",
                policy=policy, prefetch_depth=depth, link=LinkModel(),
                record_timeline=False)
            system = SoftCacheSystem(image, config)
            report = system.run(max_instructions)
            if base_cycles is None:
                base_cycles = report.cycles
            s = system.stats
            rows.append(Fig8PolicyRow(
                policy=policy, depth=depth, cycles=report.cycles,
                relative_time=report.cycles / base_cycles,
                evictions=s.evictions, flushes=s.flushes,
                miss_service_cycles=s.miss_service_cycles,
                demand_translations=s.demand_translations,
                prefetch_installs=s.prefetch_installs,
                prefetch_hits=s.prefetch_hits,
                prefetch_drops=s.prefetch_drops,
                prefetch_dropped_bytes=s.prefetch_dropped_bytes,
                wasted_prefetch_bytes=s.wasted_prefetch_bytes,
                policy_prefetch_rejects=s.policy_prefetch_rejects,
                policy_promotions=s.policy_promotions))
    return rows


def render_fig8_policies(rows: list[Fig8PolicyRow]) -> str:
    table = [[r.policy, r.depth, r.cycles, f"{r.relative_time:.2f}",
              r.evictions, r.flushes, r.demand_translations,
              r.prefetch_installs, r.prefetch_hits,
              r.prefetch_drops, r.prefetch_dropped_bytes,
              r.wasted_prefetch_bytes, r.policy_prefetch_rejects]
             for r in rows]
    return ascii_table(
        ["policy", "depth", "cycles", "rel. time", "evictions",
         "flushes", "demand", "prefetched", "pf hits", "drops",
         "dropped B", "wasted B", "rejected"],
        table,
        title="Figure 8 ablation: replacement policy x prefetch depth "
              "(proc granularity, networked link)")


def render_fig8_prefetch(rows: list[Fig8PrefetchRow]) -> str:
    table = [[r.depth, r.cycles, f"{r.relative_time:.2f}", r.evictions,
              r.miss_service_cycles, r.demand_translations,
              r.prefetch_installs, r.prefetch_hits,
              r.wasted_prefetch_bytes] for r in rows]
    return ascii_table(
        ["depth", "cycles", "rel. time", "evictions", "miss-svc cycles",
         "demand", "prefetched", "pf hits", "wasted B"],
        table,
        title="Figure 8 ablation: successor-prefetch depth "
              "(proc granularity, networked link)")


def render_fig8(series: list[Fig8Series]) -> str:
    parts = ["Figure 8: evictions per second over time vs CC memory"]
    summary_rows = [[s.label, s.total_evictions,
                     f"{s.steady_state_rate:.0f}/s",
                     f"{s.final_blip:.0f}/s"] for s in series]
    parts.append(ascii_table(
        ["memory", "total evictions", "steady-state rate", "final bin"],
        summary_rows))
    for s in series:
        xs = [f"{i * s.bin_seconds * 1e3:.1f}ms"
              for i in range(len(s.rates))]
        parts.append("")
        parts.append(series_plot(xs, s.rates, label=s.label,
                                 fmt="{:.0f}"))
    return "\n".join(parts)
