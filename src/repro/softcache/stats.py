"""SoftCache runtime statistics.

Everything the evaluation section needs: translation counts (the
numerator of the paper's software miss rate), trap breakdowns,
eviction/flush counts with cycle timestamps (Figure 8's time series),
space accounting, and rewriting overhead counts (the "two new
instructions per translated basic block" measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SoftCacheStats:
    """Counters maintained by the cache controller."""

    # -- misses / translations ------------------------------------------
    #: Chunks installed into the tcache ("basic blocks translated"),
    #: demand and prefetch alike (each one is an installed chunk).
    translations: int = 0
    #: ensure_translated calls that found the chunk resident.
    map_hits: int = 0
    #: Chunks installed speculatively from batched replies.
    prefetch_installs: int = 0
    #: First demand hit on a block that was installed by prefetch
    #: (the prefetch paid off: a miss exchange was avoided).
    prefetch_hits: int = 0
    #: Prefetched chunks dropped without installing (no free tcache
    #: space — prefetch never evicts resident code — or stub pressure).
    prefetch_drops: int = 0
    #: Payload bytes of dropped prefetched chunks.
    prefetch_dropped_bytes: int = 0
    #: Bytes of prefetched blocks evicted without ever being entered
    #: (the wasted-prefetch traffic measure).
    wasted_prefetch_bytes: int = 0
    #: Miss traps by cause.
    branch_miss_traps: int = 0
    ret_miss_traps: int = 0
    call_miss_traps: int = 0      # ARM variant redirector entries
    landing_miss_traps: int = 0   # ARM variant return landings
    #: Computed-jump executions (every one pays the hash lookup).
    jr_lookups: int = 0

    # -- invalidation -----------------------------------------------------
    evictions: int = 0
    flushes: int = 0
    blocks_flushed: int = 0
    #: Cycle timestamp of each eviction event (Figure 8).
    eviction_timestamps: list[int] = field(default_factory=list)
    #: Cycle timestamp of each translation (miss time series).
    translation_timestamps: list[int] = field(default_factory=list)
    #: Return addresses repointed during stack walks.
    stack_slots_fixed: int = 0
    #: Explicit invalidations requested by the guest (self-mod code).
    guest_invalidations: int = 0

    # -- rewriting --------------------------------------------------------
    words_installed: int = 0
    #: Rewriting-added instructions actually installed.
    extra_words_installed: int = 0
    patches: int = 0
    stubs_created: int = 0
    stubs_peak_bytes: int = 0

    # -- per-phase miss accounting ----------------------------------------
    # Simulated cycles and host (wall-clock) seconds spent in each
    # phase of miss service: *serve* (MC chunking/lookup), *link*
    # (exchange transfer time converted to client cycles), *install*
    # (CC-side copy into the tcache) and *patch* (backpatching words).
    miss_serve_cycles: int = 0
    miss_link_cycles: int = 0
    miss_install_cycles: int = 0
    miss_patch_cycles: int = 0
    miss_serve_host_s: float = 0.0
    miss_install_host_s: float = 0.0
    miss_patch_host_s: float = 0.0

    # -- ops plane ---------------------------------------------------------
    #: Admin commands (flush/set/resize/publish) applied at miss
    #: boundaries.
    admin_commands: int = 0

    # -- live code update --------------------------------------------------
    #: Update barriers crossed (one per epoch change observed).
    update_barriers: int = 0
    #: Resident blocks invalidated by barriers (their original text
    #: changed between the epochs).
    update_invalidated_blocks: int = 0
    #: Surviving blocks re-stamped to the new epoch — untouched hot
    #: code that kept running (the laziness the barrier preserves).
    update_restamped_blocks: int = 0
    #: Prefetched-but-never-entered blocks dropped by barriers.
    update_prefetch_dropped: int = 0
    #: Client text-mirror words rewritten by barriers.
    update_text_patched_words: int = 0

    # -- replacement policy ------------------------------------------------
    #: Prefetch candidates rejected by the policy at batch-assembly
    #: time (the bytes were never shipped — compare prefetch_drops,
    #: which are shipped-then-dropped).
    policy_prefetch_rejects: int = 0
    #: Addresses promoted to prefetch-eligible (nhit crossing N).
    policy_promotions: int = 0

    # -- degraded resident mode (fault injection) -------------------------
    #: LinkDown traps raised by the miss path (retry budget exhausted).
    link_down_traps: int = 0
    #: Times the CC entered degraded resident mode.
    degraded_entries: int = 0
    #: Client cycles stalled waiting out reconnect epochs.
    degraded_stall_cycles: int = 0
    #: Pending misses successfully replayed after a reconnect.
    pending_miss_replays: int = 0
    #: LinkDown traps per demanded chunk (which code the outage hit).
    link_down_by_chunk: dict[int, int] = field(default_factory=dict)

    @property
    def miss_service_cycles(self) -> int:
        """Total simulated cycles spent servicing misses (all phases)."""
        return (self.miss_serve_cycles + self.miss_link_cycles +
                self.miss_install_cycles + self.miss_patch_cycles)

    @property
    def demand_translations(self) -> int:
        """Chunks installed because a miss demanded them."""
        return self.translations - self.prefetch_installs

    @property
    def miss_traps(self) -> int:
        """All trap events that can trigger translation."""
        return (self.branch_miss_traps + self.ret_miss_traps +
                self.call_miss_traps + self.landing_miss_traps)

    def miss_rate(self, instructions: int) -> float:
        """The paper's software miss rate: blocks translated divided
        by instructions executed (Figure 7 caption)."""
        return self.translations / instructions if instructions else 0.0

    def extra_instructions_per_translation(self) -> float:
        """Mean rewriting-added instructions per installed chunk."""
        if not self.translations:
            return 0.0
        return self.extra_words_installed / self.translations

    def publish(self, registry, prefix: str = "cc") -> None:
        """Mirror these counters into a metrics registry
        (:class:`repro.obs.MetricsRegistry`): int fields become
        counters, floats gauges, the timestamp lists length gauges,
        plus the derived miss-rate ingredients as counters."""
        from ..obs.metrics import publish_dataclass
        publish_dataclass(registry, prefix, self)
        registry.counter(f"{prefix}.miss_traps").inc(
            self.miss_traps - registry.counter(
                f"{prefix}.miss_traps").value)
        registry.counter(f"{prefix}.miss_service_cycles").inc(
            self.miss_service_cycles - registry.counter(
                f"{prefix}.miss_service_cycles").value)
