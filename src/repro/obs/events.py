"""The flight recorder: structured event tracing for the SoftCache.

A :class:`FlightRecorder` collects timestamped :class:`Event` records
from every layer of the stack — the cache controller (miss traps,
translations, backpatches, evictions, flushes, prefetch decisions),
the memory controller (chunk rewrites, batch assembly), the link and
hub (exchanges, far hops), the interpreter (superblock fusion and
invalidation) and the fleet (per-client timelines, shared-uplink
queueing).  Events carry the *simulated* cycle clock (so they line up
with the paper's time-shaped figures) plus host wall time (so host
performance work can use the same traces), and export as JSONL or as
Chrome trace-event JSON loadable in Perfetto
(:mod:`repro.obs.export`).

Zero overhead when disabled
---------------------------
Tracing is off by default and costs nothing when off.  Components hold
a ``tracer`` attribute that is ``None`` unless a recorder was attached
*and enabled*; every emission site is guarded by a single
``is not None`` check.  Passing ``FlightRecorder(enabled=False)``
through the config attaches nothing, so "disabled mode" is exactly the
seed code path (a CI job pins this: the disabled-mode overhead on the
thrash benchmark must stay under 2%).

The recorder also owns a :class:`~repro.obs.metrics.MetricsRegistry`;
:class:`~repro.softcache.stats.SoftCacheStats` and friends publish
into it after a run, and the hot paths feed the miss-latency and
patch-distance histograms directly while tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from .metrics import MetricsRegistry

#: Version of the on-disk event schema (bumped on incompatible change).
#: v2: fault-injection layer (fault.* track, cc.degraded_* spans,
#: mc.restart) — see docs/OBSERVABILITY.md and docs/FAULTS.md.
#: v3: event-driven fleet (fleet.client gains delay_s, fleet.queue
#: gains where and folds shard waits in, fleet.shard / fleet.hub
#: summaries) — see docs/FLEET.md.
#: v4: template-JIT tier (cpu track: cpu.jit_compile / cpu.jit_load /
#: cpu.jit_promote) — see docs/PERFORMANCE.md.
#: v5: replacement policies (cc.policy_reject / cc.policy_promote /
#: cc.policy_flush) — see docs/OBSERVABILITY.md.
#: v6: live code update (mc.publish, cc.epoch_observed,
#: cc.update_barrier) — see docs/UPDATES.md.
#: v7: one compiled superblock tier (cpu.jit_promote removed;
#: interp.sb_retarget added) — see docs/PERFORMANCE.md.
#: v8: cc.policy_flush removed together with its only emitter, the
#: temperature-RRIP policy — see docs/OBSERVABILITY.md.
TRACE_SCHEMA_VERSION = 8

#: Chrome-trace thread lane per event category.  One process (pid) is
#: one client; within it each layer of the stack gets its own track.
CATEGORY_TRACKS: dict[str, int] = {
    "cc": 1,       # cache controller (client)
    "mc": 2,       # memory controller (server)
    "link": 3,     # CC<->MC channel
    "hub": 4,      # mid-tier hub cache
    "interp": 5,   # superblock interpreter
    "fleet": 6,    # shared-uplink queue / per-client spans
    "fault": 7,    # fault injection (drops, retries, reconnects)
    "cpu": 8,      # superblock artifacts (codegen/load)
}

#: Every event name the stack emits, with the argument keys it carries.
#: Golden-tested (tests/test_obs.py) so the trace format is a contract:
#: extending it means updating this table and the docs deliberately.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    # cache controller -------------------------------------------------
    "cc.trap": ("kind", "id"),
    "cc.miss": ("orig", "name", "size", "batch"),
    "cc.prefetch_install": ("orig", "name", "size"),
    "cc.prefetch_drop": ("orig", "size", "reason"),
    "cc.patch": ("site", "target", "kind", "distance"),
    "cc.evict": ("orig", "addr", "size", "wasted"),
    "cc.flush": ("blocks",),
    "cc.pin": ("orig", "size"),
    "cc.guest_invalidate": ("addr", "length"),
    "cc.degraded_enter": ("orig", "pending"),
    "cc.degraded_exit": ("orig", "stall_cycles"),
    "cc.policy_reject": ("orig", "policy"),
    "cc.policy_promote": ("orig", "touches"),
    "cc.epoch_observed": ("epoch", "prev"),
    "cc.update_barrier": ("epoch", "prev", "invalidated", "restamped",
                          "dropped_prefetch"),
    # memory controller ------------------------------------------------
    "mc.rewrite": ("orig", "words", "exits"),
    "mc.serve": ("orig", "bytes", "cached"),
    "mc.batch": ("orig", "chunks", "prefetch_bytes"),
    "mc.restart": (),
    "mc.publish": ("epoch", "digest", "dirty_chunks", "dirty_bytes",
                   "durable"),
    # link / hub ---------------------------------------------------------
    "link.exchange": ("kind", "payload", "overhead", "seconds"),
    "link.batch": ("kind", "chunks", "payload", "seconds"),
    "link.send": ("kind", "payload", "seconds"),
    "hub.hit": ("key", "bytes"),
    "hub.far": ("bytes", "seconds"),
    # interpreter --------------------------------------------------------
    "interp.fuse": ("pc", "fused"),
    "interp.sb_invalidate": ("pc",),
    "interp.sb_retarget": ("pc", "target"),
    "interp.flush": (),
    # superblock artifacts -----------------------------------------------
    "cpu.jit_compile": ("pc", "fused"),
    "cpu.jit_load": ("pc", "fused"),
    # fleet ----------------------------------------------------------------
    "fleet.client": ("client", "start_s", "seconds", "translations",
                     "delay_s"),
    "fleet.queue": ("where", "arrival_s", "delay_s", "service_s"),
    "fleet.shard": ("shard", "requests", "busy_s", "util"),
    "fleet.hub": ("requests", "hits", "hit_rate"),
    # fault injection ------------------------------------------------------
    "fault.drop": ("kind", "attempt", "where"),
    "fault.corrupt": ("kind", "attempt"),
    "fault.duplicate": ("kind",),
    "fault.delay": ("kind", "seconds"),
    "fault.retry": ("kind", "attempt", "backoff_s"),
    "fault.link_down": ("kind", "attempts"),
    "fault.reconnect": ("stall_s",),
}


@dataclass(slots=True)
class Event:
    """One structured trace event.

    ``ph`` follows the Chrome trace-event phases we use: ``"i"`` for
    an instant event, ``"X"`` for a complete span with ``dur_cycles``.
    """

    name: str
    cat: str
    ph: str
    cycles: int
    host_s: float
    dur_cycles: int = 0
    pid: int = 0
    tid: int = 0
    args: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The JSONL wire form (stable key order, schema-pinned)."""
        return {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "cycles": self.cycles, "host_s": self.host_s,
            "dur_cycles": self.dur_cycles, "pid": self.pid,
            "tid": self.tid, "args": self.args,
        }


class FlightRecorder:
    """Collects events and metrics for one run (or one fleet).

    *clock* supplies the simulated cycle timestamp when an emission
    site does not pass one explicitly; :class:`SoftCacheSystem` binds
    it to its CPU's cycle counter at wiring time.  *pid* labels every
    event (the fleet uses it for per-client timelines).  *max_events*
    bounds memory on pathological runs; overflow is counted in
    :attr:`dropped`, never raised.
    """

    def __init__(self, *, enabled: bool = True,
                 clock: Callable[[], int] | None = None,
                 pid: int = 0, max_events: int = 2_000_000):
        self.enabled = enabled
        self.pid = pid
        self.max_events = max_events
        self.events: list[Event] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._clock = clock or (lambda: 0)
        self._t0 = perf_counter()
        #: cpu_hz of the run, recorded at wiring time for exporters.
        self.cpu_hz: float = 200e6

    def __bool__(self) -> bool:
        return self.enabled

    def bind_clock(self, clock: Callable[[], int],
                   cpu_hz: float | None = None) -> None:
        """Attach the simulated-cycle clock (done by the system)."""
        self._clock = clock
        if cpu_hz is not None:
            self.cpu_hz = cpu_hz

    def emit(self, name: str, cat: str, /, cycles: int | None = None, *,
             dur: int = 0, pid: int | None = None, **args) -> None:
        """Record one event.  Callers guard with ``is not None``, so
        this is never reached when tracing is off.  *pid* overrides
        the recorder's process id (the fleet tags per-client spans)."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(Event(
            name=name, cat=cat, ph="X" if dur else "i",
            cycles=self._clock() if cycles is None else cycles,
            host_s=perf_counter() - self._t0, dur_cycles=dur,
            pid=self.pid if pid is None else pid,
            tid=CATEGORY_TRACKS.get(cat, 0), args=args))

    def merge(self, other: "FlightRecorder",
              cycle_offset: int = 0) -> None:
        """Fold *other*'s events into this recorder (fleet merging).

        *cycle_offset* shifts the child's cycle clock onto the shared
        timeline (a client booted at ``start_s`` has its events placed
        at ``start_s * cpu_hz + cycles``).
        """
        for ev in other.events:
            self.events.append(Event(
                name=ev.name, cat=ev.cat, ph=ev.ph,
                cycles=ev.cycles + cycle_offset, host_s=ev.host_s,
                dur_cycles=ev.dur_cycles, pid=ev.pid, tid=ev.tid,
                args=ev.args))
        self.dropped += other.dropped
