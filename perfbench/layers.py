"""Outside-in layer trace: spans around calls into each layer.

Nothing in ``src/`` is changed.  A :class:`LayerTrace` wraps the public
entry points of one run from the outside:

* ``softcache.system`` — :class:`SoftCacheSystem` construction;
* ``sim.cpu`` — :meth:`SoftCacheSystem.run`, whose self time is
  dispatch (interpretation, block building, JIT codegen);
* ``softcache.cc`` — ``cpu.trap_hook`` (the CC miss/trap handler);
* ``sim.memory`` — each entry of ``mem.code_write_hooks``;
* ``softcache.mc`` — ``serve_chunk``, ``serve_batch``, ``payload_of``;
* ``softcache.update`` — ``MemoryController.publish``;
* ``softcache.policy`` — every hook of a :class:`FifoPolicy` instance
  passed in through ``SoftCacheConfig.policy``;
* ``net.link`` — ``Channel.exchange`` and ``Channel.batch_exchange``;
* ``fleet`` / ``fleet.sched`` — :func:`simulate_fleet` and the
  ``run_event_sim`` replay it calls.

Each span records its layer, start, end and the span open when it
began (its parent).  A layer's self time is its spans' durations minus
the time covered by their children, so the self times of all layers
partition the traced interval exactly: nothing is counted twice and
the parts sum to the run's wall time.  A code-write hook fired inside
a trap is a child of the trap; one fired outside a trap (a guest
store, an update barrier at program exit) is a child of ``sim.cpu``
and so comes out of dispatch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from time import perf_counter

#: Layers whose spans are counted and timed, in report order.
LAYERS = ("sim.cpu", "softcache.cc", "sim.memory", "softcache.mc",
          "softcache.policy", "net.link", "softcache.update",
          "softcache.system", "fleet", "fleet.sched")

#: Kinds the interpreter reports through ``cpu.trace_hook``.
CPU_EVENTS = ("fuse", "sb_invalidate", "jit_compile", "jit_load",
              "jit_promote", "flush")

_POLICY_HOOKS = ("on_install", "on_hit", "on_evict_candidate",
                 "on_evict", "on_flush", "admit_prefetch", "reset")


class LayerTrace:
    """Spans and counts recorded around one traced run."""

    def __init__(self):
        #: ``[layer, start, end, parent index]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Interpreter events seen through ``cpu.trace_hook``.
        self.cpu_events: Counter = Counter()
        self.code_write_bytes = 0
        #: Every system built under this trace (stats read after the run).
        self.systems: list = []
        self._mcs: set[int] = set()

    # -- spans ----------------------------------------------------------------

    def wrap(self, layer: str, fn):
        """Return *fn* bracketed by a span of *layer*."""
        spans = self.spans
        stack = self._stack
        clock = perf_counter

        def timed(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return timed

    def _wrap_code_write(self, hook):
        timed = self.wrap("sim.memory", hook)

        def code_write(addr: int, length: int) -> None:
            self.code_write_bytes += length
            timed(addr, length)
        return code_write

    def _count_cpu_event(self, kind: str, pc: int, n: int) -> None:
        self.cpu_events[kind] += 1

    # -- instrumentation ------------------------------------------------------

    def fifo_policy(self):
        """A :class:`FifoPolicy` whose every hook is a policy span."""
        from repro.softcache.policy import FifoPolicy
        policy = FifoPolicy()
        for name in _POLICY_HOOKS:
            setattr(policy, name,
                    self.wrap("softcache.policy", getattr(policy, name)))
        return policy

    def build_system(self, image, config, **kwargs):
        """Build a :class:`SoftCacheSystem` with every layer wrapped.

        Has the constructor's signature, so it can stand in for the
        class where :func:`simulate_fleet` builds its capture clients.
        """
        from repro.softcache import SoftCacheSystem
        if config.policy == "fifo":
            config = replace(config, policy=self.fifo_policy())
        system = self.wrap("softcache.system", SoftCacheSystem)(
            image, config, **kwargs)
        cpu = system.machine.cpu
        cpu.trap_hook = self.wrap("softcache.cc", cpu.trap_hook)
        cpu.trace_hook = self._count_cpu_event
        hooks = system.machine.mem.code_write_hooks
        hooks[:] = [self._wrap_code_write(h) for h in hooks]
        chan = system.channel
        chan.exchange = self.wrap("net.link", chan.exchange)
        chan.batch_exchange = self.wrap("net.link", chan.batch_exchange)
        mc = system.mc
        if id(mc) not in self._mcs:     # a fleet shares one MC
            self._mcs.add(id(mc))
            for name in ("serve_chunk", "serve_batch", "payload_of"):
                setattr(mc, name,
                        self.wrap("softcache.mc", getattr(mc, name)))
            mc.publish = self.wrap("softcache.update", mc.publish)
        system.run = self.wrap("sim.cpu", system.run)
        self.systems.append(system)
        return system

    def simulate_fleet(self, *args, **kwargs):
        """:func:`simulate_fleet` with its capture clients and its
        replay scheduler wrapped."""
        from repro.fleet import fleet as fleet_mod
        saved = fleet_mod.SoftCacheSystem, fleet_mod.run_event_sim
        fleet_mod.SoftCacheSystem = self.build_system
        fleet_mod.run_event_sim = self.wrap("fleet.sched",
                                            fleet_mod.run_event_sim)
        try:
            return self.wrap("fleet", fleet_mod.simulate_fleet)(
                *args, **kwargs)
        finally:
            fleet_mod.SoftCacheSystem, fleet_mod.run_event_sim = saved

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: ``self_s``, inclusive ``total_s`` and ``calls``.

        Calls and inclusive time count only outermost spans of a layer
        (``Channel.batch_exchange`` of one chunk re-enters
        ``exchange``; that is one call).
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
               for layer in LAYERS}
        for i, (layer, start, end, parent) in enumerate(spans):
            row = out[layer]
            row["self_s"] += (end - start) - covered[i]
            if parent < 0 or spans[parent][0] != layer:
                row["calls"] += 1
                row["total_s"] += end - start
        return out

    def traced_s(self) -> float:
        """Summed duration of the outermost spans (the traced time)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def dump(self) -> list[list]:
        """Spans as ``[layer, start_us, dur_us, parent]`` rows, with
        start relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[layer, round((start - t0) * 1e6, 3),
                 round((end - start) * 1e6, 3), parent]
                for layer, start, end, parent in self.spans]
