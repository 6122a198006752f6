"""Workloads, oracle checks and measurement loop of the SoftCache benchmark.

:func:`measure` is the whole benchmark for one workload and seed:

1. set-up, several times, each in a fresh process with an empty
   private JIT artifact directory (``cold.py``): build the image, run
   the native oracle, do the first cold run;
2. in this process: build the image, run the native oracle (and, for
   the fleet, the small-fleet reference), then one warm-up run over
   the last set-up's artifact directory;
3. timed runs until ``seconds`` have passed, tracing off; with
   ``trace`` on, untraced and traced runs alternate and the per-layer
   numbers come from the traced run with the median wall time.

Every run is checked against the oracle and against the first run;
a mismatch is counted as a failed run, never raised.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from layers import CPU_EVENTS, LayerTrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Private working directory (JIT artifacts, span dumps), gitignored.
WORK = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration (see README.md for why each)."""

    name: str
    program: str
    scale: float
    tcache: int
    granularity: str = "block"
    arm_profile: bool = False
    #: The program takes the benchmark seed as its ``seed=`` input.
    seeded_input: bool = False
    local_link: bool = False
    prefetch: int = 0
    #: > 0: run as a fleet of this many clients.
    clients: int = 0
    shards: int = 1
    hub_bytes: int = 0
    stagger_s: float = 0.0
    #: Cycle of a durable mid-run ``patch:<seed>`` publish (0: none).
    publish_at: int = 0
    #: ``(outcome key, value)`` pairs every run must reproduce.
    golden: tuple = ()


WORKLOADS = {
    "thrash": Workload(
        "thrash", "sensor", 0.05, 768, local_link=True,
        golden=(("translations", 2040), ("evictions", 2018),
                ("sim_cycles", 1_622_021))),
    "paging": Workload(
        "paging", "adpcm_enc", 0.35, 1960, granularity="proc",
        arm_profile=True, seeded_input=True, prefetch=2),
    "fleet_rollout": Workload(
        "fleet_rollout", "sensor", 0.05, 8192, clients=10_000, shards=4,
        hub_bytes=64 * 1024, stagger_s=50e-6, publish_at=20_000),
}

#: Fleet size whose server-side rewrite work every larger fleet must
#: match: the two clients a fleet captures.  (A 1-client fleet never
#: serves the pre-update version to a second client and so builds one
#: chunk fewer when a publish is scheduled.)
REFERENCE_CLIENTS = 2


def workload_from_json(text: str) -> Workload:
    data = json.loads(text)
    data["golden"] = tuple(tuple(pair) for pair in data["golden"])
    return Workload(**data)


def workload_to_json(w: Workload) -> str:
    return json.dumps(asdict(w))


# -- building and running -----------------------------------------------------

def build_image(w: Workload, seed: int):
    from repro.workloads import build_workload
    extra = {"seed": seed % 2**31} if w.seeded_input else {}
    return build_workload(w.program, w.scale, arm_profile=w.arm_profile,
                          **extra)


def make_config(w: Workload, seed: int):
    from repro.net import LOCAL_LINK, LinkModel
    from repro.softcache import SoftCacheConfig
    return SoftCacheConfig(
        tcache_size=w.tcache, granularity=w.granularity,
        link=LOCAL_LINK if w.local_link else LinkModel(),
        prefetch_depth=w.prefetch, policy="fifo", record_timeline=False,
        update_at=((f"{w.publish_at}:patch:{seed}",)
                   if w.publish_at else ()))


@dataclass
class Oracle:
    """What a correct run must produce."""

    output: str
    exit_code: int
    #: Native cycles: the denominator of ``slowdown``.
    cycles: int
    #: Fleet only: MC chunks built by the reference fleet.
    chunks_built: int | None = None


def native_oracle(image) -> Oracle:
    """Run *image* natively (text executable, no SoftCache)."""
    from repro.sim.machine import Machine
    machine = Machine(image)
    exit_code = machine.run()
    return Oracle(machine.output_text, exit_code, machine.cpu.cycles)


@dataclass
class Outcome:
    """What one run produced."""

    output: str
    exit_code: int
    #: Simulated instructions the host executed (for ``sim_mips``).
    instructions: int
    #: sim_cycles, link_bytes, makespan_s.
    sim: dict
    #: Fleet aggregates (empty for a single client).
    fleet: dict = field(default_factory=dict)
    #: Everything that must repeat exactly from run to run.
    state: dict = field(default_factory=dict)


def _fleet_kwargs(w: Workload) -> dict:
    return {"stagger_s": w.stagger_s, "shards": w.shards,
            "hub_capacity": w.hub_bytes}


def run_workload(w: Workload, image, config, tracer=None
                 ) -> tuple[float, Outcome]:
    """One run; returns its host wall time and its outcome.

    The timed region is exactly what a user of the system waits for:
    building the system and running the program (or the whole fleet
    simulation).  Checks and digests are computed after it.
    """
    if w.clients:
        from repro.fleet import simulate_fleet
        sim_fleet = tracer.simulate_fleet if tracer else simulate_fleet
        t0 = perf_counter()
        result = sim_fleet(image, w.clients, config, **_fleet_kwargs(w))
        wall = perf_counter() - t0
        return wall, _fleet_outcome(result)
    from repro.softcache import SoftCacheSystem
    from repro.softcache.debug import architectural_state
    build = tracer.build_system if tracer else SoftCacheSystem
    t0 = perf_counter()
    system = build(image, config)
    report = system.run()
    wall = perf_counter() - t0
    st = system.stats
    sim = {"sim_cycles": report.cycles,
           "link_bytes": system.link_stats.payload_bytes,
           "makespan_s": report.seconds}
    state = dict(sim, digest=architectural_state(system),
                 instructions=report.instructions,
                 translations=st.translations, evictions=st.evictions,
                 patches=st.patches)
    return wall, Outcome(report.output, report.exit_code,
                         report.instructions, sim, state=state)


def _fleet_outcome(result) -> Outcome:
    ref = result.clients[0].report
    captured = result.clients[:result.distinct_clients]
    sim = {"sim_cycles": ref.cycles,
           "link_bytes": sum(c.bytes_requested for c in result.clients),
           "makespan_s": result.makespan_s}
    fleet = {"clients": result.n_clients,
             "clients_converged": result.clients_converged,
             "rollout_s": result.rollout_makespan_s,
             "queue_delay_mean_s": result.mean_queue_delay_s,
             "queue_delay_max_s": result.max_queue_delay_s,
             "mc_requests": result.mc_requests,
             "mc_chunks_built": result.mc_chunks_built,
             "delayed_requests": result.delayed_requests,
             "shard_balance": result.shard_balance,
             "hub_hit_rate": result.hub_hit_rate}
    instructions = sum(c.report.instructions for c in captured)
    state = dict(sim, **fleet, digest=result.architectural_digest,
                 instructions=instructions,
                 captured_cycles=[c.report.cycles for c in captured],
                 final_epoch=result.final_epoch)
    return Outcome(ref.output, ref.exit_code, instructions, sim, fleet,
                   state)


def fleet_reference(w: Workload, image, config) -> int | None:
    """MC chunks built by the reference fleet (None: not a fleet)."""
    if not w.clients:
        return None
    from repro.fleet import simulate_fleet
    return simulate_fleet(image, REFERENCE_CLIENTS, config,
                          **_fleet_kwargs(w)).mc_chunks_built


def check(w: Workload, out: Outcome, oracle: Oracle,
          first: Outcome | None) -> list[str]:
    """Problems with *out*; empty when the run is correct."""
    problems = []
    if out.output != oracle.output:
        problems.append("output differs from the native oracle")
    if out.exit_code != oracle.exit_code:
        problems.append(f"exit code {out.exit_code} != native "
                        f"{oracle.exit_code}")
    for key, want in w.golden:
        got = out.state.get(key)
        if got != want:
            problems.append(f"{key} {got} != golden {want}")
    if w.clients:
        if out.fleet["clients_converged"] != out.fleet["clients"]:
            problems.append(
                f"{out.fleet['clients_converged']} of "
                f"{out.fleet['clients']} clients reached the new epoch")
        if out.fleet["mc_chunks_built"] != oracle.chunks_built:
            problems.append(
                f"MC built {out.fleet['mc_chunks_built']} chunks, the "
                f"{REFERENCE_CLIENTS}-client fleet {oracle.chunks_built}")
    if first is not None:
        for key, value in out.state.items():
            if first.state.get(key) != value:
                problems.append(f"{key} not repeatable: "
                                f"{first.state.get(key)} then {value}")
    return problems


# -- set-up -------------------------------------------------------------------

def cold_setup(w: Workload, seed: int, artifacts: Path) -> dict:
    """One set-up in a fresh process over an empty artifact directory.

    Returns the child's report: ``setup_s``, ``problems`` and
    ``jit_artifacts`` (compiled blocks it wrote).
    """
    shutil.rmtree(artifacts, ignore_errors=True)
    artifacts.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), workload_to_json(w),
         str(seed), str(artifacts)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- measurement --------------------------------------------------------------

@dataclass
class Result:
    """What :func:`measure` found."""

    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: Human-readable notes printed beside the metrics.
    notes: list = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def record(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def to_json(self) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in
                            self.metrics.items()}}


def tail(walls: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it, and
    its label; the maximum when there are too few samples for that
    percentile to lie above the median."""
    ordered = sorted(walls)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"
    return ordered[-1], f"max of {n}"


def _checked_run(w, image, config, oracle, first, result, label,
                 tracer=None):
    """One run, checked; returns (wall, outcome) or (None, None) when
    the run raised."""
    gc.collect()
    try:
        wall, out = run_workload(w, image, config, tracer)
    except Exception:  # a crashing run is a failed run
        result.record([traceback.format_exc(limit=3).strip()], label)
        return None, None
    result.record(check(w, out, oracle, first), label)
    return wall, out


def measure(w: Workload, seed: int, seconds: float, trace: bool, *,
            setups: int = 3) -> Result:
    """Run the benchmark for workload *w* (see the module docstring)."""
    result = Result(seed)
    scratch = WORK / f"run-{os.getpid()}"
    try:
        setup = []
        for i in range(setups):
            info = cold_setup(w, seed, scratch / f"setup{i}")
            result.record(info["problems"], f"set-up {i}")
            setup.append(info)
        # every later run binds JIT blocks from the last set-up's store
        warm_dir = scratch / f"setup{setups - 1}"
        os.environ["REPRO_TRACE_CACHE"] = str(warm_dir)
        image = build_image(w, seed)
        config = make_config(w, seed)
        oracle = native_oracle(image)
        warm_trace = LayerTrace() if trace else None
        # the warm-up is this process's first run, so its JIT blocks
        # come from the set-up's store; the fleet reference runs after
        # it to keep it that way
        first = None
        try:
            _, first = run_workload(w, image, config, warm_trace)
        except Exception:  # a crashing run is a failed run
            result.record([traceback.format_exc(limit=3).strip()],
                          "warm-up")
        oracle.chunks_built = fleet_reference(w, image, config)
        if first is not None:
            result.record(check(w, first, oracle, None), "warm-up")
        if trace:
            _measure_traced(w, image, config, oracle, first, seconds,
                            result, warm_trace, setup)
        else:
            _measure_untraced(w, image, config, oracle, first, seconds,
                              result, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


#: Loop steps of :func:`host_probe` (about 55 ms on the shared
#: 2-vCPU x86 host the bounds were set on).
PROBE_STEPS = 200_000


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with
    the simulator: the yardstick of ``wall_norm.p50`` and ``.tail``.

    A shared host drifts in speed by tens of percent over minutes; a
    run and the probe just before it see the same host speed, so their
    ratio cancels most of the drift that wall seconds carry.
    """
    ops = [(i * 7) % 5 for i in range(64)]
    regs = [0] * 32
    mem: dict[int, int] = {}
    acc = 0
    t0 = perf_counter()
    for i in range(PROBE_STEPS):
        op = ops[i & 63]
        if op == 0:
            regs[i & 31] = (regs[(i + 1) & 31] + i) & 0xFFFFFFFF
        elif op == 1:
            mem[i & 1023] = regs[i & 31]
        elif op == 2:
            acc ^= mem.get((i * 3) & 1023, 0)
        elif op == 3:
            regs[(i * 5) & 31] = (acc >> 3) | ((i << 2) & 0xFFFF)
        else:
            acc = (acc + regs[i & 31]) & 0xFFFFFFFF
    return perf_counter() - t0


def _measure_untraced(w, image, config, oracle, first, seconds, result,
                      setup):
    walls, norms = [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        probe = host_probe()
        wall, _ = _checked_run(w, image, config, oracle, first, result,
                               f"run {len(walls)}")
        if wall is not None:
            walls.append(wall)
            norms.append(wall / probe)
        elif perf_counter() >= deadline:
            break
    if not walls or first is None:
        return
    norm_tail, tail_label = tail(norms)
    m = result.metrics
    m["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
    m["wall_norm.p50"] = (statistics.median(norms), "probes")
    m["wall_norm.tail"] = (norm_tail, "probes")
    m["sim_cycles"] = (first.sim["sim_cycles"], "cycles")
    m["slowdown"] = (first.sim["sim_cycles"] / oracle.cycles, "ratio")
    m["link_bytes"] = (first.sim["link_bytes"], "bytes")
    m["makespan_s"] = (first.sim["makespan_s"], "sim_s")
    # ru_maxrss is KiB on Linux
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    result.notes.append(f"{len(walls)} timed runs; wall_norm.tail is "
                        f"the {tail_label}")
    result.notes.append(f"slowdown base: native {oracle.cycles} cycles")
    result.notes.append("host clock, not a bounded metric (see "
                        "README.md): " + ", ".join(
                            f"{name} {value:.6g} {unit}" for name,
                            (value, unit) in host_seconds(
                                walls, first.instructions).items()))


def host_seconds(walls: list[float], instructions: int) -> dict:
    """Host-clock figures of a list of run walls: median, tail, and
    simulated instructions per host second at the median."""
    p50 = statistics.median(walls)
    return {"wall_s.p50": (p50, "s"), "wall_s.tail": (tail(walls)[0], "s"),
            "sim_mips": (instructions / p50 / 1e6, "Minsn/s")}


def _measure_traced(w, image, config, oracle, first, seconds, result,
                    warm_trace, setup):
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        wall, _ = _checked_run(w, image, config, oracle, first, result,
                               f"untraced run {len(plain)}")
        if wall is not None:
            plain.append(wall)
        tracer = LayerTrace()
        wall, out = _checked_run(w, image, config, oracle, first, result,
                                 f"traced run {len(traced)}", tracer)
        if wall is not None:
            traced.append((wall, tracer, out))
        elif perf_counter() >= deadline:
            break
    if not traced or not plain:
        return
    traced.sort(key=lambda row: row[0])
    wall, tracer, out = traced[(len(traced) - 1) // 2]
    overhead = statistics.median(t[0] for t in traced) \
        / statistics.median(plain)
    result.metrics.update(host_seconds(plain, out.instructions))
    result.metrics.update(layer_metrics(w, tracer, out, wall, overhead,
                                        warm_trace, setup))
    result.notes.append(f"wall_s.* and sim_mips: {len(plain)} untraced "
                        f"runs, tail is the {tail(plain)[1]}")
    result.notes.append(f"per-layer times from the median of "
                        f"{len(traced)} traced runs; trace_overhead "
                        f"base: median of {len(plain)} untraced runs")
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{w.name}-{result.seed}.json").write_text(
        json.dumps(tracer.dump()))


def _sum_stats(systems, name: str):
    return sum(getattr(s.stats, name) for s in systems)


def layer_metrics(w, tracer, out, wall, overhead, warm_trace, setup
                  ) -> dict:
    """Every per-layer metric of one traced run, ``name -> (value,
    unit)``; layers a workload does not exercise read 0."""
    layers = tracer.summary()
    systems = tracer.systems
    translations = _sum_stats(systems, "translations")
    ev = tracer.cpu_events
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def per_translation(value):
        return value / translations if translations else 0.0

    put("sim.cpu.dispatch_s", layers["sim.cpu"]["self_s"], "s")
    for kind in CPU_EVENTS:
        put(f"sim.cpu.{kind}", ev[kind], "count")
    put("sim.cpu.fuse_per_translation", per_translation(ev["fuse"]),
        "ratio")
    mem = layers["sim.memory"]
    put("sim.memory.code_write_s", mem["self_s"], "s")
    put("sim.memory.code_write_calls", mem["calls"], "count")
    put("sim.memory.code_write_bytes", tracer.code_write_bytes, "bytes")
    put("sim.memory.code_write_calls_per_translation",
        per_translation(mem["calls"]), "ratio")
    cc = layers["softcache.cc"]
    put("softcache.cc.trap_s", cc["total_s"], "s")
    put("softcache.cc.traps", cc["calls"], "count")
    put("softcache.cc.self_s", cc["self_s"], "s")
    for name in ("translations", "evictions", "patches"):
        put(f"softcache.cc.{name}", _sum_stats(systems, name), "count")
    for phase in ("serve", "link", "install", "patch"):
        put(f"softcache.cc.miss_{phase}_cycles",
            _sum_stats(systems, f"miss_{phase}_cycles"), "cycles")
    put("softcache.mc.serve_s", layers["softcache.mc"]["self_s"], "s")
    put("softcache.mc.serves", layers["softcache.mc"]["calls"], "count")
    policy = layers["softcache.policy"]
    put("softcache.policy.hook_s", policy["self_s"], "s")
    put("softcache.policy.calls", policy["calls"], "count")
    put("softcache.policy.prefetch_rejects",
        _sum_stats(systems, "policy_prefetch_rejects"), "count")
    link = layers["net.link"]
    hits = _sum_stats(systems, "prefetch_hits")
    installs = _sum_stats(systems, "prefetch_installs")
    put("net.link.exchange_s", link["self_s"], "s")
    put("net.link.exchanges", link["calls"], "count")
    put("net.link.bytes",
        sum(s.link_stats.total_bytes for s in systems), "bytes")
    put("net.link.prefetch_hits", hits, "count")
    put("net.link.prefetch_installs", installs, "count")
    put("net.link.prefetch_hit_ratio",
        hits / installs if installs else 0.0, "ratio")
    put("net.link.wasted_prefetch_bytes",
        _sum_stats(systems, "wasted_prefetch_bytes"), "bytes")
    update = layers["softcache.update"]
    put("softcache.update.publish_s", update["self_s"], "s")
    put("softcache.update.publishes", update["calls"], "count")
    for name in ("update_barriers", "update_invalidated_blocks",
                 "update_restamped_blocks"):
        put(f"softcache.update.{name}", _sum_stats(systems, name),
            "count")
    put("softcache.system.build_s", layers["softcache.system"]["self_s"],
        "s")
    fleet = out.fleet
    put("fleet.self_s", layers["fleet"]["self_s"], "s")
    put("fleet.capture_s",
        layers["sim.cpu"]["total_s"] if w.clients else 0.0, "s")
    put("fleet.sched.replay_s", layers["fleet.sched"]["self_s"], "s")
    for name, unit in (("rollout_s", "sim_s"),
                       ("queue_delay_mean_s", "sim_s"),
                       ("queue_delay_max_s", "sim_s"),
                       ("mc_requests", "count"),
                       ("mc_chunks_built", "count"),
                       ("delayed_requests", "count")):
        put(f"fleet.{name}", fleet.get(name, 0), unit)
    put("fleet.shard.balance", fleet.get("shard_balance", 0.0), "ratio")
    put("net.hub.hit_rate", fleet.get("hub_hit_rate", 0.0), "ratio")
    put("sim.jitcache.setup_codegen",
        statistics.median(s["jit_artifacts"] for s in setup), "count")
    warm = warm_trace.systems if warm_trace is not None else []
    put("sim.jitcache.warm_disk_hits",
        sum(s.machine.cpu.jit_stats.jit_disk_hits for s in warm), "count")
    put("sim.jitcache.warm_codegen",
        sum(s.machine.cpu.jit_stats.jit_codegen for s in warm), "count")
    put("trace.wall_s", wall, "s")
    put("trace.unattributed_s", wall - tracer.traced_s(), "s")
    put("trace_overhead", overhead, "ratio")
    return m
