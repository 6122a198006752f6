"""Deterministic work-counter pins for the thrash configuration.

sensor at scale 0.05 in a 768 B tcache on the local link, block chunks,
fifo, no prefetch: the miss path dominates (2040 translations, 7708
code writes).  The interpreter's work on that run — superblocks
compiled, killed and retargeted, shapes generated — depends only on
the program and the simulator, never on host speed, so it is pinned
exactly: a change that makes the interpreter rebuild more blocks or
generate more code fails here before any wall clock notices.
"""

import pytest

from repro.net import LOCAL_LINK
from repro.sim import cpu as cpu_mod
from repro.sim import jitcache
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload


@pytest.fixture
def cold_artifacts(tmp_path, monkeypatch):
    """An empty artifact directory and in-process artifact cache, so
    every shape the run binds is generated exactly once."""
    monkeypatch.setattr(cpu_mod, "_SB_COMPILED", {})
    jitcache.set_artifact_dir(tmp_path)
    try:
        yield tmp_path
    finally:
        jitcache.set_artifact_dir(None)


def test_thrash_work_counters(cold_artifacts):
    system = SoftCacheSystem(build_workload("sensor", 0.05),
                             SoftCacheConfig(tcache_size=768,
                                             link=LOCAL_LINK))
    report = system.run()
    cpu = system.machine.cpu
    sb, js = cpu.sb_stats, cpu.jit_stats

    # the fifo goldens: the simulated run itself is unchanged
    assert (report.exit_code, report.cycles) == (0, 1_622_021)
    assert (system.stats.translations, system.stats.evictions) \
        == (2040, 2018)

    assert sb.code_writes == 7708
    assert sb.fused_blocks == 1927
    assert sb.single_closures == 3543
    assert sb.invalidated_blocks == 5441
    assert sb.retargeted_blocks == 1613
    assert sb.fused_blocks <= system.stats.translations  # <= 1 per

    assert js.jit_codegen == js.jit_blocks == 72
    assert js.jit_disk_stores == 72
    assert len(list(cold_artifacts.glob(
        f"{jitcache.ARTIFACT_PREFIX}*"))) == 72
