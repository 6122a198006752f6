"""Persistent trace cache and the parallel sweep helpers.

The contract: the first ``native_trace`` per (workload image, scale,
profile) pays one traced interpreter run and persists it; any later
call — same process or a fresh one (simulated here by clearing the
in-process memo) — replays from disk without touching the simulator.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.eval import common
from repro.eval.common import clear_trace_cache, native_trace
from repro.eval.parallel import fan_workloads, prewarm_traces
from repro.eval.table1 import table1
from repro.sim import jitcache
from repro.sim.machine import Machine


@pytest.fixture
def cache_dir(tmp_path):
    """A private, empty disk cache for one test."""
    prev = jitcache._dir_override
    common.set_trace_cache_dir(tmp_path)
    clear_trace_cache()
    yield tmp_path
    clear_trace_cache()
    common.set_trace_cache_dir(prev)


@pytest.fixture
def traced_calls(monkeypatch):
    """Counts live traced interpreter runs."""
    calls = {"n": 0}
    orig = Machine.run_traced

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run_traced", counting)
    return calls


def test_fresh_process_hits_disk(cache_dir, traced_calls):
    first = native_trace("sensor", 0.02)
    assert traced_calls["n"] == 1
    assert len(list(cache_dir.glob("*.npz"))) == 1

    clear_trace_cache()  # drop the in-process memo: "fresh process"
    second = native_trace("sensor", 0.02)
    assert traced_calls["n"] == 1  # served from disk, no simulator run

    assert np.array_equal(first.trace, second.trace)
    assert second.trace.dtype == np.uint32
    assert first.instructions == second.instructions
    assert first.cycles == second.cycles
    assert first.output == second.output
    assert first.exit_code == second.exit_code
    assert first.dynamic_text_bytes == second.dynamic_text_bytes


def test_memo_layer_still_identity(cache_dir):
    assert native_trace("sensor", 0.02) is native_trace("sensor", 0.02)


def test_disk_clear_forces_rerun(cache_dir, traced_calls):
    native_trace("sensor", 0.02)
    clear_trace_cache(disk=True)
    assert not list(cache_dir.glob("*.npz"))
    native_trace("sensor", 0.02)
    assert traced_calls["n"] == 2


def test_version_bump_invalidates(cache_dir, traced_calls, monkeypatch):
    native_trace("sensor", 0.02)
    clear_trace_cache()
    monkeypatch.setattr(common, "_CACHE_VERSION", common._CACHE_VERSION + 1)
    native_trace("sensor", 0.02)
    assert traced_calls["n"] == 2  # stale entry unreachable, re-traced


def test_corrupt_entry_falls_back(cache_dir, traced_calls):
    native_trace("sensor", 0.02)
    (entry,) = cache_dir.glob("*.npz")
    entry.write_bytes(b"not an npz")
    clear_trace_cache()
    run = native_trace("sensor", 0.02)
    assert traced_calls["n"] == 2
    assert run.instructions > 0


def test_prewarm_then_replay(cache_dir, traced_calls):
    jobs = prewarm_traces([("hextobdd", 0.02), ("adpcm_enc", 0.02)],
                          processes=2)
    assert jobs == [("hextobdd", 0.02, False), ("adpcm_enc", 0.02, False)]
    warm_calls = traced_calls["n"]  # 0 if the pool forked, <=2 serial
    run = native_trace("hextobdd", 0.02)
    native_trace("adpcm_enc", 0.02)
    assert traced_calls["n"] == warm_calls  # both replayed from disk
    assert run.instructions > 0


def test_fan_workloads_matches_serial(cache_dir):
    workloads = ("hextobdd", "adpcm_enc")
    parallel_rows = table1(scale=0.02, workloads=workloads, processes=2)
    serial_rows = table1(scale=0.02, workloads=workloads)
    assert parallel_rows == serial_rows
    assert [r.workload for r in parallel_rows] == list(workloads)


def test_fan_workloads_serial_path(cache_dir):
    rows = fan_workloads(table1, ("hextobdd",), processes=1, scale=0.02)
    assert rows == table1(scale=0.02, workloads=("hextobdd",))


def test_empty_env_var_resolves_like_the_jit_store(monkeypatch):
    """An empty ``$REPRO_TRACE_CACHE`` means "unset" for both stores
    (it used to send native traces to the working directory)."""
    prev = jitcache._dir_override
    monkeypatch.setenv("REPRO_TRACE_CACHE", "")
    common.set_trace_cache_dir(None)
    try:
        assert common.trace_cache_dir() == jitcache.artifact_dir() \
            == Path(".cache") / "traces"
    finally:
        common.set_trace_cache_dir(prev)


def test_sweep_and_clear_spare_foreign_npz(cache_dir):
    foreign = cache_dir / "mydata.npz"
    stale = cache_dir / "trace-v1-beef.npz"
    legacy = cache_dir / ("ab" * 32 + ".npz")
    for path in (foreign, stale, legacy):
        path.write_bytes(b"x")
    assert common.sweep_stale_cache_versions(cache_dir) == 2
    assert foreign.exists()
    assert not stale.exists() and not legacy.exists()

    native_trace("sensor", 0.02)
    clear_trace_cache(disk=True)
    assert foreign.exists()
    assert not list(cache_dir.glob("trace-v*"))


def test_store_is_best_effort(cache_dir):
    """An entry that cannot be serialized is skipped, never raised."""
    run = native_trace("sensor", 0.02)
    unencodable = dataclasses.replace(run, output="☃")
    assert common._store_disk(cache_dir / "x.npz", unencodable) is False
    assert not list(cache_dir.glob("*.tmp"))
    assert not (cache_dir / "x.npz").exists()
