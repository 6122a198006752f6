"""Smoke test of the benchmark itself, at a small scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from layers import LayerTrace  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The benchmark's workloads on smaller inputs (thrash's sensor input
#: is already the smallest the program takes).
SMALL = {
    "thrash": bench.WORKLOADS["thrash"],
    "paging": replace(bench.WORKLOADS["paging"], scale=0.05),
    "fleet_rollout": replace(bench.WORKLOADS["fleet_rollout"],
                             clients=50),
}

#: Per-layer self times: together they partition the traced time.
SELF_TIMES = ("sim.cpu.dispatch_s", "softcache.cc.self_s",
              "sim.memory.code_write_s", "softcache.mc.serve_s",
              "softcache.policy.hook_s", "net.link.exchange_s",
              "softcache.update.publish_s", "softcache.system.build_s",
              "fleet.self_s", "fleet.sched.replay_s")


def _units(result) -> dict:
    return {name: m["unit"]
            for name, m in result.to_json()["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = bench.measure(SMALL[name], 3, 0.1, False, setups=1)
    assert result.failed == 0, result.problems
    assert result.attempted >= 3   # set-up, warm-up, one timed run
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0
               for m in result.to_json()["metrics"].values())


@pytest.mark.parametrize("name", ["paging", "fleet_rollout"])
def test_every_per_layer_metric_is_emitted_and_layers_sum_to_wall(name):
    result = bench.measure(SMALL[name], 3, 0.1, True, setups=1)
    assert result.failed == 0, result.problems
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}
    values = {n: v for n, (v, _) in result.metrics.items()}
    parts = sum(values[n] for n in SELF_TIMES)
    assert parts + values["trace.unattributed_s"] == \
        pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["trace.unattributed_s"] < 0.05 * values["trace.wall_s"]
    assert values["softcache.cc.traps"] > 0
    assert values["net.link.exchanges"] > 0


def test_corrupted_oracle_output_counts_as_failed(monkeypatch):
    real = bench.native_oracle

    def corrupted(image):
        oracle = real(image)
        oracle.output += "corrupted"
        return oracle

    monkeypatch.setattr(bench, "native_oracle", corrupted)
    result = bench.measure(SMALL["paging"], 3, 0.1, False, setups=1)
    # the set-up process checks against its own, intact oracle
    assert result.failed == result.attempted - 1
    assert result.failed_frac > 0
    assert not result.to_json()["correct"]
    assert all("native oracle" in p for p in result.problems)


def test_span_nesting_counts_no_layer_twice():
    trace = LayerTrace()
    write = trace.wrap("sim.memory", lambda addr, length: None)
    exchange = trace.wrap("net.link", lambda: None)
    batch = trace.wrap("net.link", lambda: exchange())   # re-enters

    def on_trap():
        write(0, 4)
        batch()

    trap = trace.wrap("softcache.cc", on_trap)

    def run():
        write(0, 4)     # a guest store, outside any trap
        trap()

    trace.wrap("sim.cpu", run)()
    parents = [trace.spans[p][0] if p >= 0 else None
               for _, _, _, p in trace.spans]
    assert parents == [None, "sim.cpu", "sim.cpu", "softcache.cc",
                       "softcache.cc", "net.link"]
    rows = trace.summary()
    assert rows["sim.memory"]["calls"] == 2
    assert rows["net.link"]["calls"] == 1
    assert rows["softcache.cc"]["calls"] == 1
    assert sum(r["self_s"] for r in rows.values()) == \
        pytest.approx(trace.traced_s(), rel=1e-9)


def test_tail_needs_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(30)]) == (19.0, "p67 of 30")
    assert bench.tail([1.0, 3.0, 2.0]) == (3.0, "max of 3")


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thrash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
