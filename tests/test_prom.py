"""Prometheus text exposition of the MetricsRegistry."""

import math
import re

from repro.obs import MetricsRegistry, to_prometheus, write_prometheus


def test_counter_and_gauge_exposition():
    reg = MetricsRegistry()
    reg.counter("cc.misses").inc(42)
    reg.gauge("fleet.link_utilization").set(0.25)
    text = to_prometheus(reg)
    assert "# TYPE repro_cc_misses_total counter" in text
    assert "repro_cc_misses_total 42" in text
    assert "# TYPE repro_fleet_link_utilization gauge" in text
    assert "repro_fleet_link_utilization 0.25" in text
    assert text.endswith("\n")


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("cc.miss_cycles")
    for v in (1, 2, 3, 100):
        h.observe(v)
    text = to_prometheus(reg)
    lines = text.splitlines()
    assert "# TYPE repro_cc_miss_cycles histogram" in lines
    buckets = [ln for ln in lines if "_bucket" in ln]
    # cumulative counts never decrease and end at +Inf == count
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == sorted(counts)
    assert buckets[-1] == 'repro_cc_miss_cycles_bucket{le="+Inf"} 4'
    assert "repro_cc_miss_cycles_sum 106" in lines
    assert "repro_cc_miss_cycles_count 4" in lines


def test_names_sanitized_and_sorted():
    reg = MetricsRegistry()
    reg.counter("b.metric-with dashes").inc(1)
    reg.counter("a.first").inc(1)
    text = to_prometheus(reg)
    assert "repro_b_metric_with_dashes_total 1" in text
    assert text.index("repro_a_first_total") < \
        text.index("repro_b_metric_with_dashes_total")


def test_empty_registry_is_empty_string():
    assert to_prometheus(MetricsRegistry()) == ""


def test_write_prometheus_roundtrip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("mc.requests").inc(7)
    out = tmp_path / "metrics.prom"
    write_prometheus(reg, out)
    assert out.read_text() == to_prometheus(reg)


def test_histogram_quantile_edge_cases():
    reg = MetricsRegistry()
    h = reg.histogram("cc.latency")
    # empty histogram: quantiles are 0.0, never a crash or NaN
    assert h.quantile(0.5) == 0.0
    assert h.quantile(0.99) == 0.0
    snap = h.snapshot()
    assert snap["count"] == 0 and snap["mean"] == 0.0
    # single observation: every quantile is its bucket bound
    h.observe(100)
    assert h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0)
    assert h.quantile(0.5) >= 100  # conservative upper bound


def test_gauge_overwrite_last_value_wins():
    reg = MetricsRegistry()
    g = reg.gauge("fleet.utilization")
    g.set(0.9)
    g.set(0.1)
    assert "repro_fleet_utilization 0.1\n" in to_prometheus(reg)
    assert "0.9" not in to_prometheus(reg)


# one Prometheus text-0.4 sample/comment line (promtool-style lint)
_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN))$")


def _lint(text):
    for line in text.splitlines():
        assert _LINE.match(line), f"unparseable exposition: {line!r}"


def test_every_line_parses_including_non_finite():
    reg = MetricsRegistry()
    reg.counter("cc.misses").inc(3)
    reg.gauge("weird.inf").set(math.inf)
    reg.gauge("weird.neg_inf").set(-math.inf)
    reg.gauge("weird.nan").set(math.nan)
    h = reg.histogram("cc.latency")
    h.observe(7)
    h.observe(2 ** 1500)  # bucket bound overflows float range
    text = to_prometheus(reg, build_info={"policy": "fifo"})
    _lint(text)
    # Python float spellings must never leak into the exposition
    assert "inf\n" not in text and "nan\n" not in text
    assert 'repro_weird_inf +Inf' in text
    assert 'repro_weird_neg_inf -Inf' in text
    assert 'repro_weird_nan NaN' in text
    # the overflowing bucket folds into +Inf and count still matches
    assert 'repro_cc_latency_bucket{le="+Inf"} 2' in text
    assert "repro_cc_latency_count 2" in text


def test_help_lines_precede_types():
    reg = MetricsRegistry()
    reg.counter("cc.translations").inc(5)
    lines = to_prometheus(reg).splitlines()
    help_idx = next(i for i, ln in enumerate(lines)
                    if ln.startswith("# HELP repro_cc_translations"))
    type_idx = next(i for i, ln in enumerate(lines)
                    if ln.startswith("# TYPE repro_cc_translations"))
    assert help_idx == type_idx - 1
    # curated metrics get real prose, not the generic fallback
    assert "mirrored from" not in lines[help_idx]


def test_build_info_gauge():
    reg = MetricsRegistry()
    reg.counter("cc.misses").inc(1)
    text = to_prometheus(reg, build_info={"policy": "fifo",
                                          "granularity": "block"})
    _lint(text)
    assert "# TYPE repro_build_info gauge" in text
    line = next(ln for ln in text.splitlines()
                if ln.startswith("repro_build_info{"))
    assert line.endswith(" 1")
    assert 'policy="fifo"' in line and 'granularity="block"' in line
    assert 'schema="' in line  # trace schema version always present
    # even without caller labels the schema is still stamped
    assert 'repro_build_info{schema="' in to_prometheus(reg)
    # an empty registry stays an empty exposition (back-compat)
    assert to_prometheus(MetricsRegistry()) == ""


def test_fleet_publish_exports(tmp_path):
    """End to end: a fleet run published into a registry scrapes with
    per-shard series present."""
    from repro.fleet import simulate_fleet
    from repro.softcache import SoftCacheConfig
    from repro.workloads import build_workload

    image = build_workload("sensor", 0.05)
    reg = MetricsRegistry()
    simulate_fleet(image, 3, SoftCacheConfig(tcache_size=8192),
                   shards=2, metrics=reg)
    text = to_prometheus(reg)
    assert "repro_fleet_clients_total 3" in text
    assert "repro_fleet_shard0_requests_total" in text
    assert "repro_fleet_shard1_requests_total" in text
    assert "repro_fleet_makespan_s" in text
