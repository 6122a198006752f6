"""Prometheus text-format exposition for the MetricsRegistry.

First slice of the ops plane: serialize a
:class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format (version 0.0.4 — the format every scraper and
``promtool`` accepts), the same way Open-CAS's ``extra/prometheus``
bridge exports its cache counters.  ``repro run --prom-out`` (also on
``trace``, ``fleet`` and ``chaos``) writes one snapshot after the run;
``repro run --serve HOST:PORT`` serves the same text live from
``/metrics`` mid-run.

Mapping:

* :class:`Counter` → ``counter`` (suffix ``_total`` per convention)
* :class:`Gauge` → ``gauge``
* :class:`Histogram` → ``histogram``: cumulative ``_bucket{le="..."}``
  series from the power-of-two buckets, plus ``_sum`` and ``_count``.

Metric names are sanitized (dots become underscores, everything
prefixed ``repro_``) so ``cc.misses`` scrapes as ``repro_cc_misses``.
Every series carries a ``# HELP`` line alongside ``# TYPE``, and a
``repro_build_info`` gauge pins the trace schema version (plus any
labels the caller supplies, e.g. the chunk granularity) the way exporters
conventionally do.
"""

from __future__ import annotations

import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Power-of-two bucket exponents at or above this bound do not fit in
#: a float; their observations are representable only by the +Inf
#: bucket (which always ends every histogram anyway).
_MAX_FLOAT_EXPONENT = 1024

#: Curated help strings for the best-known series; everything else
#: gets a generated line so every exported family still carries HELP.
_HELP_TEXTS = {
    "cc.translations": "Chunks translated and installed into the "
                       "tcache (demand + prefetch).",
    "cc.evictions": "Blocks evicted from the tcache (allocator-FIFO "
                    "victim order; evict-vs-flush is policy-directed).",
    "cc.flushes": "Whole-tcache flushes (flush policy, "
                  "stub exhaustion, admin flush/resize).",
    "cc.policy_prefetch_rejects": "Prefetch candidates rejected by "
                                  "the replacement policy at "
                                  "batch-assembly time (never shipped).",
    "cc.policy_promotions": "Addresses promoted to prefetch-eligible "
                            "(nhit crossing its touch threshold).",
    "cc.miss_traps": "Miss traps taken (branch/ret/call/landing).",
    "cc.miss_service_cycles": "Simulated cycles spent servicing "
                              "misses, all phases.",
    "cc.admin_commands": "Ops-plane admin commands applied at miss "
                         "boundaries.",
    "cc.miss_latency_cycles": "Per-miss service latency in simulated "
                              "cycles.",
    "cc.patch_distance_bytes": "Distance covered by backpatched "
                               "branch words.",
    "mc.requests": "Chunk requests served by the memory controller.",
    "mc.chunks_built": "Chunks rewritten (MC chunk-cache misses).",
    "link.exchanges": "Blocking RPC exchanges on the CC<->MC link.",
    "sim.instructions": "Guest instructions executed.",
    "sim.cycles": "Simulated CPU cycles elapsed.",
}


def _sanitize(name: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if not clean or not (clean[0].isalpha() or clean[0] in "_:"):
        clean = "_" + clean
    return f"repro_{clean}"


def _format_value(value) -> str:
    """One sample value, never emitting bare ``inf``/``nan``.

    The exposition format's only legal spellings are ``+Inf``,
    ``-Inf`` and ``NaN``; ``repr(float("inf"))`` would produce the
    bare ``inf`` scrapers reject, so the non-finite cases are handled
    explicitly before falling back to ``repr``.
    """
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return str(value)


def _help_text(name: str, kind: str) -> str:
    text = _HELP_TEXTS.get(name)
    if text is None:
        text = f"repro {kind} mirrored from the {name!r} metric."
    # HELP runs to end of line; escape per the exposition format
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus(registry: MetricsRegistry, *,
                  build_info: dict | None = None) -> str:
    """Serialize *registry* in the Prometheus text exposition format.

    *build_info* adds labels to the conventional ``repro_build_info``
    gauge (value always 1) beside the built-in ``schema`` label; pass
    None to emit only the schema version.  An empty registry with no
    build-info request serializes to the empty string.
    """
    lines: list[str] = []
    for metric in sorted(registry, key=lambda m: m.name):
        name = _sanitize(metric.name)
        if isinstance(metric, Counter):
            lines.append(f"# HELP {name}_total "
                         f"{_help_text(metric.name, 'counter')}")
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {name} "
                         f"{_help_text(metric.name, 'gauge')}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {name} "
                         f"{_help_text(metric.name, 'histogram')}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for exponent in sorted(metric.buckets):
                if exponent >= _MAX_FLOAT_EXPONENT:
                    # 2**exponent overflows float; these observations
                    # are covered by the +Inf bucket below
                    break
                cumulative += metric.buckets[exponent]
                le = _format_value(float(1 << exponent))
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_format_value(metric.total)}")
            lines.append(f"{name}_count {metric.count}")
    if lines or build_info is not None:
        labels = {"schema": _schema_version()}
        labels.update({str(k): str(v)
                       for k, v in (build_info or {}).items()})
        pairs = ",".join(f'{_NAME_RE.sub("_", k)}="{_escape_label(v)}"'
                         for k, v in sorted(labels.items()))
        lines.append("# HELP repro_build_info Build/schema identity "
                     "of this exporter (value is always 1).")
        lines.append("# TYPE repro_build_info gauge")
        lines.append(f"repro_build_info{{{pairs}}} 1")
    return "\n".join(lines) + "\n" if lines else ""


def _schema_version() -> str:
    from .events import TRACE_SCHEMA_VERSION
    return str(TRACE_SCHEMA_VERSION)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def write_prometheus(registry: MetricsRegistry, path, *,
                     build_info: dict | None = None) -> None:
    """Write one exposition snapshot of *registry* to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus(registry, build_info=build_info))
