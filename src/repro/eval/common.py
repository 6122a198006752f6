"""Shared experiment infrastructure: cached native runs and traces.

Native fetch traces are expensive (one interpreter pass per workload),
so every figure that consumes them (Table 1, Figs 6, 7, 9) shares one
trace per (workload, scale) through this module's cache.  The cache
has two layers:

* an in-process memoization dict (same semantics as before), and
* a persistent on-disk store (``.cache/traces/`` by default, override
  with ``$REPRO_TRACE_CACHE`` or :func:`set_trace_cache_dir`) so a
  fresh process — a new benchmark invocation, a worker in a parallel
  sweep — replays the trace from disk instead of re-interpreting.

Disk entries are keyed by a content hash of the *built workload image*
(text, data, layout, entry), the scale, the ARM-profile flag, the cost
model and :data:`_CACHE_VERSION`; changing any of those naturally
invalidates the entry.  Disk I/O is best-effort: a read-only or
corrupt cache silently falls back to a live traced run.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..asm.image import Image
from ..sim import jitcache
from ..sim.costs import DEFAULT_COSTS
from ..sim.machine import Machine
from ..workloads import build_workload

#: Bump whenever the stored format or trace semantics change: every
#: existing on-disk entry becomes unreachable (stale entries are also
#: deleted by :func:`sweep_stale_cache_versions`, which runs on every
#: store).  v2: the version moved into the *filename*
#: (``trace-v{N}-{digest}.npz``) so the directory is shared with the
#: JIT's compiled-superblock artifacts (``jit-*``,
#: :mod:`repro.sim.jitcache`) without any chance of collision, and so
#: stale generations are enumerable.  v3: the image's canonical
#: content digest (:func:`repro.softcache.update.image_digest` — the
#: identity the live-update epoch machinery uses) joined the key
#: material, so a republished image version can never alias a
#: pre-update trace entry even if a future refactor drops the raw
#: byte hashing below.
_CACHE_VERSION = 3


@dataclass
class TraceRun:
    """A native run with its full instruction fetch trace."""

    workload: str
    scale: float
    image: Image
    trace: np.ndarray          # uint32 fetch addresses
    instructions: int
    cycles: int
    output: str
    exit_code: int

    @property
    def dynamic_text_bytes(self) -> int:
        return 4 * int(np.unique(self.trace).size)


_trace_cache: dict[tuple[str, float, bool], TraceRun] = {}

#: Names of this cache's own entries: versioned traces, plus the bare
#: sha256 names of pre-v2 generations.  Sweeps and clears touch nothing
#: else — the directory may be shared, even the working directory.
_OWN_NAME = re.compile(r"trace-v\d+-.+\.npz|[0-9a-f]{64}\.npz")


def trace_cache_dir() -> Path:
    """Directory holding persistent trace entries: the JIT artifact
    store's directory (:func:`repro.sim.jitcache.artifact_dir`)."""
    return jitcache.artifact_dir()


def set_trace_cache_dir(path: "os.PathLike | str | None") -> None:
    """Override the on-disk cache directory (``None`` restores the
    default / ``$REPRO_TRACE_CACHE`` behaviour).  The native-trace
    store and the JIT's compiled-superblock store share one directory,
    so tests and sweeps redirect both with one call."""
    jitcache.set_artifact_dir(path)


def _trace_entries(directory: Path) -> list[Path]:
    """This cache's entries in *directory*, of every generation."""
    return [entry for entry in directory.glob("*.npz")
            if _OWN_NAME.fullmatch(entry.name)]


def _trace_key(workload: str, scale: float, arm_profile: bool,
               image: Image, max_instructions: int) -> str:
    """Content hash identifying one traced run."""
    from ..softcache.update import image_digest
    costs = ",".join(
        f"{op.name}:{cyc}" for op, cyc in
        sorted(DEFAULT_COSTS.op_cycles.items(), key=lambda kv: kv[0].name))
    h = hashlib.sha256()
    h.update((f"v{_CACHE_VERSION}|{workload}|{scale!r}|{arm_profile}|"
              f"{max_instructions}|{image.entry}|{image.text_base}|"
              f"{image.data_base}|{image.bss_base}|{image.bss_size}|"
              f"{image_digest(image)}|{costs}|").encode())
    h.update(image.text)
    h.update(b"|")
    h.update(image.data)
    return h.hexdigest()


def _load_disk(path: Path, workload: str, scale: float,
               image: Image) -> TraceRun | None:
    try:
        with np.load(path) as npz:
            return TraceRun(
                workload=workload, scale=scale, image=image,
                trace=npz["trace"].astype(np.uint32, copy=True),
                instructions=int(npz["instructions"]),
                cycles=int(npz["cycles"]),
                output=npz["output"].tobytes().decode("latin-1"),
                exit_code=int(npz["exit_code"]))
    except Exception:
        return None  # corrupt / truncated entry: re-run live


def _store_disk(path: Path, run: TraceRun) -> bool:
    """Persist *run* atomically; best-effort (read-only checkout, full
    disk, unencodable output), like the JIT store."""
    return jitcache.write_atomic(path, lambda fh: np.savez_compressed(
        fh,
        trace=run.trace,
        instructions=np.int64(run.instructions),
        cycles=np.int64(run.cycles),
        exit_code=np.int64(run.exit_code),
        output=np.frombuffer(run.output.encode("latin-1"),
                             dtype=np.uint8)))


def native_trace(workload: str, scale: float = 1.0, *,
                 arm_profile: bool = False,
                 max_instructions: int = 200_000_000) -> TraceRun:
    """Run *workload* natively with a fetch trace (memoized, both
    in-process and persistently on disk)."""
    key = (workload, scale, arm_profile)
    run = _trace_cache.get(key)
    if run is not None:
        return run
    image = build_workload(workload, scale, arm_profile=arm_profile)
    digest = _trace_key(workload, scale, arm_profile, image,
                        max_instructions)
    path = trace_cache_dir() / f"trace-v{_CACHE_VERSION}-{digest}.npz"
    run = _load_disk(path, workload, scale, image) if path.is_file() \
        else None
    if run is None:
        machine = Machine(image)
        exit_code, trace = machine.run_traced(max_instructions)
        run = TraceRun(
            workload=workload, scale=scale, image=image,
            trace=np.frombuffer(trace, dtype=np.uint32).copy(),
            instructions=machine.cpu.icount, cycles=machine.cpu.cycles,
            output=machine.output_text, exit_code=exit_code)
        _store_disk(path, run)
        sweep_stale_cache_versions()
    _trace_cache[key] = run
    return run


def clear_trace_cache(disk: bool = False) -> None:
    """Drop the in-process cache; with *disk*, also delete the
    persistent entries under :func:`trace_cache_dir`."""
    _trace_cache.clear()
    if disk:
        for entry in _trace_entries(trace_cache_dir()):
            try:
                entry.unlink()
            except OSError:
                pass


def sweep_stale_cache_versions(directory: "os.PathLike | str | None"
                               = None) -> int:
    """Evict artifacts written by other cache generations: trace
    entries whose filename version isn't :data:`_CACHE_VERSION`
    (including pre-v2 bare-digest names) and JIT superblock artifacts
    from other codegen versions / interpreters
    (:func:`repro.sim.jitcache.sweep_stale`).  Other files are never
    touched.  Returns the number of files removed; best-effort, never
    raises on I/O errors."""
    directory = (Path(directory) if directory is not None
                 else trace_cache_dir())
    removed = jitcache.sweep_stale(directory)
    keep = f"trace-v{_CACHE_VERSION}-"
    for entry in _trace_entries(directory):
        if entry.name.startswith(keep):
            continue
        try:
            entry.unlink()
        except OSError:
            continue
        removed += 1
    return removed
