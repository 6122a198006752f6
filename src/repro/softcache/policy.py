"""Pluggable replacement/promotion policies for the translation cache.

The tcache is a circular FIFO allocator of variable-size blocks: code
is placed at a moving tail and reclaimed only from the head, because
every resident block is pinned in place by the patched branch words
that target it.  A policy therefore cannot pick an arbitrary victim —
the allocator forces the head block — but it *does* own every other
decision on the eviction/admission path:

* **prefetch admission** (:meth:`ReplacementPolicy.admit_prefetch`) —
  whether a non-resident successor chunk may ride a batched miss
  reply.  This is the real lever against the pollution
  ``BENCH_softcache.json`` shows at deep ``prefetch_depth`` on small
  tcaches: a rejected candidate is filtered at batch-assembly time,
  so its bytes are never even shipped over the link.
* **evict vs flush** (:meth:`ReplacementPolicy.on_evict_candidate`) —
  when space is needed, whether to retire the forced head victim or
  drop the whole cache at once (the Dynamo-style preemptive flush).
* **metadata/promotion tracking** (:meth:`on_install` /
  :meth:`on_hit` / :meth:`on_evict` / :meth:`on_flush`) — per-block
  or per-address state such as touch counts.

Two policies beyond the seed pair:

* ``fifo`` — the seed path as a policy object: every hook is a no-op
  and the admission predicate is the raw residency check, so a run is
  bit-identical to the baked-in implementation it replaced
  (``tests/test_eviction_equivalence.py`` pins this word for word).
* ``flush`` — the seed drop-everything policy: the first eviction
  candidate answers "flush".
* ``nhit`` — Open-CAS-style promotion: a chunk's original address
  must be touched (demand-installed or re-entered) ``n`` times before
  it earns prefetch admission.  Touch history deliberately persists
  across evictions and flushes — that is the whole point of the
  policy — and is cleared only by :meth:`reset` (admin resize).
* ``seqcutoff`` — sequential cutoff: installs are watched for
  sequential runs (chunk.orig picking up exactly where the previous
  install ended); once a run reaches the cutoff, prefetch candidates
  that would extend it are rejected (streaming code evicts itself
  before it is re-entered, so speculating on it is pure waste).

Policies only shape *which* chunks are speculatively resident and
*when* the cache is dropped — never what the program computes.  The
policy-differential tests pin that program output and exit code are
identical across every policy.  (Instruction counts are *not*
invariant: miss traps execute guest instructions, and the trap
pattern legitimately differs per policy.)
"""

from __future__ import annotations

from .records import TBlock

#: :meth:`ReplacementPolicy.on_evict_candidate` verdicts.
EVICT = "evict"
FLUSH = "flush"


class ReplacementPolicy:
    """Interface of an eviction/promotion policy (no-op defaults).

    The controller calls :meth:`bind` once at attach time; after that
    every hook may use ``self.cc`` (stats, tracer, tcache).  Hooks on
    the miss path must never charge simulated cycles themselves — the
    controller owns the cost model — and must never mutate blocks or
    the allocator; they own only their private metadata.
    """

    #: Registry name (overridden by subclasses).
    name = "base"
    #: True when :meth:`admit_prefetch` can reject: the controller
    #: then wraps the batch residency predicate.  False keeps the
    #: seed fast path (the raw bound method, zero indirection).
    filters_prefetch = False

    def __init__(self):
        self.cc = None

    def bind(self, cc) -> None:
        """Attach to a controller (stats/tracer/tcache access)."""
        self.cc = cc

    # -- lifecycle hooks ---------------------------------------------------

    def on_install(self, block: TBlock, *, prefetched: bool) -> None:
        """A chunk was installed (demand or speculative)."""

    def on_hit(self, block: TBlock) -> None:
        """A trap/patch re-entry found *block* resident (map hit)."""

    def on_evict_candidate(self, block: TBlock) -> str:
        """Space is needed and *block* is the allocator-forced victim.

        Return :data:`EVICT` to retire it or :data:`FLUSH` to drop
        the whole cache instead (the controller then stops evicting).
        """
        return EVICT

    def on_evict(self, block: TBlock) -> None:
        """*block* was retired; drop any metadata keyed on it."""

    def on_flush(self) -> None:
        """The whole cache was dropped; per-block metadata is stale."""

    # -- prefetch admission ------------------------------------------------

    def admit_prefetch(self, orig: int) -> bool:
        """May the non-resident chunk at *orig* ride a batched reply?

        Consulted at batch-assembly time (a rejection saves the link
        bytes, not just the install).  Only called when
        :attr:`filters_prefetch` is True.
        """
        return True

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Admin resize: clear *all* metadata, including any
        per-address history that survives ordinary flushes."""
        self.on_flush()

    def snapshot(self) -> dict:
        """JSON-serializable policy state for ``/inspect/tcache``."""
        return {"name": self.name}

    def audit(self, resident) -> list[str]:
        """Consistency check: return problems (stale metadata that
        references blocks not in *resident*), empty when clean."""
        return []


class FifoPolicy(ReplacementPolicy):
    """The seed path as an object: evict the head, admit everything."""

    name = "fifo"


class FlushPolicy(ReplacementPolicy):
    """The seed drop-everything policy: never evict piecemeal."""

    name = "flush"

    def on_evict_candidate(self, block: TBlock) -> str:
        return FLUSH


class NhitPolicy(ReplacementPolicy):
    """Admit prefetch only after *n* demonstrated touches.

    Touch counts are keyed by original address and persist across
    evictions and flushes **by design** (an address that keeps coming
    back is exactly the one worth speculating on); only
    :meth:`reset` — the admin-resize boundary — clears them.
    """

    name = "nhit"

    def __init__(self, n: int = 2):
        super().__init__()
        if n < 1:
            raise ValueError("nhit threshold must be >= 1")
        self.n = n
        self.filters_prefetch = True
        self.touches: dict[int, int] = {}

    def _touch(self, orig: int) -> None:
        count = self.touches.get(orig, 0) + 1
        self.touches[orig] = count
        if count == self.n:
            cc = self.cc
            cc.stats.policy_promotions += 1
            if cc.tracer is not None:
                cc.tracer.emit("cc.policy_promote", "cc", orig=orig,
                               touches=count)

    def on_install(self, block: TBlock, *, prefetched: bool) -> None:
        if not prefetched:       # a demand install is a real touch
            self._touch(block.orig)

    def on_hit(self, block: TBlock) -> None:
        self._touch(block.orig)

    def admit_prefetch(self, orig: int) -> bool:
        return self.touches.get(orig, 0) >= self.n

    def reset(self) -> None:
        self.touches.clear()

    def snapshot(self) -> dict:
        promoted = sum(1 for c in self.touches.values() if c >= self.n)
        return {"name": self.name, "n": self.n,
                "tracked_origs": len(self.touches),
                "promoted_origs": promoted}


class SeqCutoffPolicy(ReplacementPolicy):
    """Reject prefetch that extends long sequential install runs.

    Tracks the install stream: a chunk whose original address starts
    exactly where the previous install ended extends the current
    sequential run.  Once the run reaches *cutoff* chunks, prefetch
    candidates that would extend it further are rejected — streaming
    code marches through the cache once and is evicted before any
    re-entry, so speculating ahead of it only pollutes the tcache.
    """

    name = "seqcutoff"

    def __init__(self, cutoff: int = 4):
        super().__init__()
        if cutoff < 1:
            raise ValueError("seqcutoff cutoff must be >= 1")
        self.cutoff = cutoff
        self.filters_prefetch = True
        self._run = 0
        self._next_seq: int | None = None

    def on_install(self, block: TBlock, *, prefetched: bool) -> None:
        if block.orig == self._next_seq:
            self._run += 1
        else:
            self._run = 1
        self._next_seq = block.orig + block.orig_size

    def admit_prefetch(self, orig: int) -> bool:
        return not (self._run >= self.cutoff and orig == self._next_seq)

    def on_flush(self) -> None:
        self._run = 0
        self._next_seq = None

    def snapshot(self) -> dict:
        return {"name": self.name, "cutoff": self.cutoff,
                "run_length": self._run, "next_seq": self._next_seq}


#: The one registry every entry point validates against: CLI choices,
#: admin ``set``, :class:`~repro.softcache.system.SoftCacheConfig` and
#: the controller constructor all resolve names here.
POLICIES: dict[str, type[ReplacementPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    FlushPolicy.name: FlushPolicy,
    NhitPolicy.name: NhitPolicy,
    SeqCutoffPolicy.name: SeqCutoffPolicy,
}


def policy_names() -> tuple[str, ...]:
    """Valid policy names, sorted (CLI choices, error messages)."""
    return tuple(sorted(POLICIES))


def validate_policy_name(name) -> str:
    """Return *name* if registered, else raise with the valid set."""
    if name not in POLICIES:
        raise ValueError(
            f"unknown policy {name!r}; valid policies: "
            f"{', '.join(policy_names())}")
    return name


def make_policy(policy) -> ReplacementPolicy:
    """Resolve a name to a default-constructed policy or pass through
    an already-built :class:`ReplacementPolicy` instance."""
    if isinstance(policy, ReplacementPolicy):
        return policy
    validate_policy_name(policy)
    return POLICIES[policy]()
