"""The repro RISC CPU: a closure-caching, superblock-compiling interpreter.

Each instruction word is decoded once into a specialized Python closure
stored in a per-address decode cache.  On top of that sits a
**superblock layer**: at first dispatch of a pc, the straight-line run
of instructions starting there (up to and including the next control
transfer) is compiled by the template JIT (:mod:`repro.sim.jit`) into
one Python function with guest registers as locals, constants folded
and the instruction/cycle stats batched; the run loop is then
``pc = blocks[pc](pc)``.  ``superblocks=False``, traced runs,
:meth:`CPU.step` and TRAP/SYSCALL/BREAK/HALT words use the
per-instruction closures, so hook-visible state is exact at those
boundaries.

Compiled blocks are keyed by **shape**: their words with the target
field of a J/JAL/branch terminator masked.  The target is bound per
block as the function's last default argument ``T``, so every
placement of one chunk shares one code object.  Artifacts are pure
functions of (cost table, shape words) and persist in the trace-cache
directory (:mod:`repro.sim.jitcache`), so a warm process binds blocks
without running codegen.  Compilation changes host speed only, never
simulated counters.

Writes into executable regions (i.e. dynamic binary rewriting by the
SoftCache) invalidate the affected decode-cache entries *and every
superblock overlapping the written words*, so patched words and
``debug_poison`` BREAK words take effect exactly like they would on
real hardware with coherent fetch.  The one exception is a backpatch:
a word write that replaces a block's terminator with one of the same
shape rebinds that block's ``T`` in place instead of killing it.  A
store executed from inside a fused block re-checks a code-generation
counter so even self-modifying stores fall back to fresh decode
mid-block.

The CPU knows nothing about caching.  The SoftCache hooks in through
two narrow interfaces:

* ``trap_hook(cpu, code, operand, pc) -> next_pc`` — invoked by TRAP
  instructions (miss stubs, dcache ops);
* the executable-region permissions — in SoftCache mode only local RAM
  is executable, so any escape from the translation cache raises
  :class:`~repro.sim.errors.FetchFault` instead of silently running
  untranslated code.

Cycle accounting: every closure bumps an (instruction, cycle) stats
cell; runtime components charge additional cycles through
:meth:`CPU.add_cycles`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from types import FunctionType
from typing import Callable

from ..isa import Op, Trap, decode, to_signed32
from ..isa.registers import RA
from .costs import DEFAULT_COSTS, CostModel
from .errors import (
    BreakHit,
    CycleLimitExceeded,
    FetchFault,
    IllegalInstruction,
    SimError,
)
from .jit import (
    SHAPE_MASKS,
    JitStats,
    _SB_STRAIGHT_OPS,
    _SB_TERM_OPS,
    _sdiv,
    _srem,
    bound_target,
    jit_codegen,
    taken_target,
)
from . import jitcache
from .memory import Memory

MASK32 = 0xFFFFFFFF
_SIGN_FLIP = 0x80000000


class HaltExecution(Exception):
    """Raised internally to unwind the run loop on HALT/exit."""


TrapHook = Callable[["CPU", int, int, int], int]
SysHook = Callable[["CPU", int, int], int]

#: Word -> decoded Insn.  Insn is frozen, decoding is pure, and real
#: programs use a few thousand distinct words, so one process-wide memo
#: makes repeated decode (tcache retranslation after eviction) a dict
#: hit.  Words that fail to decode are not memoized.
_DECODE_MEMO: dict[int, object] = {}

#: Word -> fusion class (0 = straight-line, 1 = terminator, 2 = not
#: fusable / undecodable).  The block scanner consults this instead of
#: decoding, so retranslation churn (tcache thrash) classifies each
#: word with one dict hit.
_WORD_CLASS: dict[int, int] = {}

#: Max instructions fused into one superblock (prefix + terminator).
FUSE_LIMIT = 64

#: Bucket granularity of the block cover map: block spans are indexed
#: by 64-byte bucket, not by word, so registering/killing a block costs
#: O(span / 64B) dict operations instead of O(span / 4B).
_COVER_SHIFT = 6
#: Dispatches per instruction-limit check in the fast loop.
_CHUNK = 16384
#: With every fused block bounded by FUSE_LIMIT instructions, a chunk
#: of _CHUNK dispatches can execute at most this many instructions, so
#: the fast loop cannot overshoot the cap while more than this remains.
_SAFE_MARGIN = _CHUNK * FUSE_LIMIT


def _classify_word(word: int) -> int:
    """Decode *word* once and memoize its fusion class (and the Insn)."""
    ins = _DECODE_MEMO.get(word)
    if ins is None:
        try:
            ins = decode(word)
        except Exception:
            _WORD_CLASS[word] = 2
            return 2
        _DECODE_MEMO[word] = ins
    op = ins.op
    cls = 0 if op in _SB_STRAIGHT_OPS else 1 if op in _SB_TERM_OPS else 2
    _WORD_CLASS[word] = cls
    return cls


@dataclass
class SuperblockStats:
    """Fusion and invalidation counters for the superblock layer."""

    #: Superblocks compiled (>= 2 instructions fused into one function).
    fused_blocks: int = 0
    #: Total instructions covered by those superblocks.
    fused_instructions: int = 0
    #: Dispatch entries that stayed single per-instruction closures
    #: (TRAP/SYSCALL/BREAK/HALT words, lone control transfers).
    single_closures: int = 0
    #: Blocks killed because a code write overlapped their span.
    invalidated_blocks: int = 0
    #: Blocks whose bound target a same-shape terminator write rebound
    #: in place (instead of killing them).
    retargeted_blocks: int = 0
    #: Whole-cache flushes (tcache flush / invalidate_all_decoded).
    flushes: int = 0
    #: Executable-region write events seen by the invalidation hook.
    code_writes: int = 0

    @property
    def mean_block_length(self) -> float:
        """Mean fused instructions per superblock."""
        if not self.fused_blocks:
            return 0.0
        return self.fused_instructions / self.fused_blocks


class CPU:
    """A single in-order core executing the repro ISA."""

    def __init__(self, memory: Memory, costs: CostModel = DEFAULT_COSTS,
                 superblocks: bool = True):
        self.mem = memory
        self.costs = costs
        self.regs: list[int] = [0] * 32
        self.pc = 0
        self.exit_code: int | None = None
        #: [instructions executed, cycles consumed]
        self.stats = [0, 0]
        self.trap_hook: TrapHook | None = None
        self.sys_hook: SysHook | None = None
        #: Compile straight-line code into superblocks in :meth:`run`.
        self.superblocks = superblocks
        #: Content tag of the image this CPU executes (live code
        #: update): part of the in-process and persistent artifact
        #: keys, so artifacts from one image version can never be
        #: resurrected for another.  "" (native/unversioned runs)
        #: keeps legacy keys and filenames.
        self.image_tag = ""
        self.jit_stats = JitStats()
        self.sb_stats = SuperblockStats()
        #: Flight-recorder hook: ``hook(kind, pc, n)`` with kind one of
        #: "fuse" (superblock compiled, n = fused instructions),
        #: "sb_invalidate" (a code write killed the block at pc),
        #: "sb_retarget" (a backpatch rebound the block at pc, n = new
        #: target), "jit_compile"/"jit_load" (a shape's artifact was
        #: generated / loaded from disk) or "flush" (whole decode and
        #: superblock cache dropped).  None keeps the hot paths
        #: hook-free.
        self.trace_hook: Callable[[str, int, int], None] | None = None
        self._decoded: dict[int, Callable[[int], int]] = {}
        #: Superblock dispatch table: block-start pc -> function.
        self._blocks: dict[int, Callable[[int], int]] = {}
        #: Block-start pc -> end address (exclusive) of its span.
        self._block_span: dict[int, int] = {}
        #: 64-byte bucket (addr >> _COVER_SHIFT) -> set of block starts
        #: whose span touches the bucket; consumers filter candidates
        #: through ``_block_span`` for word precision.
        self._block_cover: dict[int, set[int]] = {}
        #: Terminator address -> starts of the live blocks that bind
        #: their ``T`` from the word there (the retarget index).
        self._block_term: dict[int, set[int]] = {}
        #: Generation counter cell, bumped on every code write; fused
        #: blocks re-check it after stores to catch self-modification.
        self._code_gen = [0]
        #: Precise pc of a fault raised from inside a fused block.
        self._fault_pc: int | None = None
        #: Reusable ``exec`` namespace for superblock binding (built
        #: lazily; generated code captures everything through default
        #: arguments, so one dict serves every bind).
        self._sb_exec_ns: dict | None = None
        #: Shape key -> this CPU's bound function for the shape.  Blocks
        #: with a ``T`` parameter get their own copy of it per
        #: placement; the others dispatch to it directly.
        self._sb_fns: dict[tuple[int, ...], Callable[[int], int]] = {}
        #: Block-start pc -> shape key of the compiled block there.
        self._block_key: dict[int, tuple[int, ...]] = {}
        #: Interned id of this CPU's per-op cost table; part of the
        #: module-level artifact cache key (costs are baked into the
        #: generated source as literals).
        sig = tuple(sorted((op.value, c) for op, c in
                           costs.op_cycles.items()))
        self._sb_cost_sig = sig
        self._sb_cost_tag = _COST_TAGS.setdefault(sig, len(_COST_TAGS))
        memory.code_write_hooks.append(self._invalidate_decoded)

    # -- public accounting ------------------------------------------------

    @property
    def icount(self) -> int:
        """Instructions executed so far."""
        return self.stats[0]

    @property
    def cycles(self) -> int:
        """Cycles consumed so far (instructions + runtime charges)."""
        return self.stats[1]

    def add_cycles(self, n: int) -> None:
        """Charge *n* runtime cycles (CC/MC work, link transfer time)."""
        self.stats[1] += n

    def halt(self, exit_code: int = 0) -> None:
        """Stop execution at the end of the current instruction."""
        self.exit_code = exit_code
        raise HaltExecution

    # -- register helpers (used by the SoftCache runtime) -----------------

    def get_reg(self, num: int) -> int:
        return self.regs[num]

    def set_reg(self, num: int, value: int) -> None:
        if num != 0:
            self.regs[num] = value & MASK32

    # -- decode cache -------------------------------------------------------

    def _invalidate_decoded(self, addr: int, length: int) -> None:
        """Code-write hook: drop closures and superblocks made stale by
        a write to ``[addr, addr + length)``.

        Every superblock whose span merely *overlaps* a patched word is
        killed, not just the block starting there — backpatched branch
        words and ``debug_poison`` BREAK words in the middle of a fused
        run must take effect on the next dispatch.  The exception is a
        write within one word that keeps the shape of the terminator
        blocks bind their ``T`` from: those blocks are retargeted in
        place (:meth:`_retarget`).
        """
        self._code_gen[0] += 1
        self.sb_stats.code_writes += 1
        lo = addr & ~3
        hi = addr + length
        pop = self._decoded.pop
        for a in range(lo, hi, 4):
            pop(a, None)
        kept = None
        if hi - lo <= 4:
            term_starts = self._block_term.get(lo)
            if term_starts:
                kept = self._retarget(lo, term_starts)
        cover_get = self._block_cover.get
        span_get = self._block_span.get
        kill = self._kill_block
        for bucket in range(lo >> _COVER_SHIFT,
                            ((hi - 1) >> _COVER_SHIFT) + 1):
            starts = cover_get(bucket)
            if starts:
                for start in tuple(starts):
                    if kept is not None and start in kept:
                        continue
                    end = span_get(start)
                    if end is not None and start < hi and end > lo:
                        kill(start)

    def _retarget(self, addr: int, starts: set[int]) -> set[int] | None:
        """Rebind ``T`` of every block in *starts* (all end at *addr*)
        to the new terminator word there, if it kept their shape.

        Returns *starts* when they were retargeted, None when the word
        changed shape and the blocks must die.  Every live block was
        built from the current memory contents, so all of *starts*
        share one shape and one check decides for all of them.
        """
        region = self.mem.region_at(addr)
        view = region.view32
        if view is not None:
            word = view[(addr - region.base) >> 2]
        else:
            off = addr - region.base
            word = int.from_bytes(region.buf[off:off + 4], "little")
        mask = SHAPE_MASKS.get(word >> 26)
        if mask is None or \
                self._block_key[next(iter(starts))][-1] != word & mask:
            return None
        blocks = self._blocks
        hook = self.trace_hook
        for start in starts:
            fn = blocks[start]
            target = bound_target(word, addr - start)
            fn.__defaults__ = fn.__defaults__[:-1] + (target,)
            if hook is not None:
                hook("sb_retarget", start, taken_target(word, start, target))
        self.sb_stats.retargeted_blocks += len(starts)
        return starts

    def _kill_block(self, start: int) -> None:
        self._blocks.pop(start, None)
        key = self._block_key.pop(start, None)
        end = self._block_span.pop(start, None)
        self.sb_stats.invalidated_blocks += 1
        if self.trace_hook is not None:
            self.trace_hook("sb_invalidate", start, 0)
        if end is None:
            return
        if key is not None and key[-1] >> 26 in SHAPE_MASKS:
            term_starts = self._block_term[end - 4]
            term_starts.discard(start)
            if not term_starts:
                del self._block_term[end - 4]
        cover = self._block_cover
        for bucket in range(start >> _COVER_SHIFT,
                            ((end - 1) >> _COVER_SHIFT) + 1):
            starts = cover.get(bucket)
            if starts is not None:
                starts.discard(start)
                if not starts:
                    del cover[bucket]

    def invalidate_all_decoded(self) -> None:
        """Drop every cached closure and superblock (tcache flush)."""
        self._decoded.clear()
        self._blocks.clear()
        self._block_span.clear()
        self._block_cover.clear()
        self._block_term.clear()
        self._block_key.clear()
        self._code_gen[0] += 1
        self.sb_stats.flushes += 1
        if self.trace_hook is not None:
            self.trace_hook("flush", 0, 0)

    def _decode_at(self, pc: int) -> Callable[[int], int]:
        region = self.mem.region_at(pc)  # raises MemoryFault if unmapped
        if not region.executable:
            raise FetchFault(pc, f"region '{region.name}' not executable")
        if pc & 3:
            raise FetchFault(pc, "misaligned pc")
        off = pc - region.base
        word = int.from_bytes(region.buf[off:off + 4], "little")
        ins = _DECODE_MEMO.get(word)
        if ins is None:
            try:
                ins = decode(word)
            except Exception as exc:
                raise IllegalInstruction(pc, word) from exc
            _DECODE_MEMO[word] = ins
        factory = _FACTORIES.get(ins.op)
        if factory is None:  # pragma: no cover - table is exhaustive
            raise IllegalInstruction(pc, word)
        fn = factory(self, ins, pc)
        self._decoded[pc] = fn
        return fn

    # -- superblock construction ------------------------------------------

    def _register_block(self, start: int, end: int,
                        fn: Callable[[int], int], fused: int
                        ) -> Callable[[int], int]:
        self._blocks[start] = fn
        self._block_span[start] = end
        cover = self._block_cover
        for bucket in range(start >> _COVER_SHIFT,
                            ((end - 1) >> _COVER_SHIFT) + 1):
            starts = cover.get(bucket)
            if starts is None:
                cover[bucket] = {start}
            else:
                starts.add(start)
        if fused:
            self.sb_stats.fused_blocks += 1
            self.sb_stats.fused_instructions += fused
            if self.trace_hook is not None:
                self.trace_hook("fuse", start, fused)
        else:
            self.sb_stats.single_closures += 1
        return fn

    def _build_block(self, pc: int) -> Callable[[int], int]:
        """Fuse the straight-line run starting at *pc* into one closure.

        Falls back to the per-instruction closure when the word at *pc*
        is a control transfer, a trap-class instruction, or fusion would
        cover fewer than two instructions.  Decode problems *inside* the
        straight-line run just end the block early; the offending word
        raises with exact pc/stats when (and only when) it is reached.
        """
        region = self.mem.region_at(pc)  # raises MemoryFault if unmapped
        if pc & 3 or not region.executable:
            # _decode_at raises the precise FetchFault
            return self._register_block(pc, pc + 4, self._decode_at(pc), 0)
        base, end, buf = region.base, region.end, region.buf
        view = region.view32
        classify = _WORD_CLASS.get
        # one batched fetch of the longest possible run, then a plain
        # list walk: far cheaper than per-word view indexing
        limit = min(FUSE_LIMIT, (end - pc) >> 2)
        i0 = (pc - base) >> 2
        if view is not None:
            chunk = view[i0:i0 + limit].tolist()
        else:
            lo = pc - base
            chunk = [int.from_bytes(buf[o:o + 4], "little")
                     for o in range(lo, lo + limit * 4, 4)]
        words: list[int] = []
        has_term = False
        straight = 0
        addr = pc
        for word in chunk:
            if straight >= FUSE_LIMIT - 1:
                break
            cls = classify(word)
            if cls is None:
                cls = _classify_word(word)
            if cls:
                if cls == 1:
                    words.append(word)
                    has_term = True
                # else TRAP/SYSCALL/BREAK/HALT or undecodable:
                # per-instruction only
                break
            words.append(word)
            straight += 1
            addr += 4
        fused = len(words)
        if fused < 2:
            return self._register_block(pc, pc + 4, self._decode_at(pc), 0)
        end_addr = addr + 4 if has_term else addr
        target = None
        if has_term:
            term = words[-1]
            mask = SHAPE_MASKS.get(term >> 26)
            if mask is not None:
                words[-1] = term & mask
                target = bound_target(term, addr - pc)
        key = tuple(words)
        fn = self._sb_fns.get(key)
        if fn is None:
            fn = self._bind_shape(key, pc)
        if target is not None:
            # a private copy: retargeting rebinds its defaults in place
            fn = FunctionType(fn.__code__, fn.__globals__, "_sb",
                              fn.__defaults__[:-1] + (target,))
            term_starts = self._block_term.get(addr)
            if term_starts is None:
                self._block_term[addr] = {pc}
            else:
                term_starts.add(pc)
        self._block_key[pc] = key
        return self._register_block(pc, end_addr, fn, fused)

    def _bind_shape(self, key: tuple[int, ...], pc: int
                    ) -> Callable[[int], int]:
        """Bind this CPU's function for a shape key: the in-process
        compiled cache, then the persistent artifact store, then
        (cold) codegen + store."""
        js = self.jit_stats
        cache_key = (self._sb_cost_tag, self.image_tag, key)
        cached = _SB_COMPILED.get(cache_key)
        kind = None
        if cached is not None:
            js.jit_mem_hits += 1
        else:
            digest = jitcache.artifact_key(self._sb_cost_sig, key,
                                           self.image_tag)
            cached = jitcache.load(digest)
            if cached is not None:
                js.jit_disk_hits += 1
                kind = "jit_load"
            else:
                cached = jit_codegen(self.costs.op_cycles,
                                     *_insns_for_key(key))
                js.jit_codegen += 1
                kind = "jit_compile"
                if jitcache.store(digest, *cached):
                    js.jit_disk_stores += 1
            _SB_COMPILED[cache_key] = cached
        fn = _bind_superblock(self, cached[0], cached[1])
        self._sb_fns[key] = fn
        js.jit_blocks += 1
        js.jit_instructions += len(key)
        if kind is not None and self.trace_hook is not None:
            self.trace_hook(kind, pc, len(key))
        return fn

    def superblock_info(self, pc: int) -> list[dict]:
        """Describe every live block whose span covers *pc* (for
        ``repro debug --dump-superblock``): start/end, kind
        ("compiled"/"single"), instruction count, the guest words, and
        for compiled blocks the bound target ``T`` (None without a
        J/JAL/branch terminator), the absolute taken target and the
        generated source every block of the shape shares."""
        span_get = self._block_span.get
        starts = sorted(
            s for s in self._block_cover.get(pc >> _COVER_SHIFT, ())
            if s <= pc < span_get(s, s + 4))
        out: list[dict] = []
        for start in starts:
            end = span_get(start, start + 4)
            key = self._block_key.get(start)
            info = {"start": start, "end": end, "kind": "single",
                    "instructions": (end - start) // 4, "T": None,
                    "target": None, "source": None,
                    "words": [self.mem.read_word(a)
                              for a in range(start, end, 4)]}
            if key is not None:
                cached = _SB_COMPILED.get(
                    (self._sb_cost_tag, self.image_tag, key))
                info["kind"] = "compiled"
                info["source"] = cached[2] if cached is not None else None
                if key[-1] >> 26 in SHAPE_MASKS:
                    t = self._blocks[start].__defaults__[-1]
                    info["T"] = t
                    info["target"] = taken_target(key[-1], start, t)
            out.append(info)
        return out

    def superblock_census(self) -> dict:
        """Counts over every live dispatch entry: the ops plane's
        ``/inspect/superblocks`` snapshot.  ``kinds`` splits the live
        blocks into "compiled" superblocks and "single"
        per-instruction entries; ``shapes`` is the number of distinct
        shape keys bound on this CPU.  Read-only over the dispatch
        tables."""
        compiled = len(self._block_key)
        return {
            "blocks": len(self._blocks),
            "kinds": {"compiled": compiled,
                      "single": len(self._blocks) - compiled},
            "shapes": len(self._sb_fns),
            "retargeted": self.sb_stats.retargeted_blocks,
            "jit_codegen": self.jit_stats.jit_codegen,
        }

    # -- execution ---------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000_000) -> int:
        """Run until HALT/exit; returns the exit code.

        Raises :class:`CycleLimitExceeded` once *max_instructions* have
        executed without halting (runaway-loop guard for tests).  The
        guard is exact at dispatch granularity: no new block is entered
        once the limit is reached, so a run can only exceed the cap by
        the tail of the final superblock (< ``FUSE_LIMIT``), and never
        at all with ``superblocks=False``.
        """
        if not self.superblocks:
            return self._run_per_instruction(max_instructions)
        lookup = self._blocks.get
        build = self._build_block
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                if remaining > _SAFE_MARGIN:
                    for _ in range(_CHUNK):
                        fn = lookup(pc)
                        if fn is None:
                            fn = build(pc)
                        pc = fn(pc)
                else:
                    while stats[0] < max_instructions:
                        fn = lookup(pc)
                        if fn is None:
                            fn = build(pc)
                        pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            fault_pc = self._fault_pc
            self._fault_pc = None
            self.pc = pc if fault_pc is None else fault_pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def _run_per_instruction(self, max_instructions: int) -> int:
        """Per-instruction dispatch loop (exact instruction cap)."""
        lookup = self._decoded.get
        decode_at = self._decode_at
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                for _ in range(_CHUNK if remaining > _CHUNK else remaining):
                    fn = lookup(pc)
                    if fn is None:
                        fn = decode_at(pc)
                    pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            self.pc = pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def run_traced(self, trace: array,
                   max_instructions: int = 2_000_000_000) -> int:
        """Like :meth:`run` but appends every executed pc to *trace*.

        *trace* should be ``array('I')``; it becomes the instruction
        fetch trace consumed by the hardware-cache simulator (Fig 6)
        and the block-trace extractor (Fig 7).  Always runs with
        per-instruction dispatch so the trace is complete, and enforces
        *max_instructions* exactly.
        """
        decoded = self._decoded
        decode_at = self._decode_at
        append = trace.append
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                for _ in range(_CHUNK if remaining > _CHUNK else remaining):
                    fn = decoded.get(pc)
                    if fn is None:
                        fn = decode_at(pc)
                    append(pc)
                    pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            self.pc = pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def step(self) -> None:
        """Execute exactly one instruction (debugger granularity)."""
        fn = self._decoded.get(self.pc)
        if fn is None:
            fn = self._decode_at(self.pc)
        try:
            self.pc = fn(self.pc)
        except HaltExecution:
            pass


# ---------------------------------------------------------------------------
# Closure factories, one per opcode.  Each returns ``fn(pc) -> next_pc``.
# The factories aggressively specialize: rd == zero becomes a pure nop
# with correct cost, constants are folded into the closure.
# ---------------------------------------------------------------------------

_Factory = Callable[["CPU", object, int], Callable[[int], int]]
_FACTORIES: dict[Op, _Factory] = {}


def _register(op: Op):
    def deco(fn: _Factory) -> _Factory:
        _FACTORIES[op] = fn
        return fn
    return deco


def _alu_factory(op: Op, compute):
    """Build a factory for a 3-register ALU op with semantics *compute*."""
    def factory(cpu: CPU, ins, pc: int):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        if rd == 0:
            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                return pc + 4
            return ex

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            regs[rd] = compute(regs[rs1], regs[rs2])
            return pc + 4
        return ex
    _FACTORIES[op] = factory
    return factory


_alu_factory(Op.ADD, lambda a, b: (a + b) & MASK32)
_alu_factory(Op.SUB, lambda a, b: (a - b) & MASK32)
_alu_factory(Op.AND, lambda a, b: a & b)
_alu_factory(Op.OR, lambda a, b: a | b)
_alu_factory(Op.XOR, lambda a, b: a ^ b)
_alu_factory(Op.NOR, lambda a, b: ~(a | b) & MASK32)
_alu_factory(Op.SLT,
             lambda a, b: 1 if (a ^ _SIGN_FLIP) < (b ^ _SIGN_FLIP) else 0)
_alu_factory(Op.SLTU, lambda a, b: 1 if a < b else 0)
_alu_factory(Op.SLL, lambda a, b: (a << (b & 31)) & MASK32)
_alu_factory(Op.SRL, lambda a, b: a >> (b & 31))
_alu_factory(Op.SRA,
             lambda a, b: (to_signed32(a) >> (b & 31)) & MASK32)
_alu_factory(Op.MUL, lambda a, b: (a * b) & MASK32)
_alu_factory(Op.DIV, _sdiv)
_alu_factory(Op.REM, _srem)


def _alui_factory(op: Op, compute):
    """Factory builder for register-immediate ALU ops."""
    def factory(cpu: CPU, ins, pc: int):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        if rd == 0:
            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                return pc + 4
            return ex

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            regs[rd] = compute(regs[rs1], imm)
            return pc + 4
        return ex
    _FACTORIES[op] = factory
    return factory


_alui_factory(Op.ADDI, lambda a, i: (a + i) & MASK32)
_alui_factory(Op.ANDI, lambda a, i: a & i)
_alui_factory(Op.ORI, lambda a, i: a | i)
_alui_factory(Op.XORI, lambda a, i: a ^ i)
_alui_factory(Op.SLTI,
              lambda a, i: 1 if (a ^ _SIGN_FLIP) < ((i & MASK32) ^ _SIGN_FLIP)
              else 0)
_alui_factory(Op.SLTIU, lambda a, i: 1 if a < i else 0)
_alui_factory(Op.SLLI, lambda a, i: (a << (i & 31)) & MASK32)
_alui_factory(Op.SRLI, lambda a, i: a >> (i & 31))
_alui_factory(Op.SRAI, lambda a, i: (to_signed32(a) >> (i & 31)) & MASK32)


@_register(Op.LUI)
def _f_lui(cpu: CPU, ins, pc: int):
    # LUI ignores rs1: specialize to a pure constant store instead of
    # the generic register-immediate closure (which would read a source
    # register it never uses).
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.LUI]
    rd = ins.rd
    value = (ins.imm << 16) & MASK32
    if rd == 0:
        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            return pc + 4
        return ex

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        regs[rd] = value
        return pc + 4
    return ex


def _load_factory(op: Op, reader_name: str, sign_bits: int | None):
    def factory(cpu: CPU, ins, pc: int):
        regs = cpu.regs
        st = cpu.stats
        mem = cpu.mem
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        read = getattr(mem, reader_name)
        if sign_bits is None:
            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                value = read((regs[rs1] + imm) & MASK32)
                if rd:
                    regs[rd] = value
                return pc + 4
        else:
            flip = 1 << (sign_bits - 1)
            wrap = 1 << sign_bits

            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                value = read((regs[rs1] + imm) & MASK32)
                if value & flip:
                    value = (value - wrap) & MASK32
                if rd:
                    regs[rd] = value
                return pc + 4
        return ex
    _FACTORIES[op] = factory


_load_factory(Op.LW, "read_word", None)
_load_factory(Op.LH, "read_half", 16)
_load_factory(Op.LHU, "read_half", None)
_load_factory(Op.LB, "read_byte", 8)
_load_factory(Op.LBU, "read_byte", None)


def _store_factory(op: Op, writer_name: str):
    def factory(cpu: CPU, ins, pc: int):
        regs = cpu.regs
        st = cpu.stats
        mem = cpu.mem
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        write = getattr(mem, writer_name)

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            write((regs[rs1] + imm) & MASK32, regs[rd])
            return pc + 4
        return ex
    _FACTORIES[op] = factory


_store_factory(Op.SW, "write_word")
_store_factory(Op.SH, "write_half")
_store_factory(Op.SB, "write_byte")


def _branch_factory(op: Op, test):
    def factory(cpu: CPU, ins, pc: int):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rs1, rs2 = ins.rs1, ins.rs2
        taken = pc + 4 + (ins.imm << 2)
        fallthrough = pc + 4

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            return taken if test(regs[rs1], regs[rs2]) else fallthrough
        return ex
    _FACTORIES[op] = factory


_branch_factory(Op.BEQ, lambda a, b: a == b)
_branch_factory(Op.BNE, lambda a, b: a != b)
_branch_factory(Op.BLT, lambda a, b: (a ^ _SIGN_FLIP) < (b ^ _SIGN_FLIP))
_branch_factory(Op.BGE, lambda a, b: (a ^ _SIGN_FLIP) >= (b ^ _SIGN_FLIP))
_branch_factory(Op.BLTU, lambda a, b: a < b)
_branch_factory(Op.BGEU, lambda a, b: a >= b)


@_register(Op.J)
def _f_j(cpu: CPU, ins, pc: int):
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.J]
    target = ins.imm << 2

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return target
    return ex


@_register(Op.JAL)
def _f_jal(cpu: CPU, ins, pc: int):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JAL]
    target = ins.imm << 2
    link = pc + 4

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        regs[RA] = link
        return target
    return ex


@_register(Op.JR)
def _f_jr(cpu: CPU, ins, pc: int):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JR]
    rs1 = ins.rs1

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return regs[rs1]
    return ex


@_register(Op.JALR)
def _f_jalr(cpu: CPU, ins, pc: int):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JALR]
    rd, rs1 = ins.rd, ins.rs1
    link = pc + 4

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        target = regs[rs1]
        if rd:
            regs[rd] = link
        return target
    return ex


@_register(Op.RET)
def _f_ret(cpu: CPU, ins, pc: int):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.RET]

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return regs[RA]
    return ex


@_register(Op.TRAP)
def _f_trap(cpu: CPU, ins, pc: int):
    st = cpu.stats
    code, operand = ins.rd, ins.imm

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += 1
        hook = cpu.trap_hook
        if hook is None:
            raise SimError(
                f"TRAP {Trap(code).name if code in Trap._value2member_map_ else code} "
                f"at pc={pc:#x} with no handler installed")
        return hook(cpu, code, operand, pc)
    return ex


@_register(Op.SYSCALL)
def _f_syscall(cpu: CPU, ins, pc: int):
    st = cpu.stats
    service = ins.imm

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += 1
        hook = cpu.sys_hook
        if hook is None:
            raise SimError(f"SYSCALL {service} with no handler installed")
        return hook(cpu, service, pc)
    return ex


@_register(Op.BREAK)
def _f_break(cpu: CPU, ins, pc: int):
    code = ins.imm

    def ex(pc: int) -> int:
        raise BreakHit(pc, code)
    return ex


@_register(Op.HALT)
def _f_halt(cpu: CPU, ins, pc: int):
    def ex(pc: int) -> int:
        cpu.stats[0] += 1
        cpu.stats[1] += 1
        cpu.halt(cpu.exit_code if cpu.exit_code is not None else 0)
        return pc  # pragma: no cover - halt() raises
    return ex


# ---------------------------------------------------------------------------
# Superblock binding.  Generation lives in :mod:`repro.sim.jit`; this
# side keeps the in-process artifact cache and binds a code object to
# one CPU's registers, stats and memory.
# ---------------------------------------------------------------------------

#: (cost tag, image tag, shape key) -> the ``(code, fixups, src)``
#: triple produced by :func:`jit_codegen` (or loaded from the
#: persistent store in :mod:`repro.sim.jitcache`).  Lets a fresh CPU
#: (new benchmark round, new client system) skip codegen for shapes
#: seen under the same cost model; only the per-CPU ``exec`` runs.
_SB_COMPILED: dict[tuple, tuple[object, dict, str]] = {}

#: Cost-table signature -> small interned tag (see CPU._sb_cost_tag).
_COST_TAGS: dict[tuple, int] = {}


def _insns_for_key(key: tuple[int, ...]):
    """Re-derive the relative ``(offset, Insn)`` list and the optional
    terminator from a shape key.  The fuser only ever places a control
    transfer last, so the split is unambiguous (a masked terminator
    word still decodes to its opcode and registers)."""
    memo = _DECODE_MEMO
    insns: list[tuple[int, object]] = []
    term: tuple[int, object] | None = None
    last = len(key) - 1
    for i, word in enumerate(key):
        ins = memo.get(word)
        if ins is None:
            ins = decode(word)
            memo[word] = ins
        if i == last and ins.op in _SB_TERM_OPS:
            term = (4 * i, ins)
        else:
            insns.append((4 * i, ins))
    return insns, term


def _bind_superblock(cpu: CPU, code, fixups):
    """``exec`` a generated superblock code object against this CPU's
    registers/stats/memory and return the bound function.

    The namespace dict is built once per CPU and reused for every
    bind: generated functions capture their bindings as default
    arguments at ``exec`` time, so mutating ``_F`` between binds
    cannot affect already-bound blocks.  ``_T`` is a placeholder:
    blocks with a target parameter are copied per placement with
    their own ``T``."""
    ns = cpu._sb_exec_ns
    if ns is None:
        mem = cpu.mem
        # the template's inline memory fast path binds one region:
        # the largest plain-RAM mapping (readable, writable, never
        # executable — so in-bounds stores cannot rewrite code and the
        # views can be indexed without permission checks).  Everything
        # else takes the accessor slow path.  With no candidate, the
        # empty interval [1, 0) routes every access to the accessors.
        fast = None
        for region in mem.regions:
            if (region.readable and region.writable
                    and not region.executable
                    and region.view32 is not None
                    and region.view16 is not None
                    and (fast is None or region.size > fast.size)):
                fast = region
        ns = cpu._sb_exec_ns = {
            "_r": cpu.regs, "_st": cpu.stats, "_cw": cpu._code_gen,
            "_C": cpu, "_F": fixups, "_rw": mem.read_word,
            "_rh": mem.read_half, "_rb": mem.read_byte,
            "_ww": mem.write_word, "_wh": mem.write_half,
            "_wb": mem.write_byte, "_sgn": to_signed32, "_sdiv": _sdiv,
            "_srem": _srem, "_T": 0,
            "_fB": fast.base if fast else 1,
            "_fE": fast.end_addr if fast else 0,
            "_fV": fast.view32 if fast else None,
            "_fH": fast.view16 if fast else None,
            "_fBUF": fast.buf if fast else None,
        }
    else:
        ns["_F"] = fixups
    exec(code, ns)
    return ns["_sb"]
