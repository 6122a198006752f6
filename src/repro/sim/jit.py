"""The ISA-semantics table and the two emitters built from it.

Every opcode's meaning is written once, as expression text in the
tables below (:data:`_SB_ALU_R`, :data:`_SB_ALU_I`, :data:`_SB_LOADS`,
:data:`_SB_STORES`, :data:`_SB_BRANCH_COND`, :func:`_sb_term`).  Two
emitters fill in the operand texts:

* :func:`bind_insn` — the per-instruction dispatch entries.  One
  template function per (opcode, ``rd == zero`` variant) is compiled
  per process; each word binds its registers, immediate and memory
  accessor as default arguments.
* :func:`jit_codegen` — the superblock template-JIT, one specialized
  Python function per straight-line block.

The superblock template promotes every guest register the block
touches into a **Python local variable**: registers read before being
written are loaded once in a prologue, intermediate values flow
local-to-local, and modified registers are spilled back to ``r[...]``
only at the block's exits (terminator, fall-through, the
self-modification side exit after a store, and the fault fix-up
path).  Constants are folded
at generation time — ``LUI`` seeds a known constant, and any ALU op
whose sources are all known constants is evaluated during codegen by
``eval``-ing the *same expression text* that would otherwise be
emitted, so folding can never diverge from the runtime semantics.
Guards and side exits appear only where the architecture demands
them: at the branch terminator and at memory operations (which may
trap) — straight-line arithmetic runs unguarded and the simulated
(instruction, cycle) counters are accumulated as one batched literal
add per exit.

The generated function is *cycle-identical* to per-instruction
dispatch by construction: exit paths commit exactly the counts the
executed prefix would have produced, and a mid-block memory fault maps
the traceback line back to the faulting instruction, commits the
prefix counts, records the precise fault pc and spills the registers
that were architecturally written before the fault.

Blocks are generated per **shape**: the block's words with the target
field of a J/JAL/branch terminator masked out (:data:`SHAPE_MASKS`).
The target is not in the source; it is the function's last default
argument ``T`` (J/JAL: the absolute target; branch: the taken offset
from the block entry), bound per placement and rebound in place when
a backpatch rewrites the terminator without changing its shape.  Every
placement of one chunk — whatever its link targets — therefore shares
one code object.

Artifacts are pure functions of (cost table, shape words):
:data:`JIT_CODEGEN_VERSION` participates in every cache key, in-process
and on disk (:mod:`repro.sim.jitcache`), so changing the template here
can never resurrect stale generated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import FunctionType

from ..isa import Op, to_signed32
from ..isa.registers import RA

MASK32 = 0xFFFFFFFF

_M = "4294967295"       # MASK32 literal
_S = "2147483648"       # sign-flip literal

#: Bump on ANY change to the generated source or the fix-up table
#: layout: keys every in-memory and on-disk artifact cache.
#: v2: memory ops inline a bounds-checked fast path against one bound
#: data region (stack, typically) and only fall back to the accessor
#: call — and its self-modification guard — for addresses outside it.
#: v3: shape keys — J/JAL/branch targets come from the bound ``T``.
#: v4: immediates enter the ISA table's expression text unfolded.
JIT_CODEGEN_VERSION = 4


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return MASK32  # divide by zero -> -1 (RISC-V convention)
    sa, sb = to_signed32(a), to_signed32(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & MASK32


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = to_signed32(a), to_signed32(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & MASK32


# The ISA-semantics table: every opcode's meaning is written once, as
# expression text over operand texts.  jit_codegen fills in
# guest-register locals and literal immediates; the per-instruction
# templates of bind_insn fill in ``r[a]``, ``r[b]`` and ``i``.

#: R-type ALU: op -> (rs1 text, rs2 text) -> value expression.
_SB_ALU_R = {
    Op.ADD: lambda a, b: f"({a} + {b}) & {_M}",
    Op.SUB: lambda a, b: f"({a} - {b}) & {_M}",
    Op.AND: lambda a, b: f"{a} & {b}",
    Op.OR: lambda a, b: f"{a} | {b}",
    Op.XOR: lambda a, b: f"{a} ^ {b}",
    Op.NOR: lambda a, b: f"~({a} | {b}) & {_M}",
    Op.SLT: lambda a, b: f"1 if ({a} ^ {_S}) < ({b} ^ {_S}) else 0",
    Op.SLTU: lambda a, b: f"1 if {a} < {b} else 0",
    Op.SLL: lambda a, b: f"({a} << ({b} & 31)) & {_M}",
    Op.SRL: lambda a, b: f"{a} >> ({b} & 31)",
    Op.SRA: lambda a, b: f"(sgn({a}) >> ({b} & 31)) & {_M}",
    Op.MUL: lambda a, b: f"({a} * {b}) & {_M}",
    Op.DIV: lambda a, b: f"sdiv({a}, {b})",
    Op.REM: lambda a, b: f"srem({a}, {b})",
}

#: I-type ALU: op -> (rs1 text, immediate text) -> value expression.
#: A literal immediate folds at compile time (``(5) & 31``); SLTI's
#: ``i + 2**31`` is the sign-flipped immediate for every signed 32-bit
#: ``i``.  LUI ignores its rs1 text.
_SB_ALU_I = {
    Op.ADDI: lambda a, i: f"({a} + ({i})) & {_M}",
    Op.ANDI: lambda a, i: f"{a} & {i}",
    Op.ORI: lambda a, i: f"{a} | {i}",
    Op.XORI: lambda a, i: f"{a} ^ {i}",
    Op.SLTI: lambda a, i: f"1 if ({a} ^ {_S}) < ({i}) + {_S} else 0",
    Op.SLTIU: lambda a, i: f"1 if {a} < {i} else 0",
    Op.SLLI: lambda a, i: f"({a} << ({i} & 31)) & {_M}",
    Op.SRLI: lambda a, i: f"{a} >> ({i} & 31)",
    Op.SRAI: lambda a, i: f"(sgn({a}) >> ({i} & 31)) & {_M}",
    Op.LUI: lambda a, i: f"({i} << 16) & {_M}",
}

#: Helper names an ALU op's expression calls.
_SB_HELPERS = {Op.SRA: ("sgn",), Op.SRAI: ("sgn",), Op.DIV: ("sdiv",),
               Op.REM: ("srem",)}

#: Loads: op -> (accessor, fast view, fast-region read of address
#: ``a``, sign extension of the loaded value ``v`` or None).
_LOAD_W = "V[(a - B) >> 2] if B <= a < E and not a & 3 else rw(a)"
_LOAD_H = "H[(a - B) >> 1] if B <= a < E and not a & 1 else rh(a)"
_LOAD_B = "BUF[a - B] if B <= a < E else rb(a)"
_SB_LOADS = {
    Op.LW: ("rw", "V", _LOAD_W, None),
    Op.LH: ("rh", "H", _LOAD_H, f"(v - 65536) & {_M} if v & 32768 else v"),
    Op.LHU: ("rh", "H", _LOAD_H, None),
    Op.LB: ("rb", "BUF", _LOAD_B, f"(v - 256) & {_M} if v & 128 else v"),
    Op.LBU: ("rb", "BUF", _LOAD_B, None),
}

#: Stores: op -> (accessor, fast view, fast-region store of the value
#: text ``{}`` at address ``a``, masked to the access width).
_SB_STORES = {
    Op.SW: ("ww", "V", "if B <= a < E and not a & 3: V[(a - B) >> 2] = {}"),
    Op.SH: ("wh", "H",
            "if B <= a < E and not a & 1: H[(a - B) >> 1] = {} & 65535"),
    Op.SB: ("wb", "BUF", "if B <= a < E: BUF[a - B] = {} & 255"),
}

#: Accessor binding name -> the :class:`~repro.sim.memory.Memory`
#: method it stands for.
ACCESSORS = {"rw": "read_word", "rh": "read_half", "rb": "read_byte",
             "ww": "write_word", "wh": "write_half", "wb": "write_byte"}

_SB_BRANCH_COND = {
    Op.BEQ: lambda a, b: f"{a} == {b}",
    Op.BNE: lambda a, b: f"{a} != {b}",
    Op.BLT: lambda a, b: f"({a} ^ {_S}) < ({b} ^ {_S})",
    Op.BGE: lambda a, b: f"({a} ^ {_S}) >= ({b} ^ {_S})",
    Op.BLTU: lambda a, b: f"{a} < {b}",
    Op.BGEU: lambda a, b: f"{a} >= {b}",
}


def _addr(a, i) -> str:
    """Effective address of base text *a* plus offset text *i*."""
    return f"({a} + ({i})) & {_M}"


def _sb_term(op: Op, a: str, b: str, d, link: str, t: str) -> list[str]:
    """Statements that end a block (or a per-instruction template) at
    control transfer *op*.  *a*/*b* are the texts of the registers it
    reads (:func:`_reads`), *d* the JALR link register (None when it
    is ``zero``), *link* the fall-through pc and *t* the bound target
    (absolute for J/JAL, offset from ``pc`` for a branch)."""
    cond = _SB_BRANCH_COND.get(op)
    if cond is not None:
        return [f"return pc + {t} if {cond(a, b)} else {link}"]
    if op is Op.J:
        return [f"return {t}"]
    if op is Op.JAL:
        return [f"r[{RA}] = {link}", f"return {t}"]
    if op is Op.JALR and d is not None:
        # the target is read before the link is written (rd == rs1)
        return [f"v = {a}", f"r[{d}] = {link}", "return v"]
    return [f"return {a}"]  # JR, RET, JALR to zero


#: Straight-line instructions the fuser may place mid-block.
_SB_STRAIGHT_OPS = (frozenset(_SB_ALU_R) | frozenset(_SB_ALU_I) |
                    frozenset(_SB_LOADS) | frozenset(_SB_STORES))

#: Control transfers the fuser may inline as a block terminator.
_SB_TERM_OPS = (frozenset(_SB_BRANCH_COND) |
                frozenset({Op.J, Op.JAL, Op.JR, Op.JALR, Op.RET}))

#: Ops that write ``rd``: with ``rd == zero`` they take the discarding
#: template variant.
_RD_OPS = (frozenset(_SB_ALU_R) | frozenset(_SB_ALU_I) |
           frozenset(_SB_LOADS) | {Op.JALR})


def _reads(ins) -> tuple[int, int]:
    """The two source registers ``(a, b)`` of *ins* in table-operand
    order, ``zero`` where unused: a store's ``b`` is its value register
    and RET's ``a`` is ``ra``."""
    op = ins.op
    if op in _SB_ALU_R or op in _SB_BRANCH_COND:
        return ins.rs1, ins.rs2
    if op in _SB_STORES:
        return ins.rs1, ins.rd
    if op is Op.RET:
        return RA, 0
    if op in (Op.LUI, Op.J, Op.JAL):
        return 0, 0
    return ins.rs1, 0


_J_OPNUMS = frozenset({Op.J.value, Op.JAL.value})

#: Primary opcode of a terminator with a patchable target -> mask that
#: keeps everything but the target field: J/JAL keep the opcode, a
#: branch keeps opcode and registers.  ``word & mask`` is the word's
#: shape; blocks ending in such a word bind the target as ``T``.
SHAPE_MASKS: dict[int, int] = {
    **{n: 0xFC000000 for n in _J_OPNUMS},
    **{op.value: 0xFFFF0000 for op in _SB_BRANCH_COND},
}


def bound_target(word: int, toff: int) -> int:
    """The ``T`` bound for terminator *word* at block offset *toff*:
    the absolute target of a J/JAL, the taken offset from the block
    entry of a branch."""
    if word >> 26 in _J_OPNUMS:
        return (word & 0x03FFFFFF) << 2
    return toff + 4 + ((((word & 0xFFFF) ^ 0x8000) - 0x8000) << 2)


def taken_target(word: int, start: int, t: int) -> int:
    """Absolute taken target of a block at *start* whose terminator
    *word* (or its shape) binds *t*."""
    return t if word >> 26 in _J_OPNUMS else start + t


@dataclass
class JitStats:
    """Counters for compiled superblocks (published as ``cpu.jit_*``).

    The warm-run contract lives here: a process that finds every
    artifact in the persistent store ends a run with
    ``jit_codegen == 0`` and ``jit_disk_hits > 0``.
    """

    #: Block functions bound for this CPU (one per shape key).
    jit_blocks: int = 0
    #: Instructions covered by those blocks.
    jit_instructions: int = 0
    #: Source generations actually executed (cold compiles).
    jit_codegen: int = 0
    #: Artifacts reused from the in-process compiled cache.
    jit_mem_hits: int = 0
    #: Artifacts loaded from the persistent store (warm processes).
    jit_disk_hits: int = 0
    #: Artifacts written to the persistent store.
    jit_disk_stores: int = 0


#: Environment for generation-time constant folding, and the globals
#: of per-instruction templates: the exact helper objects the
#: generated code calls at runtime.
_CONST_ENV = {"sgn": to_signed32, "sdiv": _sdiv, "srem": _srem,
              "__builtins__": {}}

#: Source text -> compiled code object (JIT template instances).
_JIT_CODE_CACHE: dict[str, object] = {}

#: (op, discard variant) -> code object of the per-instruction template.
_INSN_CODE: dict[tuple[Op, bool], object] = {}


def _insn_code(op: Op, discard: bool):
    """Compile the per-instruction template of *op* from the tables:
    ``_i(pc, r, st, c, d, a, b, i, m) -> next pc`` over the registers
    ``r``, the stats cell ``st``, the cost ``c``, the destination
    ``d``, the sources ``a``/``b`` (:func:`_reads`), the immediate or
    bound target ``i`` and the memory accessor ``m``.  The *discard*
    variant (``rd == zero``) drops the result: an ALU op only counts,
    a load still reads (it may fault), JALR links nothing.  Stats are
    bumped before the memory access, so a faulting access counts."""
    body = ["st[0] += 1; st[1] += c"]
    if op in _SB_ALU_R or op in _SB_ALU_I:
        if not discard:
            expr = (_SB_ALU_R[op]("r[a]", "r[b]") if op in _SB_ALU_R
                    else _SB_ALU_I[op]("r[a]", "i"))
            body.append(f"r[d] = {expr}")
        body.append("return pc + 4")
    elif op in _SB_LOADS:
        read = f"m({_addr('r[a]', 'i')})"
        ext = _SB_LOADS[op][3]
        if discard:
            body.append(read)
        elif ext is None:
            body.append(f"r[d] = {read}")
        else:
            body += [f"v = {read}", f"r[d] = {ext}"]
        body.append("return pc + 4")
    elif op in _SB_STORES:
        body += [f"m({_addr('r[a]', 'i')}, r[b])", "return pc + 4"]
    else:
        body += _sb_term(op, "r[a]", "r[b]", None if discard else "d",
                         "pc + 4", "i")
    src = ("def _i(pc, r, st, c, d, a, b, i, m):\n"
           + "".join(f"    {line}\n" for line in body))
    ns: dict = {}
    exec(compile(src, f"<insn-{op.name.lower()}>", "exec"), ns)
    code = _INSN_CODE[(op, discard)] = ns["_i"].__code__
    return code


def bind_insn(ins, word: int, regs, stats, cost: int, accessors):
    """Per-instruction dispatch entry ``fn(pc) -> next pc`` for *ins*
    (decoded from *word*): its (op, variant) template bound to one
    CPU's registers, stats cell and memory *accessors* (binding name
    -> method, see :data:`ACCESSORS`).  A J/JAL/branch binds its
    :func:`bound_target` at offset 0, like a one-word block's ``T``."""
    op = ins.op
    discard = ins.rd == 0 and op in _RD_OPS
    code = _INSN_CODE.get((op, discard)) or _insn_code(op, discard)
    a, b = _reads(ins)
    i = bound_target(word, 0) if word >> 26 in SHAPE_MASKS else ins.imm
    mem_op = _SB_LOADS.get(op) or _SB_STORES.get(op)
    return FunctionType(code, _CONST_ENV, "_i",
                        (regs, stats, cost, ins.rd, a, b, i,
                         mem_op and accessors[mem_op[0]]))


def jit_codegen(costs, insns, term):
    """Generate ``(code object, fault fix-ups, source)`` for one
    superblock in the register-as-locals template.

    *insns* is a list of ``(offset, Insn)`` with offsets relative to
    the block entry; *term* is ``(offset, Insn)`` for an optional fused
    control-transfer terminator.  *costs* maps opcodes to cycle costs
    (baked into the batched stats literals).  A J/JAL/branch
    terminator's immediate is ignored: its target is read from the
    last parameter ``T`` (see :func:`bound_target`).

    The fix-up table maps a source line number (of a memory operation)
    to ``(offset, instructions, cycles, writebacks)`` where
    *writebacks* is a tuple of ``(reg, local-name-or-constant)`` pairs
    for every register architecturally written before that point.
    """
    # -- pre-scan: registers read before written (block live-ins) -----
    live_in: list[int] = []
    _seen: set[int] = set()
    written: set[int] = set()

    def note_read(reg: int) -> None:
        if reg and reg not in written and reg not in _seen:
            _seen.add(reg)
            live_in.append(reg)

    def note_write(reg: int) -> None:
        if reg:
            written.add(reg)

    for _off, ins in insns + ([term] if term is not None else []):
        for reg in _reads(ins):
            note_read(reg)
        if ins.op in _RD_OPS:
            note_write(ins.rd)

    # -- emission -----------------------------------------------------
    #: reg -> "x{reg}" (live local) or int (known constant).
    loc: dict[int, object] = {r: f"x{r}" for r in live_in}
    #: registers modified so far, in program order (spill set).
    dirty: dict[int, None] = {}
    body: list[str] = []
    used: set[str] = set()
    has_mem = False
    has_store = False
    tot_n = 0
    tot_c = 0
    #: (body index, offset, counts incl. the op, writebacks) per mem op.
    mem_marks: list[tuple[int, int, int, int, tuple]] = []

    def operand(reg: int) -> str:
        if reg == 0:
            return "0"
        v = loc[reg]
        return v if v.__class__ is str else str(v)

    def const_of(reg: int):
        if reg == 0:
            return 0
        v = loc.get(reg)
        return v if v.__class__ is int else None

    def snapshot() -> tuple:
        return tuple((r, loc[r]) for r in dirty)

    def addr_text(ins) -> str:
        base = const_of(ins.rs1)
        if base is not None:
            return str(eval(_addr(base, ins.imm), dict(_CONST_ENV)))
        return _addr(operand(ins.rs1), ins.imm)

    for off, ins in insns:
        op = ins.op
        tot_n += 1
        tot_c += costs[op]
        ra, rb = _reads(ins)
        if op in _SB_LOADS:
            reader, view, fast, ext = _SB_LOADS[op]
            used.add(reader)
            used.add(view)
            has_mem = True
            rd = ins.rd
            body.append(f"a = {addr_text(ins)}")
            # fast path: one bound data region (B, E, views supplied at
            # bind time) served by a direct memoryview index; anything
            # else — other regions, misalignment, faults — falls back to
            # the accessor call, which is the only part that can raise
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            if rd == 0:
                # read for fault semantics, discard the value
                body.append(f"v = {fast}")
                continue
            if ext is None:
                body.append(f"x{rd} = {fast}")
            else:
                body.append(f"v = {fast}")
                body.append(f"x{rd} = {ext}")
            loc[rd] = f"x{rd}"
            dirty[rd] = None
        elif op in _SB_STORES:
            writer, view, fast = _SB_STORES[op]
            used.add(writer)
            used.add(view)
            has_mem = True
            has_store = True
            val = operand(rb)
            body.append(f"a = {addr_text(ins)}")
            # the fast region is never executable, so an in-bounds store
            # cannot rewrite code and needs no self-modification check;
            # the slow path may have patched code (even this block):
            # spill the dirty registers, commit the executed prefix and
            # fall back to fresh dispatch so patched words take effect
            # exactly as they would under per-instruction decode
            body.append(fast.format(val))
            body.append("else:")
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            body.append(f"    {writer}(a, {val})")
            spill = "".join(f"r[{r}] = {operand(r)}; " for r in dirty)
            body.append(f"    if cw[0] != g: {spill}st[0] += {tot_n}; "
                        f"st[1] += {tot_c}; return pc + {off + 4}")
        else:
            rd = ins.rd
            if rd == 0:
                continue  # cost counted; architecturally a nop
            if op in _SB_ALU_R:
                expr = _SB_ALU_R[op](operand(ra), operand(rb))
            else:
                expr = _SB_ALU_I[op](operand(ra), ins.imm)
            if const_of(ra) is not None and const_of(rb) is not None:
                # every source is a known constant: evaluate the exact
                # expression the runtime would have executed
                loc[rd] = eval(expr, dict(_CONST_ENV))
            else:
                used.update(_SB_HELPERS.get(op, ()))
                body.append(f"x{rd} = {expr}")
                loc[rd] = f"x{rd}"
            dirty[rd] = None

    if term is not None:
        toff, tins = term
        top = tins.op
        tot_n += 1
        tot_c += costs[top]
        ra, rb = _reads(tins)
        body.append(f"st[0] += {tot_n}; st[1] += {tot_c}")
        body.extend(f"r[{r}] = {operand(r)}" for r in dirty)
        body.extend(_sb_term(top, operand(ra), operand(rb), tins.rd or None,
                             f"pc + {toff + 4}", "T"))
    else:
        body.append(f"st[0] += {tot_n}; st[1] += {tot_c}")
        body.extend(f"r[{r}] = {operand(r)}" for r in dirty)
        body.append(f"return pc + {insns[-1][0] + 4}")

    params = ["pc", "r=_r", "st=_st"]
    if has_store:
        params.append("cw=_cw")
    if has_mem:
        params.append("C=_C")
        params.append("F=_F")
        params.append("B=_fB")
        params.append("E=_fE")
    for name in ("rw", "rh", "rb", "ww", "wh", "wb",
                 "sgn", "sdiv", "srem"):
        if name in used:
            params.append(f"{name}=_{name}")
    for name in ("V", "H", "BUF"):
        if name in used:
            params.append(f"{name}=_f{name}")
    if term is not None and term[1].op.value in SHAPE_MASKS:
        params.append("T=_T")  # last: placements rebind only this

    lines = [f"def _sb({', '.join(params)}):"]
    n_prologue = 0
    if live_in:
        lines.append("    " + "; ".join(f"x{r} = r[{r}]"
                                        for r in live_in))
        n_prologue = 1
    fixups: dict[int, tuple] = {}
    if has_mem:
        if has_store:
            lines.append("    g = cw[0]")
        lines.append("    try:")
        lines.extend("        " + stmt for stmt in body)
        lines.append("    except Exception as e:")
        lines.append("        f = F.get(e.__traceback__.tb_lineno)")
        lines.append("        if f is not None:")
        lines.append("            st[0] += f[1]; st[1] += f[2]")
        lines.append("            C._fault_pc = pc + f[0]")
        lines.append("            if f[3]:")
        lines.append("                L = locals()")
        lines.append("                for _rg, _v in f[3]:")
        lines.append("                    r[_rg] = L[_v] "
                     "if _v.__class__ is str else _v")
        lines.append("        raise")
        # body line i sits at source line i + base (def line, optional
        # prologue, optional generation snapshot, try:, 1-based)
        base = 3 + n_prologue + (1 if has_store else 0)
        fixups = {i + base: (off, n, c, wb)
                  for i, off, n, c, wb in mem_marks}
    else:
        lines.extend("    " + stmt for stmt in body)
    src = "\n".join(lines) + "\n"

    code = _JIT_CODE_CACHE.get(src)
    if code is None:
        code = compile(src, "<superblock-jit>", "exec")
        _JIT_CODE_CACHE[src] = code
    return code, fixups, src
