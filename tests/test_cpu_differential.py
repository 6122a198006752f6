"""Differential testing of CPU semantics against the ISA spec.

Hypothesis generates random programs of ALU ops, loads and forward
branches, with register values biased to the sign boundary; the
simulator executes them under both dispatch paths and the results are
compared register-by-register against an independent golden model
written directly from the ISA spec.  Both paths derive from one
expression table, so comparing them with each other cannot catch a
wrong expression — this test can.  Any divergence in wrapping, sign
extension, shift masking, division conventions or branch conditions
shows up here.
"""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble_and_link
from repro.isa import Insn, Op, encode
from repro.sim import Machine, MachineConfig

MASK32 = 0xFFFFFFFF

_ALU_R = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
          Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.DIV, Op.REM]
_ALU_I = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU,
          Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI]

# registers we let programs touch (avoid zero/ra/sp/fp/at/kt)
_REGS = list(range(8, 16)) + list(range(16, 24))


def _signed(x):
    return x - 0x100000000 if x & 0x80000000 else x


def golden_alu(op, a, b):
    """Independent semantics, straight from docs/ISA.md."""
    if op is Op.ADD:
        return (a + b) & MASK32
    if op is Op.SUB:
        return (a - b) & MASK32
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.NOR:
        return ~(a | b) & MASK32
    if op is Op.SLT:
        return int(_signed(a) < _signed(b))
    if op is Op.SLTU:
        return int(a < b)
    if op is Op.SLL:
        return (a << (b & 31)) & MASK32
    if op is Op.SRL:
        return a >> (b & 31)
    if op is Op.SRA:
        return (_signed(a) >> (b & 31)) & MASK32
    if op is Op.MUL:
        return (a * b) & MASK32
    if op is Op.DIV:
        if b == 0:
            return MASK32
        q = abs(_signed(a)) // abs(_signed(b))
        if (_signed(a) < 0) != (_signed(b) < 0):
            q = -q
        return q & MASK32
    if op is Op.REM:
        if b == 0:
            return a
        r = abs(_signed(a)) % abs(_signed(b))
        if _signed(a) < 0:
            r = -r
        return r & MASK32
    raise AssertionError(op)


def golden_alui(op, a, imm):
    if op is Op.ADDI:
        return (a + imm) & MASK32
    if op is Op.ANDI:
        return a & imm
    if op is Op.ORI:
        return a | imm
    if op is Op.XORI:
        return a ^ imm
    if op is Op.SLTI:
        return int(_signed(a) < imm)
    if op is Op.SLTIU:
        return int(a < imm)
    if op is Op.SLLI:
        return (a << (imm & 31)) & MASK32
    if op is Op.SRLI:
        return a >> (imm & 31)
    if op is Op.SRAI:
        return (_signed(a) >> (imm & 31)) & MASK32
    if op is Op.LUI:
        return (imm << 16) & MASK32
    raise AssertionError(op)


def golden_branch(op, a, b):
    """Whether a conditional branch is taken, from docs/ISA.md."""
    if op is Op.BEQ:
        return a == b
    if op is Op.BNE:
        return a != b
    if op is Op.BLT:
        return _signed(a) < _signed(b)
    if op is Op.BGE:
        return _signed(a) >= _signed(b)
    if op is Op.BLTU:
        return a < b
    if op is Op.BGEU:
        return a >= b
    raise AssertionError(op)


def golden_load(op, data, off):
    """Little-endian load of ``data[off:]``; LB/LH sign-extend."""
    size = _LOADS[op]
    value = int.from_bytes(data[off:off + size], "little")
    top = 1 << (8 * size - 1)
    if op in (Op.LB, Op.LH) and value & top:
        value -= 2 * top
    return value & MASK32


_BRANCHES = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU]
#: load op -> access size in bytes
_LOADS = {Op.LB: 1, Op.LBU: 1, Op.LH: 2, Op.LHU: 2, Op.LW: 4}
#: the load base register, holding the address of the data block
_BASE = 24
_DATA_LEN = 64
#: register values around the signed/unsigned wrap points
_BOUNDARY = [0, 1, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE,
             MASK32]

_words = st.one_of(st.sampled_from(_BOUNDARY), st.integers(0, MASK32))
_dests = st.sampled_from(_REGS + [0])
_srcs = st.sampled_from(_REGS + [0])


@st.composite
def _alu_insn(draw):
    if draw(st.booleans()):
        return Insn(draw(st.sampled_from(_ALU_R)), rd=draw(_dests),
                    rs1=draw(_srcs), rs2=draw(_srcs))
    op = draw(st.sampled_from(_ALU_I))
    imm = (draw(st.integers(0, 0xFFFF))
           if op in (Op.ANDI, Op.ORI, Op.XORI, Op.SLTIU,
                     Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI)
           else draw(st.integers(-32768, 32767)))
    return Insn(op, rd=draw(_dests), rs1=draw(_srcs), imm=imm)


@st.composite
def programs(draw):
    """(instructions, seeds, data): a random program of ALU ops, loads
    from a data block and forward branches that skip one
    instruction."""
    seeds = {reg: draw(_words) for reg in _REGS}
    data = draw(st.binary(min_size=_DATA_LEN, max_size=_DATA_LEN))
    instructions = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("alu", "alu", "load", "branch")))
        if kind == "load":
            op = draw(st.sampled_from(list(_LOADS)))
            size = _LOADS[op]
            off = size * draw(st.integers(0, _DATA_LEN // size - 1))
            instructions.append(Insn(op, rd=draw(_dests), rs1=_BASE,
                                     imm=off))
        elif kind == "branch":
            # taken: pc + 4 + (1 << 2), over the next instruction
            instructions.append(Insn(draw(st.sampled_from(_BRANCHES)),
                                     rs1=draw(_srcs), rs2=draw(_srcs),
                                     imm=1))
            instructions.append(draw(_alu_insn()))
        else:
            instructions.append(draw(_alu_insn()))
    return instructions, seeds, data


def golden_run(instructions, seeds, data):
    """Final registers and executed-instruction count, per the spec."""
    regs = dict(seeds)
    regs[0] = 0
    executed = 0
    i = 0
    while i < len(instructions):
        ins = instructions[i]
        op = ins.op
        executed += 1
        i += 1
        if op in _BRANCHES:
            if golden_branch(op, regs[ins.rs1], regs[ins.rs2]):
                i += 1
            continue
        if op in _LOADS:
            value = golden_load(op, data, ins.imm)
        elif op in _ALU_R:
            value = golden_alu(op, regs[ins.rs1], regs[ins.rs2])
        else:
            value = golden_alui(op, regs[ins.rs1], ins.imm)
        if ins.rd:
            regs[ins.rd] = value
    return regs, executed


_HARNESS = """
    .global main
main:
    li a0, 0
    ret
"""

_IMAGE = assemble_and_link(_HARNESS)
#: program text in local RAM, the data block in the data region
_TEXT = 0x0001_0000
_DATA = _IMAGE.data_base + 0x100


@settings(max_examples=120, deadline=None)
@given(programs())
def test_alu_differential(program):
    """Both dispatch paths — compiled superblocks and per-instruction
    entries, built from one expression table — against the spec."""
    instructions, seeds, data = program
    words = [encode(ins) for ins in instructions]
    words.append(encode(Insn(Op.HALT)))
    golden, executed = golden_run(instructions, seeds, data)

    for superblocks in (True, False):
        machine = Machine(_IMAGE, MachineConfig(superblocks=superblocks))
        cpu = machine.cpu
        machine.mem.write_bytes(_TEXT, b"".join(
            w.to_bytes(4, "little") for w in words))
        machine.mem.write_bytes(_DATA, data)
        for reg, value in seeds.items():
            cpu.set_reg(reg, value)
        cpu.set_reg(_BASE, _DATA)
        cpu.pc = _TEXT
        cpu.run(max_instructions=1000)

        assert cpu.icount == executed + 1  # + HALT
        for reg in _REGS:
            assert cpu.regs[reg] == golden[reg], (
                f"r{reg} diverged (superblocks={superblocks}): "
                f"sim={cpu.regs[reg]:#x} golden={golden[reg]:#x}\n"
                f"program={[str(i) for i in instructions]}")
