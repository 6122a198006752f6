"""Compiled superblocks: equivalence, retargeting, invalidation,
persistence.

Every fused superblock is compiled to specialized Python source
(registers as locals, constants folded, batched cycle accounting)
keyed by its shape — its words with a J/JAL/branch terminator's target
masked, the target bound per block as ``T``.  Compiled blocks must be
architecturally invisible — identical registers, output, instruction
and cycle counts to per-instruction dispatch — including under dynamic
rewriting: a same-shape backpatch rebinds ``T`` in place, any other
patch overlapping a block drops it.  Compiled artifacts persist in the
trace cache, so a warm process binds blocks with zero codegen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble_and_link
from repro.isa import Insn, Op, Trap, decode, encode
from repro.sim import (
    CycleLimitExceeded,
    JIT_CODEGEN_VERSION,
    Machine,
    MachineConfig,
    MemoryFault,
)
from repro.sim import cpu as cpu_mod
from repro.sim import jitcache
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload

MASK32 = 0xFFFFFFFF

# Same shape as the PR 1 overlap goldens (test_superblock.LOOP_SRC):
# the prologue falls through into ``loop``, so the body words are
# covered by two superblocks and a patch must kill both.
LOOP_SRC = """
    .global main
    .global loop
    .global done
main:
    li   s0, 6
    li   s1, 0
loop:
    addi t0, s1, 3
    slli t1, t0, 1
    add  t2, t1, t0
    xori t3, t2, 0x55
    add  s1, t3, s1
    subi s0, s0, 1
    bne  s0, zero, loop
done:
    mv   a0, s1
    syscall putint
    li   a0, 0
    ret
"""

BODY_LEN = 7  # six straight-line words + the bne terminator

_IMAGE = assemble_and_link(LOOP_SRC, "loop")

PER_INSN = MachineConfig(superblocks=False)
COMPILED = MachineConfig(superblocks=True)


def _run_mode(image, config):
    machine = Machine(image, config)
    exit_code = machine.run()
    return (exit_code, machine.cpu.icount, machine.cpu.cycles,
            machine.output_text, list(machine.cpu.regs)), machine


# -- cycle-identity: compiled ≡ per-instruction ------------------------


def test_jit_equivalent_on_loop():
    want, _ = _run_mode(_IMAGE, PER_INSN)
    got, machine = _run_mode(_IMAGE, COMPILED)
    assert got == want
    assert machine.cpu.jit_stats.jit_blocks > 0


def test_jit_equivalent_on_workload():
    image = build_workload("sensor", 0.02)
    want, _ = _run_mode(image, PER_INSN)
    got, machine = _run_mode(image, COMPILED)
    assert got == want
    js = machine.cpu.jit_stats
    assert js.jit_blocks > 0
    assert js.jit_instructions > 0
    # every fused block is compiled; placements share shapes
    assert machine.cpu.sb_stats.fused_blocks >= js.jit_blocks


def test_softcache_jit_equivalent():
    image = build_workload("sensor", 0.02)
    reports = []
    for superblocks in (True, False):
        system = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=768, debug_poison=True, superblocks=superblocks))
        report = system.run()
        reports.append((report.exit_code, report.instructions,
                        report.cycles, report.output))
    assert reports[0] == reports[1]


# -- invalidation: SMC patches drop compiled blocks -------------------


def _probe_warm_count() -> int:
    """Instructions until the third arrival at ``loop`` (a superblock
    boundary, so block dispatch stops exactly there too)."""
    machine = Machine(_IMAGE, MachineConfig(superblocks=False))
    loop = _IMAGE.symbols["loop"]
    visits = 0
    while True:
        if machine.cpu.pc == loop:
            visits += 1
            if visits == 3:
                return machine.cpu.icount
        machine.cpu.step()


WARM = _probe_warm_count()


def _warm_jit_machine(config: MachineConfig = COMPILED) -> Machine:
    """Warm two loop trips so both overlapping blocks are compiled."""
    machine = Machine(_IMAGE, config)
    loop = _IMAGE.symbols["loop"]
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=WARM)
    assert machine.cpu.icount == WARM
    assert machine.cpu.pc == loop
    if config.superblocks:
        kinds = {info["kind"] for info in machine.cpu.superblock_info(
            loop + 4)}
        assert kinds == {"compiled"}
    return machine


def _finish(machine):
    machine.cpu.run()
    return (machine.cpu.exit_code, machine.cpu.icount,
            machine.cpu.cycles, machine.output_text,
            list(machine.cpu.regs))


@pytest.mark.parametrize("offset", range(BODY_LEN))
def test_patch_any_offset_drops_jit_block(offset):
    """A ``j done`` backpatched over any body word of a warm compiled
    block (over the ``bne`` too: J is another shape) redirects the
    loop exactly as fresh per-instruction decode
    — and the block is gone from the dispatch table."""
    machine = _warm_jit_machine()
    killed_before = machine.cpu.sb_stats.invalidated_blocks
    addr = _IMAGE.symbols["loop"] + 4 * offset
    done = _IMAGE.symbols["done"]
    machine.mem.write_word(addr, encode(Insn(Op.J, imm=done >> 2)))
    assert machine.cpu.sb_stats.invalidated_blocks > killed_before
    assert machine.cpu.superblock_info(addr) == []

    # replay the same patch at the same warm point per-instruction
    ref = Machine(_IMAGE, MachineConfig(superblocks=False))
    with pytest.raises(CycleLimitExceeded):
        ref.cpu.run(max_instructions=WARM)
    assert ref.cpu.pc == machine.cpu.pc
    ref.mem.write_word(addr, encode(Insn(Op.J, imm=done >> 2)))
    assert _finish(machine) == _finish(ref)


def test_store_inside_jit_block_takes_effect():
    """A compiled block whose own store rewrites its body side-exits
    and re-dispatches the patched words (the cw-generation guard)."""
    src = """
        .global main
    main:
        li   t0, 8
        la   t1, patchme
        lw   t2, 0(t1)
        sw   t2, 0(t1)
        addi t3, zero, 1
    patchme:
        addi t3, t3, 2
        mv   a0, t3
        syscall putint
        li   a0, 0
        ret
    """
    image = assemble_and_link(src)
    results = []
    for config in (COMPILED, PER_INSN):
        machine = Machine(image, config)
        machine.run()
        results.append((machine.cpu.icount, machine.cpu.cycles,
                        machine.output_text))
    assert results[0] == results[1]


# -- shape keys: shared code, in-place retargeting --------------------

_SCRATCH = 0x0001_0000  # local RAM, executable in the test images

_HARNESS = """
    .global main
main:
    li a0, 0
    ret
"""


def _scratch_machine(config: MachineConfig, code: dict) -> Machine:
    """A machine with ``{offset: [Insn, ...]}`` written at _SCRATCH."""
    machine = Machine(assemble_and_link(_HARNESS), config)
    for off, insns in code.items():
        machine.mem.write_bytes(_SCRATCH + off, b"".join(
            encode(ins).to_bytes(4, "little") for ins in insns))
    machine.cpu.pc = _SCRATCH
    return machine


def _j(op: Op, off: int) -> Insn:
    return Insn(op, imm=(_SCRATCH + off) >> 2)


def _body(*tail: Insn) -> list[Insn]:
    return [Insn(Op.ADDI, rd=9, rs1=9, imm=777),
            Insn(Op.ADDI, rd=10, rs1=9, imm=5), *tail]


def _halted(cpu):
    return (cpu.pc, cpu.icount, cpu.cycles, list(cpu.regs))


def test_placements_with_different_targets_share_code(artifact_dir,
                                                      monkeypatch):
    """Two copies of one chunk linked to different targets run one
    code object from one codegen, each with its own bound ``T``."""
    monkeypatch.setattr(cpu_mod, "_SB_COMPILED", {})  # cold process
    code = {0x00: _body(_j(Op.J, 0x40)),
            0x40: _body(_j(Op.J, 0x80)),
            0x80: [Insn(Op.HALT)]}
    machine = _scratch_machine(COMPILED, code)
    machine.cpu.run(max_instructions=100)
    cpu = machine.cpu
    first, second = (cpu._blocks[_SCRATCH], cpu._blocks[_SCRATCH + 0x40])
    assert first is not second
    assert first.__code__ is second.__code__
    assert cpu.sb_stats.fused_blocks == 2
    assert cpu.jit_stats.jit_blocks == 1
    assert cpu.jit_stats.jit_codegen == 1
    assert [i["target"] for i in cpu.superblock_info(_SCRATCH + 8)] \
        == [_SCRATCH + 0x40]
    ref = _scratch_machine(PER_INSN, code)
    ref.cpu.run(max_instructions=100)
    assert _halted(cpu) == _halted(ref.cpu)


def _warm_loop_pair():
    """(compiled, per-instruction) machines warm at ``loop``."""
    return _warm_jit_machine(), _warm_jit_machine(PER_INSN)


BNE_ADDR = _IMAGE.symbols["loop"] + 4 * (BODY_LEN - 1)
BNE_RS1 = decode(int.from_bytes(
    Machine(_IMAGE).mem.read_bytes(BNE_ADDR, 4), "little")).rs1


def _bne(rs1: int, target: int) -> int:
    return encode(Insn(Op.BNE, rs1=rs1, rs2=0,
                       imm=(target - BNE_ADDR - 4) >> 2))


def test_same_shape_backpatch_retargets_in_place():
    """Retargeting the loop's ``bne`` (same opcode and registers)
    rebinds ``T`` of both blocks ending there: nothing is killed or
    rebuilt, and the next dispatch follows the new target."""
    machine, ref = _warm_loop_pair()
    cpu = machine.cpu
    loop = _IMAGE.symbols["loop"]
    before = (cpu.sb_stats.fused_blocks, cpu.sb_stats.invalidated_blocks)
    fn = cpu._blocks[loop]
    word = _bne(BNE_RS1, loop + 4)
    machine.mem.write_word(BNE_ADDR, word)
    ref.mem.write_word(BNE_ADDR, word)
    assert (cpu.sb_stats.fused_blocks,
            cpu.sb_stats.invalidated_blocks) == before
    assert cpu.sb_stats.retargeted_blocks == 2
    assert cpu._blocks[loop] is fn
    assert {i["target"] for i in cpu.superblock_info(BNE_ADDR)} \
        == {loop + 4}
    # one more trip through the (still compiled) loop block lands on
    # the new target, exactly where per-instruction dispatch does
    for m in (machine, ref):
        with pytest.raises(CycleLimitExceeded):
            m.cpu.run(max_instructions=WARM + BODY_LEN)
        assert m.cpu.pc == loop + 4
    assert _finish(machine) == _finish(ref)


@pytest.mark.parametrize("change", ["branch_regs", "j_to_trap"])
def test_shape_changing_write_kills_block(change):
    """A write that changes a terminator's shape — another register in
    the branch, or a J replaced by a TRAP — still kills every block
    ending there, exactly as before shape keys."""
    if change == "branch_regs":
        machine, ref = _warm_loop_pair()
        addr = BNE_ADDR
        # bne zero, zero: another register, never taken
        word = _bne(0, _IMAGE.symbols["loop"])
        killed = 2
    else:
        code = {0x00: _body(_j(Op.J, 0x40)),
                0x40: [Insn(Op.HALT)], 0x80: [Insn(Op.HALT)]}
        machine = _scratch_machine(COMPILED, code)
        ref = _scratch_machine(PER_INSN, code)
        for m in (machine, ref):
            m.cpu.run(max_instructions=100)
            m.cpu.pc = _SCRATCH
            m.cpu.trap_hook = lambda cpu, c, o, pc: _SCRATCH + 0x80
        addr = _SCRATCH + 8
        word = encode(Insn(Op.TRAP, rd=int(Trap.MISS_BRANCH), imm=1))
        killed = 1
    cpu = machine.cpu
    before = cpu.sb_stats.invalidated_blocks
    machine.mem.write_word(addr, word)
    ref.mem.write_word(addr, word)
    assert cpu.sb_stats.invalidated_blocks == before + killed
    assert cpu.sb_stats.retargeted_blocks == 0
    assert cpu.superblock_info(addr) == []
    if change == "branch_regs":
        assert _finish(machine) == _finish(ref)
    else:
        machine.cpu.run(max_instructions=100)
        ref.cpu.run(max_instructions=100)
        assert _halted(machine.cpu) == _halted(ref.cpu)


def test_fault_after_retarget_reports_exact_pc():
    """A load faulting mid-block in a retargeted block reports the
    precise pc and prefix counts, like per-instruction dispatch."""
    code = {0x00: _body(Insn(Op.LW, rd=12, rs1=11, imm=0),
                        _j(Op.J, 0x80)),
            0x40: [Insn(Op.LUI, rd=11, imm=0x0F00), _j(Op.J, 0x00)],
            0x80: [Insn(Op.HALT)]}
    results = []
    for config in (COMPILED, PER_INSN):
        machine = _scratch_machine(config, code)
        cpu = machine.cpu
        cpu.set_reg(11, _SCRATCH + 0x800)
        cpu.run(max_instructions=100)
        machine.mem.write_word(_SCRATCH + 12, encode(_j(Op.J, 0x40)))
        cpu.pc = _SCRATCH
        with pytest.raises(MemoryFault):
            cpu.run(max_instructions=100)
        results.append(_halted(cpu))
        if config.superblocks:
            assert cpu.sb_stats.retargeted_blocks == 1
            assert cpu.sb_stats.invalidated_blocks == 0
    assert results[0] == results[1]
    assert results[0][0] == _SCRATCH + 8


# -- hypothesis property: compiled ≡ per-instruction -------------------

_REGS = list(range(8, 24))

_ALU_R = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
          Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.DIV, Op.REM]
_ALU_I = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU,
          Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI]

_BRANCHES = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU]


@st.composite
def programs(draw):
    """Random straight-line programs: ALU plus loads/stores into a
    data window, then an optional J/JAL/branch terminator and two HALT
    words (unfusable, so the random body is exactly one superblock
    whose bound ``T`` picks which HALT the run stops at)."""
    seeds = {reg: draw(st.integers(0, MASK32)) for reg in _REGS}
    data = _SCRATCH + 0x800  # in-region scratch the stores may hit
    instructions = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.integers(0, 5))
        if kind <= 2:
            op = draw(st.sampled_from(_ALU_R))
            instructions.append(Insn(
                op, rd=draw(st.sampled_from(_REGS)),
                rs1=draw(st.sampled_from(_REGS)),
                rs2=draw(st.sampled_from(_REGS))))
        elif kind == 3:
            op = draw(st.sampled_from(_ALU_I))
            imm = (draw(st.integers(0, 0xFFFF))
                   if op in (Op.ANDI, Op.ORI, Op.XORI, Op.SLTIU,
                             Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI)
                   else draw(st.integers(-32768, 32767)))
            instructions.append(Insn(
                op, rd=draw(st.sampled_from(_REGS)),
                rs1=draw(st.sampled_from(_REGS)), imm=imm))
        else:
            # aligned load/store relative to a constant base register
            base_reg = 8
            instructions.append(Insn(Op.LUI, rd=base_reg,
                                     imm=data >> 16))
            instructions.append(Insn(Op.ORI, rd=base_reg, rs1=base_reg,
                                     imm=data & 0xFFFF))
            off = draw(st.integers(0, 31))
            mem_op = draw(st.sampled_from(
                [Op.LW, Op.LH, Op.LHU, Op.LB, Op.LBU, Op.SW, Op.SH,
                 Op.SB]))
            width = {Op.LW: 4, Op.SW: 4, Op.LH: 2, Op.LHU: 2,
                     Op.SH: 2}.get(mem_op, 1)
            instructions.append(Insn(
                mem_op, rd=draw(st.sampled_from(_REGS)),
                rs1=base_reg, imm=off * width))
    term = draw(st.sampled_from(["none", "branch", "j", "jal"]))
    if term == "branch":
        instructions.append(Insn(
            draw(st.sampled_from(_BRANCHES)),
            rs1=draw(st.sampled_from(_REGS)),
            rs2=draw(st.sampled_from(_REGS)), imm=draw(st.integers(0, 1))))
    elif term != "none":
        second_halt = _SCRATCH + 4 * (len(instructions) + 2)
        instructions.append(Insn(Op.J if term == "j" else Op.JAL,
                                 imm=second_halt >> 2))
    return instructions, seeds


def _run_random(instructions, seeds, config):
    machine = Machine(assemble_and_link(_HARNESS), config)
    words = [encode(ins) for ins in instructions]
    words += [encode(Insn(Op.HALT))] * 2
    machine.mem.write_bytes(_SCRATCH, b"".join(
        w.to_bytes(4, "little") for w in words))
    cpu = machine.cpu
    for reg, value in seeds.items():
        cpu.set_reg(reg, value)
    cpu.pc = _SCRATCH
    cpu.run(max_instructions=1000)
    return (cpu.pc, cpu.icount, cpu.cycles, list(cpu.regs),
            machine.mem.read_bytes(_SCRATCH + 0x800, 128))


@settings(max_examples=60, deadline=None)
@given(programs())
def test_jit_differential_random_programs(program):
    instructions, seeds = program
    compiled = _run_random(instructions, seeds, COMPILED)
    ref = _run_random(instructions, seeds, PER_INSN)
    assert compiled == ref


# -- persistent artifacts ---------------------------------------------


@pytest.fixture
def artifact_dir(tmp_path):
    jitcache.set_artifact_dir(tmp_path)
    try:
        yield tmp_path
    finally:
        jitcache.set_artifact_dir(None)


def test_jitcache_round_trip(artifact_dir):
    code = compile("def _sb(pc):\n    return pc + 4\n", "<t>", "exec")
    fixups = {5: (0, 1, 2, ((8, "x8"),))}
    digest = jitcache.artifact_key((1, 2), (0xDEAD, 0xBEEF))
    assert jitcache.store(digest, code, fixups, "src text")
    loaded = jitcache.load(digest)
    assert loaded is not None
    got_code, got_fixups, got_src = loaded
    assert got_fixups == fixups
    assert got_src == "src text"
    ns: dict = {}
    exec(got_code, ns)
    assert ns["_sb"](100) == 104


def test_jitcache_corrupt_file_is_a_miss(artifact_dir):
    digest = jitcache.artifact_key((1,), (1, 2, 3))
    jitcache.artifact_path(digest).write_bytes(b"not marshal data")
    assert jitcache.load(digest) is None


def test_jitcache_key_depends_on_version_and_content():
    a = jitcache.artifact_key((1, 2), (10, 20))
    assert a == jitcache.artifact_key((1, 2), (10, 20))
    assert a != jitcache.artifact_key((1, 2), (10, 21))
    assert a != jitcache.artifact_key((1, 3), (10, 20))
    assert f"jit-v{JIT_CODEGEN_VERSION}-" in jitcache.artifact_path(
        a).name


def test_sweep_stale_versions(artifact_dir):
    stale = [
        artifact_dir / "jit-v0-cpython-311-deadbeef.sbc",
        artifact_dir / f"jit-v{JIT_CODEGEN_VERSION}-otherpy-aa.sbc",
    ]
    for path in stale:
        path.write_bytes(b"x")
    fresh = artifact_dir / f"{jitcache.ARTIFACT_PREFIX}bb.sbc"
    fresh.write_bytes(b"x")
    unrelated = artifact_dir / "trace-v2-cc.npz"
    unrelated.write_bytes(b"x")
    assert jitcache.sweep_stale(artifact_dir) == len(stale)
    assert fresh.exists() and unrelated.exists()
    assert not any(p.exists() for p in stale)


def test_eval_sweep_covers_jit_artifacts(tmp_path):
    from repro.eval.common import _CACHE_VERSION, \
        sweep_stale_cache_versions
    stale_jit = tmp_path / "jit-v0-cpython-311-dead.sbc"
    stale_trace = tmp_path / "trace-v1-beef.npz"
    keep_jit = tmp_path / f"{jitcache.ARTIFACT_PREFIX}aa.sbc"
    keep_trace = tmp_path / f"trace-v{_CACHE_VERSION}-bb.npz"
    for path in (stale_jit, stale_trace, keep_jit, keep_trace):
        path.write_bytes(b"x")
    assert sweep_stale_cache_versions(tmp_path) == 2
    assert keep_jit.exists() and keep_trace.exists()
    assert not stale_jit.exists() and not stale_trace.exists()


_WARM_SNIPPET = """
import json, sys
from repro.sim import Machine, MachineConfig
from repro.workloads import build_workload
machine = Machine(build_workload("sensor", 0.02))
machine.run()
js = machine.cpu.jit_stats
print(json.dumps({"codegen": js.jit_codegen,
                  "disk_hits": js.jit_disk_hits,
                  "disk_stores": js.jit_disk_stores,
                  "blocks": js.jit_blocks,
                  "cycles": machine.cpu.cycles,
                  "icount": machine.cpu.icount}))
"""


def test_warm_process_skips_codegen(tmp_path):
    """The warm-run contract: a second process on the same workload
    loads every compiled artifact from the store and never runs
    codegen."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               REPRO_TRACE_CACHE=str(tmp_path),
               PYTHONPATH=str(src_dir))

    def run_once() -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_SNIPPET], env=env,
            capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    cold = run_once()
    assert cold["codegen"] > 0
    assert cold["disk_stores"] == cold["codegen"]
    assert list(tmp_path.glob(f"{jitcache.ARTIFACT_PREFIX}*.sbc"))

    warm = run_once()
    assert warm["codegen"] == 0
    assert warm["disk_hits"] > 0
    assert warm["blocks"] == cold["blocks"]
    assert (warm["cycles"], warm["icount"]) == \
        (cold["cycles"], cold["icount"])


def test_per_instruction_entries_bind_shared_templates(artifact_dir):
    """Per-instruction dispatch binds one template per (opcode,
    ``rd == zero`` variant) from the ISA table: every entry of a
    variant shares its code object, there are at most two per opcode,
    and the run generates and writes no JIT artifact."""
    machine = Machine(build_workload("sensor", 0.05), PER_INSN)
    machine.run()
    cpu = machine.cpu
    codes: dict[tuple, set] = {}
    for pc, fn in cpu._decoded.items():
        ins = decode(machine.mem.read_word(pc))
        codes.setdefault((ins.op, ins.rd == 0), set()).add(fn.__code__)
    assert all(len(variant) == 1 for variant in codes.values())
    assert len(cpu._decoded) > len(codes)  # entries really share
    n_ops = len({op for op, _ in codes})
    assert len(set().union(*codes.values())) <= 2 * n_ops
    assert cpu.jit_stats.jit_codegen == 0
    assert cpu.jit_stats.jit_blocks == 0
    assert not list(artifact_dir.iterdir())


# -- observability ----------------------------------------------------


def test_dump_superblock_report():
    from repro.softcache.debug import dump_superblock
    machine = _warm_jit_machine()
    loop = _IMAGE.symbols["loop"]
    report = dump_superblock(machine.cpu, loop + 4)
    assert "kind=compiled" in report
    assert f"T=0 (taken -> {loop:#x})" in report  # the loop block's bne
    assert "guest code:" in report
    assert "generated source (shared by the shape):" in report
    assert "def _sb(" in report
    miss = dump_superblock(machine.cpu, 0x0A00_0000)
    assert "no live superblock" in miss


def test_cli_dump_superblock(capsys):
    from repro.cli import main
    code = main(["debug", "sensor", "--scale", "0.02",
                 "--tcache", "4096",
                 "--dump-superblock", "0x10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "superblock" in out
