"""The seed THOR-lite core, kept as a test oracle.

Shipped code describes instruction semantics once, as the per-opcode
template table in :mod:`repro.thor.cpu`, instantiated as the execute
functions :meth:`~repro.thor.cpu.Cpu.step` dispatches to and as the
compiled blocks :meth:`~repro.thor.cpu.Cpu.run_block` runs. This module
keeps the seed implementation they replaced — straight-line decode plus
an opcode if-chain — so the lockstep and property suites and the E18
benchmark can hold the shipped core to it:

* :func:`reference_step` executes one instruction on a :class:`Cpu`;
* :func:`reference_core` runs every :class:`Cpu` on it inside a
  ``with`` block (whole campaigns) by patching ``Cpu.step`` and turning
  the block path off;
* :func:`nonzero_pages_reference` is the per-word page scan that
  :meth:`repro.thor.memory.Memory.nonzero_pages` replaced.

The oracle is independent of what it checks: it imports nothing from
the template table, the exec cache or the block compiler
(``_TEMPLATES``, ``_EXECUTE``, ``_EXEC_CACHE``, ``BlockTable``, ...) and
keeps its own copies of the state helpers only the seed core called.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

from repro.thor import isa
from repro.thor.cache import CacheParityError
from repro.thor.cpu import NO_BLOCK, Cpu, CpuEvent, CpuHalted, LastExec
from repro.thor.isa import Instruction, IllegalOpcode, Opcode
from repro.thor.memory import PAGE_WORDS, IllegalAddress, Memory
from repro.thor.pipeline import PipelineLatches
from repro.thor.registers import Psr
from repro.thor.traps import Trap
from repro.util.bits import to_signed, to_unsigned


@contextmanager
def reference_core() -> Iterator[None]:
    """Run every :class:`Cpu` on the seed core inside the block.

    Patches ``Cpu.step`` and makes ``Cpu.run_block`` always decline, so
    no compiled block runs, and restores both on exit, also when the
    block raises. The patches apply wherever ``cpu.step`` and
    ``cpu.run_block`` are looked up inside the block (``TestCard.run``
    binds them once per call)."""
    shipped_step, shipped_block = Cpu.step, Cpu.run_block
    Cpu.step = reference_step
    Cpu.run_block = decline_block
    try:
        yield
    finally:
        Cpu.step = shipped_step
        Cpu.run_block = shipped_block


def decline_block(cpu: Cpu, blocks: object, limit: int) -> CpuEvent:
    """The seed core's block entry: no block ever runs."""
    return NO_BLOCK


def nonzero_pages_reference(memory: Memory) -> Set[int]:
    """The original per-word scan; equality with
    :meth:`Memory.nonzero_pages` is pinned by a regression test."""
    pages: Set[int] = set()
    words = memory._words
    for base in range(0, memory.size, PAGE_WORDS):
        if any(words[base : base + PAGE_WORDS]):
            pages.add(base // PAGE_WORDS)
    return pages


# -- state helpers only the seed core calls -----------------------------------


def _set_nz(psr: Psr, value: int) -> None:
    value &= isa.WORD_MASK
    psr.z = value == 0
    psr.n = bool(value & 0x80000000)


def _latch_fetch(pipeline: PipelineLatches, word: int) -> None:
    pipeline.ir = word & isa.WORD_MASK
    pipeline.ir_forced = False


def _consume_forced_ir(pipeline: PipelineLatches) -> int:
    pipeline.ir_forced = False
    return pipeline.ir


def _latch_memory(pipeline: PipelineLatches, address: int, data: int) -> None:
    pipeline.mar = address & isa.WORD_MASK
    pipeline.mdr = data & isa.WORD_MASK


# -- the seed core --------------------------------------------------------------


@dataclass
class _Next:
    """Control-flow decision of the executing instruction."""

    pc: int
    taken: bool = False


def reference_step(cpu: Cpu) -> Optional[CpuEvent]:
    """Execute one instruction (the seed core). Returns an event or
    None."""
    if cpu.halted:
        raise CpuHalted("CPU is halted")

    start_pc = cpu.pc

    # Fetch (through the I-cache, unless the scan chain forced the IR).
    if cpu.pipeline.ir_forced:
        word = _consume_forced_ir(cpu.pipeline)
        cpu.cycles += 0  # forced IR models an already-latched fetch
    else:
        if not 0 <= cpu.pc < cpu.config.memory_size:
            return cpu._raise_trap(
                Trap.ILLEGAL_ADDRESS, detail=f"fetch from {cpu.pc:#x}"
            )
        try:
            word, extra = cpu.icache.read(cpu.pc, cpu.bus)
        except CacheParityError as exc:
            return cpu._raise_trap(Trap.ICACHE_PARITY, detail=str(exc))
        cpu.cycles += extra
        _latch_fetch(cpu.pipeline, word)

    # Decode.
    try:
        instr = isa.decode(word)
    except IllegalOpcode:
        return cpu._raise_trap(
            Trap.ILLEGAL_OPCODE, detail=f"word {word:#010x}"
        )

    # Execute.
    cpu.cycles += isa.CYCLE_COST[instr.opcode]
    try:
        event, nxt = _execute(cpu, instr)
    except CacheParityError as exc:
        return cpu._raise_trap(Trap.DCACHE_PARITY, detail=str(exc))
    except IllegalAddress as exc:
        return cpu._raise_trap(Trap.ILLEGAL_ADDRESS, detail=str(exc))

    if event is not None and event.kind == "trap":
        return event

    if nxt.taken:
        cpu.cycles += 1
    cpu.pc = nxt.pc & isa.WORD_MASK
    cpu.instret += 1
    cpu.last_exec.pc = start_pc
    cpu.last_exec.opcode = instr.opcode
    cpu.last_exec.branch_taken = nxt.taken

    if (
        cpu.config.watchdog_cycles is not None
        and cpu.cycles > cpu.config.watchdog_cycles
    ):
        return cpu._raise_trap(
            Trap.WATCHDOG, detail=f"cycle budget {cpu.config.watchdog_cycles}"
        )
    return event


def _execute(cpu: Cpu, instr: Instruction) -> Tuple[Optional[CpuEvent], _Next]:
    op = instr.opcode
    regs = cpu.regs
    seq = _Next(pc=cpu.pc + 1)
    cpu.last_exec = LastExec()

    if op is Opcode.NOP:
        return None, seq
    if op is Opcode.HALT:
        cpu.halted = True
        return CpuEvent(kind="halt"), seq
    if op is Opcode.SYNC:
        cpu.iterations += 1
        return CpuEvent(kind="sync", iteration=cpu.iterations), seq

    if op in (Opcode.ADD, Opcode.SUB, Opcode.ADDI, Opcode.SUBI):
        a = regs[instr.rs1]
        if op in (Opcode.ADD, Opcode.SUB):
            b = regs[instr.rs2]
        else:
            b = to_unsigned(instr.imm)
        subtract = op in (Opcode.SUB, Opcode.SUBI)
        result, carry, overflow = _add_sub(a, b, subtract)
        regs[instr.rd] = result
        _set_nz(cpu.psr, result)
        cpu.psr.c = carry
        cpu.psr.v = overflow
        if overflow and cpu.psr.overflow_enable:
            return cpu._raise_trap(Trap.OVERFLOW), seq
        return None, seq

    if op in (Opcode.MUL, Opcode.MULI):
        a = to_signed(regs[instr.rs1])
        b = to_signed(regs[instr.rs2]) if op is Opcode.MUL else instr.imm
        result = to_unsigned(a * b)
        regs[instr.rd] = result
        _set_nz(cpu.psr, result)
        return None, seq

    if op in (Opcode.DIV, Opcode.MOD):
        a = to_signed(regs[instr.rs1])
        b = to_signed(regs[instr.rs2])
        if b == 0:
            return cpu._raise_trap(Trap.DIV_ZERO), seq
        quotient = int(a / b)  # truncate toward zero
        result = quotient if op is Opcode.DIV else a - quotient * b
        regs[instr.rd] = to_unsigned(result)
        _set_nz(cpu.psr, regs[instr.rd])
        return None, seq

    if op in (Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.ANDI, Opcode.ORI, Opcode.XORI):
        a = regs[instr.rs1]
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            b = regs[instr.rs2]
        else:
            b = to_unsigned(instr.imm)
        if op in (Opcode.AND, Opcode.ANDI):
            result = a & b
        elif op in (Opcode.OR, Opcode.ORI):
            result = a | b
        else:
            result = a ^ b
        regs[instr.rd] = result
        _set_nz(cpu.psr, result)
        return None, seq

    if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA,
              Opcode.SHLI, Opcode.SHRI):
        a = regs[instr.rs1]
        if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
            amount = regs[instr.rs2] & 31
        else:
            amount = instr.imm & 31
        if op in (Opcode.SHL, Opcode.SHLI):
            result = to_unsigned(a << amount)
        elif op in (Opcode.SHR, Opcode.SHRI):
            result = a >> amount
        else:  # SRA
            result = to_unsigned(to_signed(a) >> amount)
        regs[instr.rd] = result
        _set_nz(cpu.psr, result)
        return None, seq

    if op is Opcode.NOT:
        result = to_unsigned(~regs[instr.rs1])
        regs[instr.rd] = result
        _set_nz(cpu.psr, result)
        return None, seq
    if op is Opcode.MOV:
        regs[instr.rd] = regs[instr.rs1]
        _set_nz(cpu.psr, regs[instr.rd])
        return None, seq
    if op is Opcode.LDI:
        regs[instr.rd] = to_unsigned(instr.imm)
        return None, seq
    if op is Opcode.LUI:
        regs[instr.rd] = to_unsigned(instr.imm << 14)
        return None, seq

    if op in (Opcode.CMP, Opcode.CMPI):
        a = regs[instr.rs1]
        b = regs[instr.rs2] if op is Opcode.CMP else to_unsigned(instr.imm)
        result, carry, overflow = _add_sub(a, b, subtract=True)
        _set_nz(cpu.psr, result)
        cpu.psr.c = carry
        cpu.psr.v = overflow
        return None, seq

    if op is Opcode.LD:
        address = to_unsigned(regs[instr.rs1] + instr.imm)
        if address >= cpu.config.memory_size:
            raise IllegalAddress(address, "load")
        if address >= cpu.config.uncached_base:
            value = cpu.bus.read(address)
            cpu.cycles += 2  # uncached MMIO access
        else:
            value, extra = cpu.dcache.read(address, cpu.bus)
            cpu.cycles += extra
        regs[instr.rd] = value
        _latch_memory(cpu.pipeline, address, value)
        cpu.last_exec.mem_address = address
        cpu.last_exec.mem_value = value
        return None, seq
    if op is Opcode.ST:
        address = to_unsigned(regs[instr.rs1] + instr.imm)
        if address >= cpu.config.memory_size:
            raise IllegalAddress(address, "store")
        value = regs[instr.rd]
        if address >= cpu.config.uncached_base:
            cpu.bus.write(address, value)
            cpu.cycles += 2  # uncached MMIO access
        else:
            cpu.cycles += cpu.dcache.write(address, value, cpu.bus)
        _latch_memory(cpu.pipeline, address, value)
        cpu.last_exec.mem_address = address
        cpu.last_exec.mem_value = value
        cpu.last_exec.mem_is_write = True
        return None, seq

    if op is Opcode.PUSH:
        sp = to_unsigned(regs[isa.REG_SP] - 1)
        if sp >= cpu.config.memory_size:
            raise IllegalAddress(sp, "push")
        regs[isa.REG_SP] = sp
        cpu.cycles += cpu.dcache.write(sp, regs[instr.rd], cpu.bus)
        _latch_memory(cpu.pipeline, sp, regs[instr.rd])
        return None, seq
    if op is Opcode.POP:
        sp = regs[isa.REG_SP]
        if sp >= cpu.config.memory_size:
            raise IllegalAddress(sp, "pop")
        value, extra = cpu.dcache.read(sp, cpu.bus)
        cpu.cycles += extra
        regs[instr.rd] = value
        regs[isa.REG_SP] = to_unsigned(sp + 1)
        _latch_memory(cpu.pipeline, sp, value)
        return None, seq

    if op is Opcode.JMP:
        return None, _Next(pc=instr.imm, taken=True)
    if op is Opcode.JR:
        return None, _Next(pc=regs[instr.rs1], taken=True)
    if op is Opcode.CALL:
        regs[isa.REG_LR] = to_unsigned(cpu.pc + 1)
        return None, _Next(pc=instr.imm, taken=True)
    if op is Opcode.RET:
        return None, _Next(pc=regs[isa.REG_LR], taken=True)

    if op in isa.BRANCHES:
        taken = _branch_taken(cpu, op)
        if taken:
            return None, _Next(pc=cpu.pc + 1 + instr.imm, taken=True)
        return None, seq

    if op is Opcode.TRAP:
        return cpu._raise_trap(Trap.SOFTWARE, code=instr.imm), seq

    raise AssertionError(f"unhandled opcode {op!r}")  # pragma: no cover


def _branch_taken(cpu: Cpu, op: Opcode) -> bool:
    psr = cpu.psr
    if op is Opcode.BEQ:
        return psr.z
    if op is Opcode.BNE:
        return not psr.z
    if op is Opcode.BLT:
        return psr.n != psr.v
    if op is Opcode.BGE:
        return psr.n == psr.v
    if op is Opcode.BGT:
        return (not psr.z) and psr.n == psr.v
    if op is Opcode.BLE:
        return psr.z or psr.n != psr.v
    raise AssertionError(op)  # pragma: no cover


def _add_sub(a: int, b: int, subtract: bool) -> Tuple[int, bool, bool]:
    """32-bit add/subtract with carry and signed-overflow flags."""
    if subtract:
        wide = a + (to_unsigned(~b)) + 1
        signed = to_signed(a) - to_signed(b)
    else:
        wide = a + b
        signed = to_signed(a) + to_signed(b)
    result = to_unsigned(wide)
    carry = wide > isa.WORD_MASK
    overflow = not (-(1 << 31) <= signed <= (1 << 31) - 1)
    return result, carry, overflow
