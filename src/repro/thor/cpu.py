"""THOR-lite CPU core: functional execution with cycle accounting.

The core executes one instruction per :meth:`Cpu.step`, charging base
cycle costs plus cache-miss penalties, and raising traps through the
error-detection mechanisms in :mod:`repro.thor.traps`. A trap halts the
CPU (the experiment terminates with a *detected error*, per the paper's
termination conditions); ``SYNC`` emits an iteration-boundary event used
by the environment-simulator exchange; ``HALT`` terminates the workload
normally.

One table of per-opcode source templates (``_TEMPLATES``), checked
against :data:`repro.thor.isa.SEMANTICS` at import, describes what every
instruction does. It is instantiated twice: once per opcode, as the
execute function :meth:`Cpu.step` dispatches to through a memoized
``word -> (instruction, execute, cycle cost)`` table; and once per
block of straight-line code in a loaded program image, as one generated
function with operands, PCs and costs as constants, which
:meth:`Cpu.run_block` runs when the test card allows it and the block's
entry check passes. A block leaves exactly the state stepping through it
leaves. The seed's decode + if-chain core is kept in the test suite
(``tests/reference_core.py``) as the oracle both paths are held to: the
lockstep and core-equivalence property tests and the E18 benchmark
require identical state, events and campaign rows.
"""

from __future__ import annotations

import itertools
import linecache
import re
import weakref
import zlib
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.thor import isa
from repro.thor.cache import Cache, CacheParityError
from repro.thor.disasm import format_instruction
from repro.thor.isa import Instruction, Opcode
from repro.thor.memory import WORD_TYPECODE, IllegalAddress, Memory, MemoryBus
from repro.thor.pipeline import PipelineLatches
from repro.thor.registers import Psr, RegisterFile
from repro.thor.traps import Trap, TrapEvent
from repro.util.bits import parity

if TYPE_CHECKING:
    from repro.thor.assembler import Program


@dataclass(frozen=True)
class CpuConfig:
    """Static configuration of one THOR-lite chip."""

    memory_size: int = 65536
    icache_lines: int = 16
    dcache_lines: int = 16
    words_per_line: int = 4
    miss_penalty: int = 8
    parity_checking: bool = True
    overflow_trap: bool = False
    # Memory-mapped I/O window (the environment-simulator exchange area):
    # loads/stores at or above this address bypass the D-cache, as real
    # MMIO regions must — the environment simulator writes this window
    # from outside the cache hierarchy.
    uncached_base: int = 0xFF00
    # CPU-internal watchdog: traps when a single run exceeds this many
    # cycles. None disables it (the test card still enforces its own
    # experiment timeout).
    watchdog_cycles: Optional[int] = None

    @property
    def address_bits(self) -> int:
        return max(1, (self.memory_size - 1).bit_length())


@dataclass
class LastExec:
    """What the last executed instruction did — consumed by fault triggers
    (branch / call / data-access triggers of the paper's Section 4)."""

    pc: int = 0
    opcode: Optional[Opcode] = None
    branch_taken: bool = False
    mem_address: Optional[int] = None
    mem_value: Optional[int] = None
    mem_is_write: bool = False


@dataclass(frozen=True)
class CpuEvent:
    """Event surfaced by one step: "halt", "trap" or "sync"."""

    kind: str
    trap: Optional[TrapEvent] = None
    iteration: int = 0


#: What :meth:`Cpu.run_block` returns when no block may run at the PC.
NO_BLOCK = CpuEvent(kind="no-block")


class CpuHalted(Exception):
    """step() was called on a halted CPU."""


class Cpu:
    """One THOR-lite chip: registers, PSR, PC, pipeline latches, caches,
    memory, cycle/instruction counters."""

    def __init__(self, config: Optional[CpuConfig] = None):
        self.config = config or CpuConfig()
        self.memory = Memory(self.config.memory_size)
        self.bus = MemoryBus(self.memory)
        self.regs = RegisterFile()
        self.psr = Psr()
        self.pipeline = PipelineLatches()
        self.icache = Cache(
            "icache",
            n_lines=self.config.icache_lines,
            words_per_line=self.config.words_per_line,
            miss_penalty=self.config.miss_penalty,
            check_parity=self.config.parity_checking,
            address_bits=self.config.address_bits,
        )
        self.dcache = Cache(
            "dcache",
            n_lines=self.config.dcache_lines,
            words_per_line=self.config.words_per_line,
            miss_penalty=self.config.miss_penalty,
            check_parity=self.config.parity_checking,
            address_bits=self.config.address_bits,
        )
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.iterations = 0
        self.halted = False
        self.trap_event: Optional[TrapEvent] = None
        self.last_exec = LastExec()
        # Hot-loop invariants, hoisted out of the per-step attribute
        # chains. ``_regs`` aliases the register file's backing list —
        # sound because RegisterFile mutates it strictly in place.
        self._memory_size = self.config.memory_size
        self._uncached_base = self.config.uncached_base
        self._watchdog = self.config.watchdog_cycles
        self._regs = self.regs._regs

    # -- lifecycle -----------------------------------------------------------

    def reset(self, entry: int = 0) -> None:
        """Power-on reset: clears all state except main memory contents
        (memory is loaded separately by the test card download port)."""
        overflow = self.config.overflow_trap
        self.regs.reset()
        self.psr.reset()
        self.psr.overflow_enable = overflow
        self.pipeline.reset()
        self.icache.reset()
        self.dcache.reset()
        self.bus.reset_force()
        self.pc = entry
        self.cycles = 0
        self.instret = 0
        self.iterations = 0
        self.halted = False
        self.trap_event = None
        self.last_exec = LastExec()

    def clear_trap(self) -> None:
        """Un-halt after a trap without touching any other state.

        Used by the test card's trap-hook path (runtime SWIFI resumes the
        workload after servicing the software trap it planted)."""
        self.halted = False
        self.trap_event = None

    # -- checkpoint support (golden-run warm starts) ---------------------------

    def snapshot(self) -> dict:
        """Everything but main memory, as a few typed arrays: the
        registers, one scalar array and each cache's arrays
        (:meth:`~repro.thor.cache.Cache.snapshot_state`), so a
        checkpoint digest hashes a handful of buffers.

        Captured at instruction boundaries along the trap-free reference
        run, so ``halted`` is False and no trap is latched; ``last_exec``
        is included because fault triggers consume it. In the scalar
        array an optional field takes two slots, a presence flag and the
        value."""
        last = self.last_exec
        pipeline = self.pipeline
        bus = self.bus
        opcode = last.opcode
        mem_address = last.mem_address
        mem_value = last.mem_value
        scalars = array(
            "q",
            (
                self.pc,
                self.cycles,
                self.instret,
                self.iterations,
                self.psr.to_word(),
                pipeline.ir,
                pipeline.mar,
                pipeline.mdr,
                pipeline.ir_forced,
                bus.force_mask,
                bus.force_value,
                bus.force_reads,
                last.pc,
                -1 if opcode is None else opcode,
                last.branch_taken,
                mem_address is not None,
                mem_address or 0,
                mem_value is not None,
                mem_value or 0,
                last.mem_is_write,
            ),
        )
        return {
            "regs": array(WORD_TYPECODE, self._regs),
            "scalars": scalars,
            "icache": self.icache.snapshot_state(),
            "dcache": self.dcache.snapshot_state(),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (memory is restored separately by
        the test card's page loads). Leaves the CPU running (not halted,
        no trap latched) exactly as it was at the capture boundary."""
        self.regs.restore(state["regs"])
        scalars = state["scalars"]
        (
            self.pc,
            self.cycles,
            self.instret,
            self.iterations,
            psr,
            ir,
            mar,
            mdr,
            ir_forced,
            force_mask,
            force_value,
            force_reads,
            pc,
            opcode,
            branch_taken,
            has_address,
            mem_address,
            has_value,
            mem_value,
            mem_is_write,
        ) = scalars
        self.psr.from_word(psr)
        pipeline = self.pipeline
        pipeline.ir = ir
        pipeline.mar = mar
        pipeline.mdr = mdr
        pipeline.ir_forced = bool(ir_forced)
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])
        bus = self.bus
        bus.force_mask = force_mask
        bus.force_value = force_value
        bus.force_reads = force_reads
        self.halted = False
        self.trap_event = None
        self.last_exec = LastExec(
            pc=pc,
            opcode=None if opcode < 0 else Opcode(opcode),
            branch_taken=bool(branch_taken),
            mem_address=mem_address if has_address else None,
            mem_value=mem_value if has_value else None,
            mem_is_write=bool(mem_is_write),
        )

    # -- trap path -------------------------------------------------------------

    def _raise_trap(self, trap: Trap, detail: str = "", code: int = 0) -> CpuEvent:
        event = TrapEvent(
            trap=trap, pc=self.pc, cycle=self.cycles, detail=detail, code=code
        )
        self.trap_event = event
        self.halted = True
        return CpuEvent(kind="trap", trap=event)

    # -- execution ----------------------------------------------------------------

    def step(self) -> Optional[CpuEvent]:
        """Execute one instruction. Returns an event or None.

        Fetch/decode/execute are fused through the memoized exec-entry
        table of per-opcode execute functions, with no per-step
        allocations. Trap ordering, partial-state effects of faulting
        instructions, cycle/counter accounting and the ``last_exec``
        record match the seed core (``tests/reference_core.py``) step for
        step.
        """
        if self.halted:
            raise CpuHalted("CPU is halted")

        start_pc = self.pc
        pipeline = self.pipeline

        # Fetch (through the I-cache, unless the scan chain forced the IR).
        if pipeline.ir_forced:
            pipeline.ir_forced = False
            word = pipeline.ir
        else:
            if not 0 <= start_pc < self._memory_size:
                return self._raise_trap(
                    Trap.ILLEGAL_ADDRESS, detail=f"fetch from {start_pc:#x}"
                )
            try:
                word, extra = self.icache.read(start_pc, self.bus)
            except CacheParityError as exc:
                return self._raise_trap(Trap.ICACHE_PARITY, detail=str(exc))
            if extra:
                self.cycles += extra
            pipeline.ir = word  # ir_forced is already False

        # Decode + dispatch lookup (memoized per instruction word).
        entry = _EXEC_CACHE.get(word)
        if entry is None:
            entry = _exec_entry(word)
            if entry is None:
                return self._raise_trap(
                    Trap.ILLEGAL_OPCODE, detail=f"word {word:#010x}"
                )
        instr, execute, cost = entry

        # Execute. The in-place reset stands for a fresh LastExec() and
        # must happen only once decode has succeeded.
        self.cycles += cost
        last = self.last_exec
        last.pc = 0
        last.opcode = None
        last.branch_taken = False
        last.mem_address = None
        last.mem_value = None
        last.mem_is_write = False
        try:
            event, next_pc, taken = execute(self, instr)
        except CacheParityError as exc:
            return self._raise_trap(Trap.DCACHE_PARITY, detail=str(exc))
        except IllegalAddress as exc:
            return self._raise_trap(Trap.ILLEGAL_ADDRESS, detail=str(exc))

        if event is not None and event.kind == "trap":
            return event

        if taken:
            self.cycles += 1
        self.pc = next_pc & 0xFFFFFFFF
        self.instret += 1
        last.pc = start_pc
        last.opcode = instr.opcode
        last.branch_taken = taken

        watchdog = self._watchdog
        if watchdog is not None and self.cycles > watchdog:
            return self._raise_trap(
                Trap.WATCHDOG, detail=f"cycle budget {watchdog}"
            )
        return event

    def run_block(self, blocks: "BlockTable", limit: int) -> Optional[CpuEvent]:
        """Run the compiled block of ``blocks`` at the PC, if one may run.

        Returns :data:`NO_BLOCK` when none may: the IR is forced, no block
        is compiled at the PC, or the block declines at entry because its
        worst-case cost would reach ``limit`` (the caller's next stop,
        time-out or watchdog trap) or an I-cache line it fetches from does
        not hold its words. Otherwise returns what stepping through the
        block returns (a trap event or None), with the same state."""
        if self.pipeline.ir_forced:
            return NO_BLOCK
        block = blocks.compiled.get(self.pc)
        if block is None:
            blocks.enter(self.pc)
            return NO_BLOCK
        return block(self, limit)


# ---------------------------------------------------------------------------
# Per-opcode templates
# ---------------------------------------------------------------------------
# The one description of what each instruction does to the machine. A
# template is Python source over the locals ``cpu``, ``regs`` (the
# register list), ``psr``, ``pipeline``, ``last`` (``cpu.last_exec``),
# ``dcache`` and ``bus``, with operand fields ``{rd}``, ``{rs1}``,
# ``{rs2}``, ``{imm}``, ``{uimm}`` (``imm`` as an unsigned word),
# ``{pc}`` and the configuration fields ``{memsize}`` and ``{mmio}``.
# Four line macros end an instruction other than by falling through:
# ``TRAP <args>`` (raise a trap), ``JUMP <target>``, ``BRANCH <cond>``
# (to ``pc + 1 + imm``) and ``EVENT <expr>`` (surface a CPU event).
# Each template is instantiated twice: once per opcode with operands read
# from the decoded Instruction (what Cpu.step dispatches to), and once
# per block instruction with operands, PC and costs as constants. State
# writes keep their order: PUSH moves SP before its store, and a store
# writes through before the cache checks its tag.

_NZ = "psr.z = r == 0\npsr.n = r >= 0x80000000\n"
_SIGNED_A = "a = regs[{rs1}]\nsa = a - 0x100000000 if a & 0x80000000 else a\n"
_REG_B = "b = regs[{rs2}]\nsb = b - 0x100000000 if b & 0x80000000 else b\n"
# An 18-bit immediate is its own signed value.
_IMM_B = "b = {uimm}\nsb = {imm}\n"
_V = "signed < -2147483648 or signed > 2147483647"


def _add_sub(b: str, subtract: bool, write: bool = True) -> str:
    """ADD/SUB/ADDI/SUBI, and CMP/CMPI when ``write`` is False."""
    if subtract:
        text = _SIGNED_A + b + (
            "wide = a + ((~b) & 0xFFFFFFFF) + 1\nsigned = sa - sb\n"
        )
    else:
        text = _SIGNED_A + b + "wide = a + b\nsigned = sa + sb\n"
    text += "r = wide & 0xFFFFFFFF\n"
    if not write:
        return text + _NZ + "psr.c = wide > 0xFFFFFFFF\npsr.v = " + _V + "\n"
    return text + "regs[{rd}] = r\n" + _NZ + (
        "psr.c = wide > 0xFFFFFFFF\n"
        "overflow = " + _V + "\n"
        "psr.v = overflow\n"
        "if overflow and psr.overflow_enable:\n"
        "    TRAP Trap.OVERFLOW\n"
    )


def _div_mod(result: str) -> str:
    return _SIGNED_A + _REG_B + (
        "if sb == 0:\n"
        "    TRAP Trap.DIV_ZERO\n"
        "q = int(sa / sb)\n"  # truncates toward zero
        "r = " + result + " & 0xFFFFFFFF\n"
        "regs[{rd}] = r\n"
    ) + _NZ


def _alu(expression: str, prologue: str = "") -> str:
    """A result ``r`` written to rd, with Z and N from it."""
    return prologue + "r = " + expression + "\nregs[{rd}] = r\n" + _NZ


def _branch(condition: str) -> str:
    return "BRANCH " + condition + "\n"


_TEMPLATES: Dict[Opcode, str] = {
    Opcode.NOP: "",
    Opcode.HALT: "cpu.halted = True\nEVENT CpuEvent(kind='halt')\n",
    Opcode.SYNC: (
        "cpu.iterations += 1\n"
        "EVENT CpuEvent(kind='sync', iteration=cpu.iterations)\n"
    ),
    Opcode.ADD: _add_sub(_REG_B, subtract=False),
    Opcode.SUB: _add_sub(_REG_B, subtract=True),
    Opcode.ADDI: _add_sub(_IMM_B, subtract=False),
    Opcode.SUBI: _add_sub(_IMM_B, subtract=True),
    Opcode.CMP: _add_sub(_REG_B, subtract=True, write=False),
    Opcode.CMPI: _add_sub(_IMM_B, subtract=True, write=False),
    Opcode.MUL: _alu("(sa * sb) & 0xFFFFFFFF", _SIGNED_A + _REG_B),
    Opcode.MULI: _alu("(sa * {imm}) & 0xFFFFFFFF", _SIGNED_A),
    Opcode.DIV: _div_mod("q"),
    Opcode.MOD: _div_mod("(sa - q * sb)"),
    Opcode.AND: _alu("regs[{rs1}] & regs[{rs2}]"),
    Opcode.OR: _alu("regs[{rs1}] | regs[{rs2}]"),
    Opcode.XOR: _alu("regs[{rs1}] ^ regs[{rs2}]"),
    Opcode.ANDI: _alu("regs[{rs1}] & {uimm}"),
    Opcode.ORI: _alu("regs[{rs1}] | {uimm}"),
    Opcode.XORI: _alu("regs[{rs1}] ^ {uimm}"),
    Opcode.SHL: _alu("(regs[{rs1}] << (regs[{rs2}] & 31)) & 0xFFFFFFFF"),
    Opcode.SHR: _alu("regs[{rs1}] >> (regs[{rs2}] & 31)"),
    Opcode.SRA: _alu("(sa >> (regs[{rs2}] & 31)) & 0xFFFFFFFF", _SIGNED_A),
    Opcode.SHLI: _alu("(regs[{rs1}] << ({imm} & 31)) & 0xFFFFFFFF"),
    Opcode.SHRI: _alu("regs[{rs1}] >> ({imm} & 31)"),
    Opcode.NOT: _alu("(~regs[{rs1}]) & 0xFFFFFFFF"),
    Opcode.MOV: _alu("regs[{rs1}]"),
    Opcode.LDI: "regs[{rd}] = {uimm}\n",
    Opcode.LUI: "regs[{rd}] = ({imm} << 14) & 0xFFFFFFFF\n",
    Opcode.LD: (
        "address = (regs[{rs1}] + {imm}) & 0xFFFFFFFF\n"
        "if address >= {memsize}:\n"
        "    raise IllegalAddress(address, 'load')\n"
        "if address >= {mmio}:\n"
        "    value = bus.read(address)\n"
        "    cpu.cycles += 2\n"  # uncached MMIO access
        "else:\n"
        "    value, extra = dcache.read(address, bus)\n"
        "    if extra:\n"
        "        cpu.cycles += extra\n"
        "regs[{rd}] = value\n"
        "pipeline.mar = address\n"
        "pipeline.mdr = value\n"
        "last.mem_address = address\n"
        "last.mem_value = value\n"
    ),
    Opcode.ST: (
        "address = (regs[{rs1}] + {imm}) & 0xFFFFFFFF\n"
        "if address >= {memsize}:\n"
        "    raise IllegalAddress(address, 'store')\n"
        "value = regs[{rd}]\n"
        "if address >= {mmio}:\n"
        "    bus.write(address, value)\n"
        "    cpu.cycles += 2\n"  # uncached MMIO access
        "else:\n"
        "    dcache.write(address, value, bus)\n"  # write buffer: 0 cycles
        "pipeline.mar = address\n"
        "pipeline.mdr = value\n"
        "last.mem_address = address\n"
        "last.mem_value = value\n"
        "last.mem_is_write = True\n"
    ),
    Opcode.PUSH: (
        "sp = (regs[14] - 1) & 0xFFFFFFFF\n"
        "if sp >= {memsize}:\n"
        "    raise IllegalAddress(sp, 'push')\n"
        "regs[14] = sp\n"
        "value = regs[{rd}]\n"
        "dcache.write(sp, value, bus)\n"
        "pipeline.mar = sp\n"
        "pipeline.mdr = value\n"
    ),
    Opcode.POP: (
        "sp = regs[14]\n"
        "if sp >= {memsize}:\n"
        "    raise IllegalAddress(sp, 'pop')\n"
        "value, extra = dcache.read(sp, bus)\n"
        "if extra:\n"
        "    cpu.cycles += extra\n"
        "regs[{rd}] = value\n"
        "regs[14] = (sp + 1) & 0xFFFFFFFF\n"
        "pipeline.mar = sp\n"
        "pipeline.mdr = value\n"
    ),
    Opcode.JMP: "JUMP {imm}\n",
    Opcode.JR: "JUMP regs[{rs1}]\n",
    Opcode.CALL: "regs[15] = ({pc} + 1) & 0xFFFFFFFF\nJUMP {imm}\n",
    Opcode.RET: "JUMP regs[15]\n",
    Opcode.BEQ: _branch("psr.z"),
    Opcode.BNE: _branch("not psr.z"),
    Opcode.BLT: _branch("psr.n != psr.v"),
    Opcode.BGE: _branch("psr.n == psr.v"),
    Opcode.BGT: _branch("(not psr.z) and psr.n == psr.v"),
    Opcode.BLE: _branch("psr.z or psr.n != psr.v"),
    Opcode.TRAP: "TRAP Trap.SOFTWARE, code={imm}\n",
}

# Control transfers end a block; the opcodes that surface an event or
# raise a software trap never run inside one.
_TRANSFERS = {
    op for op, sem in isa.SEMANTICS.items()
    if sem.flow in (
        isa.FLOW_BRANCH, isa.FLOW_JUMP, isa.FLOW_CALL, isa.FLOW_RETURN,
        isa.FLOW_INDIRECT,
    )
}
_STEP_ONLY = {
    op for op, sem in isa.SEMANTICS.items()
    if sem.flow in (isa.FLOW_HALT, isa.FLOW_TRAP) or "EVENT " in _TEMPLATES[op]
}

# Derive coverage and control-flow agreement from the shared semantics
# table rather than trusting the literals above.
assert set(_TEMPLATES) == set(isa.SEMANTICS), (
    "template table must cover every opcode"
)
assert {op for op, text in _TEMPLATES.items() if "BRANCH " in text} == {
    op for op, sem in isa.SEMANTICS.items() if sem.flow == isa.FLOW_BRANCH
}, "branch templates out of sync with isa.SEMANTICS"
assert {
    op for op, text in _TEMPLATES.items()
    if "BRANCH " in text or "JUMP " in text
} == _TRANSFERS, "transfer templates out of sync with isa.SEMANTICS"

_PSR_BITS = {
    "z": Psr.BIT_Z,
    "n": Psr.BIT_N,
    "c": Psr.BIT_C,
    "v": Psr.BIT_V,
    "overflow_enable": Psr.BIT_OE,
}


def _flag_access(template: str) -> Tuple[int, int]:
    """``(reads, writes)`` masks over the PSR bits ``template`` names:
    ``psr.<flag> = ...`` writes the flag, any other mention reads it."""
    reads = writes = 0
    for match in re.finditer(r"\bpsr\.(\w+)(\s*=(?!=))?", template):
        bit = 1 << _PSR_BITS[match.group(1)]
        if match.group(2):
            writes |= bit
        else:
            reads |= bit
    return reads, writes


#: Opcode -> (PSR bits it reads, PSR bits it writes), as masks over
#: ``Psr.BIT_*``. The reference trace records them per step, so the
#: pre-injection oracle judges the PSR bit by bit: the logic, shift,
#: multiply/divide, NOT and MOV forms write only Z and N; the add,
#: subtract and compare forms write C and V as well; the writing add and
#: subtract forms read OE (their overflow trap), and the branches read
#: the flags their condition names. OE counts as read even when the
#: operation does not overflow, which the trace cannot tell.
FLAG_ACCESS: Dict[Opcode, Tuple[int, int]] = {
    op: _flag_access(text) for op, text in _TEMPLATES.items()
}
_ARITH_FLAGS = ~(1 << Psr.BIT_OE)
assert all(
    bool(FLAG_ACCESS[op][0] & _ARITH_FLAGS) == sem.reads_flags
    and bool(FLAG_ACCESS[op][1]) == sem.writes_flags
    for op, sem in isa.SEMANTICS.items()
), "flag templates out of sync with isa.SEMANTICS"

#: The template locals, bound at the top of a generated function when
#: its body names them.
_LOCALS = {
    "regs": "cpu._regs",
    "psr": "cpu.psr",
    "pipeline": "cpu.pipeline",
    "last": "cpu.last_exec",
    "dcache": "cpu.dcache",
    "bus": "cpu.bus",
}


def _block_trap(cpu: Cpu, leader: int, index: int, words: Tuple[int, ...],
                costs: Tuple[int, ...], trap: Trap,
                detail: str = "") -> CpuEvent:
    """Leave a block whose ``index``-th instruction traps, in the state
    stepping leaves: that instruction's cycles charged, ``pc`` and ``ir``
    naming it, its fetch counted as a hit but not retired, and
    ``last_exec`` reset."""
    cpu.cycles += costs[index]
    cpu.pc = leader + index
    cpu.pipeline.ir = words[index]
    cpu.icache.stats.hits += index + 1
    cpu.instret += index
    last = cpu.last_exec
    last.pc = 0
    last.opcode = None
    last.branch_taken = False
    last.mem_address = None
    last.mem_value = None
    last.mem_is_write = False
    return cpu._raise_trap(trap, detail=detail)


#: Names the generated code refers to besides its locals.
_NAMESPACE = {
    "CacheParityError": CacheParityError,
    "CpuEvent": CpuEvent,
    "IllegalAddress": IllegalAddress,
    "NO_BLOCK": NO_BLOCK,
    "Opcode": Opcode,
    "Trap": Trap,
    "_block_trap": _block_trap,
}


def _expand(template: str, fields: Dict[str, str], macros: Dict[str, str],
            indent: str) -> List[str]:
    """Instantiate ``template``: fill its fields, then replace each macro
    line by ``macros[name]`` (filled with ``arg`` and the fields) at the
    line's indentation."""
    out = []
    for line in template.format_map(fields).splitlines():
        text = line.lstrip()
        pad = indent + line[: len(line) - len(text)]
        name, _, arg = text.partition(" ")
        if name in macros:
            expansion = macros[name].format_map(dict(fields, arg=arg))
            out.extend(pad + part for part in expansion.splitlines())
        else:
            out.append(pad + text)
    return out


def _compile(source: str, filename: str, name: str) -> Callable:
    """Compile generated source under ``filename``, registered with
    linecache so tracebacks and profiles show its lines."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    namespace = dict(_NAMESPACE)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# -- per-opcode execute functions (the step path) -------------------------------

_STEP_FIELDS = {
    "rd": "instr.rd",
    "rs1": "instr.rs1",
    "rs2": "instr.rs2",
    "imm": "instr.imm",
    "uimm": "(instr.imm & 0xFFFFFFFF)",
    "pc": "cpu.pc",
    "memsize": "cpu._memory_size",
    "mmio": "cpu._uncached_base",
}
_FALL_THROUGH = "return None, {pc} + 1, False"
_STEP_MACROS = {
    "TRAP": "return cpu._raise_trap({arg}), 0, False",
    "JUMP": "return None, {arg}, True",
    "BRANCH": "if {arg}:\n    return None, {pc} + 1 + {imm}, True\n"
    + _FALL_THROUGH,
    "EVENT": "return {arg}, {pc} + 1, False",
}


def _execute_source(op: Opcode) -> str:
    template = _TEMPLATES[op]
    last_line = (template.splitlines() or [""])[-1]
    if last_line.split(" ")[0] not in _STEP_MACROS:
        template += _FALL_THROUGH + "\n"
    body = _expand(template, _STEP_FIELDS, _STEP_MACROS, "    ")
    prologue = [
        f"    {name} = {source}" for name, source in _LOCALS.items()
        if re.search(rf"\b{name}\b", template)
    ]
    return "\n".join(["def execute(cpu, instr):"] + prologue + body) + "\n"


#: Opcode -> ``execute(cpu, instr) -> (event, next_pc, taken)``; the step
#: loop masks and applies ``next_pc`` unless the event is a trap.
_EXECUTE: Dict[Opcode, Callable] = {
    op: _compile(_execute_source(op), f"<thor-op {op.name}>", "execute")
    for op in Opcode
}

#: Memoized step entries: instruction word -> (frozen Instruction,
#: execute function, base cycle cost). Shares the decode memo's
#: no-poisoning property — illegal words never get an entry — and the
#: same clear-on-full size bound.
_EXEC_CACHE: Dict[int, Tuple[Instruction, Callable, int]] = {}
_EXEC_CACHE_MAX = 1 << 16


def _exec_entry(word: int) -> Optional[Tuple[Instruction, Callable, int]]:
    instr = isa.try_decode(word)
    if instr is None:
        return None
    entry = (instr, _EXECUTE[instr.opcode], isa.CYCLE_COST[instr.opcode])
    if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
        _EXEC_CACHE.clear()
    _EXEC_CACHE[word] = entry
    return entry


# -- blocks ------------------------------------------------------------------------

#: A leader steps until its ``_COMPILE_AFTER``-th entry, then runs as a
#: block: about one compile (~0.7 ms) of stepped blocks (~10 us each).
_COMPILE_AFTER = 48

_BLOCK_MACROS = {
    "TRAP": "return _block_trap(cpu, {leader}, {index}, WORDS, COSTS, {arg})",
    "JUMP": "cpu.pc = ({arg}) & 0xFFFFFFFF\ntaken = True",
    "BRANCH": "if {arg}:\n"
    "    cpu.pc = ({pc} + 1 + {imm}) & 0xFFFFFFFF\n"
    "    taken = True\n"
    "else:\n"
    "    cpu.pc = {pc} + 1\n"
    "    taken = False",
}


class BlockTable:
    """The blocks of one program image under one :class:`CpuConfig`.

    A block starts at a leader — the entry point, a branch, JMP or CALL
    target, or the address after a control transfer, HALT, SYNC, TRAP or
    illegal word — and runs through the first control transfer. HALT,
    SYNC, TRAP, an illegal word and any non-code address end it before
    that word. Compiled blocks read all machine state from the ``cpu``
    they run on, so one table serves every card with the same image and
    configuration.
    """

    def __init__(self, program: Program, config: CpuConfig):
        self.config = config
        self.code = {
            address: word for address, word in program.words.items()
            if program.kinds.get(address) == "code"
        }
        leaders = {program.entry}
        for address, word in self.code.items():
            instr = isa.try_decode(word)
            if instr is None:
                leaders.add(address + 1)
                continue
            if instr.opcode in _STEP_ONLY or instr.opcode in _TRANSFERS:
                leaders.add(address + 1)
            if instr.opcode in isa.BRANCHES:
                leaders.add(address + 1 + instr.imm)
            elif instr.opcode in (Opcode.JMP, Opcode.CALL):
                leaders.add(instr.imm)
        self.leaders = frozenset(a for a in leaders if a in self.code)
        #: Leader -> compiled block.
        self.compiled: Dict[int, Callable] = {}
        self._entries = {
            leader: 0 for leader in self.leaders if self.extent(leader)
        }

    def extent(self, leader: int) -> List[Tuple[int, int, Instruction]]:
        """``(address, word, instruction)`` of each instruction of the
        block at ``leader``; empty when no block can start there. A block
        spans at most as many lines as the I-cache holds."""
        config = self.config
        first_line = leader // config.words_per_line
        out = []
        address = leader
        while (
            address in self.code
            and address < config.memory_size
            and address // config.words_per_line - first_line
            < config.icache_lines
        ):
            word = self.code[address]
            instr = isa.try_decode(word)
            if instr is None or instr.opcode in _STEP_ONLY:
                break
            out.append((address, word, instr))
            if instr.opcode in _TRANSFERS:
                break
            address += 1
        return out

    def enter(self, pc: int) -> None:
        """Count an entry at ``pc`` that found no compiled block; the
        ``_COMPILE_AFTER``-th entry at a leader compiles its block."""
        count = self._entries.get(pc)
        if count is None:
            return
        if count + 1 < _COMPILE_AFTER:
            self._entries[pc] = count + 1
            return
        del self._entries[pc]
        source = _block_source(pc, self.extent(pc), self.config)
        # Images and configurations differ in what a block at one
        # address holds; the source digest keeps their lines apart.
        self.compiled[pc] = _compile(
            source,
            f"<thor-block {pc:#06x} {zlib.crc32(source.encode()):08x}>",
            "block",
        )


def _block_source(leader: int, instrs: List[Tuple[int, int, Instruction]],
                  config: CpuConfig) -> str:
    """One function for the block: entry checks, then every instruction's
    template with its operands, PC and costs as constants."""
    words_per_line = config.words_per_line
    offset_bits = words_per_line.bit_length() - 1
    tag_shift = offset_bits + config.icache_lines.bit_length() - 1
    costs = list(itertools.accumulate(
        isa.CYCLE_COST[instr.opcode] for _, _, instr in instrs
    ))
    max_cost = costs[-1] + (instrs[-1][2].opcode in _TRANSFERS)
    for _, _, instr in instrs:
        sem = isa.SEMANTICS[instr.opcode]
        max_cost += max(
            config.miss_penalty if sem.mem == isa.MEM_LOAD else 0,
            2 if "{mmio}" in _TEMPLATES[instr.opcode] else 0,
        )
    lines = [
        f"WORDS = {tuple(word for _, word, _ in instrs)!r}",
        f"COSTS = {tuple(costs)!r}",
        "",
        "",
        "def block(cpu, limit):",
        f"    if cpu.cycles + {max_cost} >= limit:",
        "        return NO_BLOCK",
        "    lines = cpu.icache.lines",
    ]
    # Entry check: every line the block fetches from is valid and holds
    # the block's tag and words with their parity, so stepping would hit
    # on exactly the compiled words.
    for line_no, group in itertools.groupby(
        instrs, key=lambda item: item[0] >> offset_bits
    ):
        tag = line_no << offset_bits >> tag_shift
        checks = [
            "line.valid",
            f"line.tag == {tag}",
            f"line.tag_parity == {parity(tag)}",
        ]
        for address, word, _ in group:
            offset = address & (words_per_line - 1)
            checks.append(f"data[{offset}] == {word:#x}")
            checks.append(f"par[{offset}] == {parity(word)}")
        lines += [
            f"    line = lines[{line_no & (config.icache_lines - 1)}]",
            "    data = line.data",
            "    par = line.data_parity",
            "    if not (" + "\n            and ".join(checks) + "):",
            "        return NO_BLOCK",
        ]
    body = []
    raises = False
    for index, (address, word, instr) in enumerate(instrs):
        template = _TEMPLATES[instr.opcode]
        final = index == len(instrs) - 1
        if "raise " in template or "dcache." in template:
            raises = True
            body.append(f"i = {index}")
        if final:
            body += [
                "last.mem_address = None",
                "last.mem_value = None",
                "last.mem_is_write = False",
            ]
        else:
            # last_exec records the final instruction only.
            template = "".join(
                line for line in template.splitlines(True)
                if not line.lstrip().startswith("last.")
            )
        body.append(f"# {address:#06x}: {format_instruction(instr)}")
        body += _expand(template, {
            "rd": str(instr.rd),
            "rs1": str(instr.rs1),
            "rs2": str(instr.rs2),
            "imm": str(instr.imm),
            "uimm": str(instr.imm & isa.WORD_MASK),
            "pc": str(address),
            "memsize": str(config.memory_size),
            "mmio": str(config.uncached_base),
            "leader": str(leader),
            "index": str(index),
        }, _BLOCK_MACROS, "")
    last_address, last_word, last_instr = instrs[-1]
    if last_instr.opcode not in _TRANSFERS:
        body += [f"cpu.pc = {last_address + 1}", "taken = False"]
    used = "\n".join(body)
    lines += [
        f"    {name} = {source}" for name, source in _LOCALS.items()
        if name in ("pipeline", "last") or re.search(rf"\b{name}\b", used)
    ]
    if raises:
        lines.append("    try:")
        lines += ["        " + line for line in body]
        for error, trap in (
            ("CacheParityError", "DCACHE_PARITY"),
            ("IllegalAddress", "ILLEGAL_ADDRESS"),
        ):
            lines += [
                f"    except {error} as exc:",
                f"        return _block_trap(cpu, {leader}, i, WORDS, COSTS,"
                f" Trap.{trap}, str(exc))",
            ]
    else:
        lines += ["    " + line for line in body]
    lines += [
        f"    cpu.cycles += {costs[-1]} + taken",
        f"    cpu.instret += {len(instrs)}",
        f"    pipeline.ir = {last_word:#x}",
        f"    cpu.icache.stats.hits += {len(instrs)}",
        f"    last.pc = {last_address}",
        f"    last.opcode = Opcode.{last_instr.opcode.name}",
        "    last.branch_taken = taken",
        "    return None",
    ]
    return "\n".join(lines) + "\n"


_TABLES: Dict[Tuple[int, CpuConfig], Tuple["weakref.ref[Program]", BlockTable]] = {}


def block_table(program: Program, config: CpuConfig) -> BlockTable:
    """The shared :class:`BlockTable` of ``program`` under ``config``
    (kept while the program object lives)."""
    key = (id(program), config)
    entry = _TABLES.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    table = BlockTable(program, config)
    _TABLES[key] = (
        weakref.ref(program, lambda _ref: _TABLES.pop(key, None)), table
    )
    return table
