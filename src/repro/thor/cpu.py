"""THOR-lite CPU core: functional execution with cycle accounting.

The core executes one instruction per :meth:`Cpu.step`, charging base
cycle costs plus cache-miss penalties, and raising traps through the
error-detection mechanisms in :mod:`repro.thor.traps`. A trap halts the
CPU (the experiment terminates with a *detected error*, per the paper's
termination conditions); ``SYNC`` emits an iteration-boundary event used
by the environment-simulator exchange; ``HALT`` terminates the workload
normally.

:meth:`Cpu.step` fuses fetch/decode/execute through a memoized
``word -> (instruction, handler, cycle cost)`` table whose per-opcode
handlers are validated against :data:`repro.thor.isa.SEMANTICS`. The
seed's straight-line decode + if-chain core it replaced is kept in the
test suite (``tests/reference_core.py``) as the oracle it is held to:
the lockstep and core-equivalence property tests and the E18 benchmark
require identical state, events and campaign rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.thor import isa
from repro.thor.cache import Cache, CacheParityError
from repro.thor.isa import Instruction, Opcode
from repro.thor.memory import IllegalAddress, Memory, MemoryBus
from repro.thor.pipeline import PipelineLatches
from repro.thor.registers import Psr, RegisterFile
from repro.thor.traps import Trap, TrapEvent


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
    reg_reads: Tuple[int, ...] = ()
    reg_writes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CpuEvent:
    """Event surfaced by one step: "halt", "trap" or "sync"."""

    kind: str
    trap: Optional[TrapEvent] = None
    iteration: int = 0


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
        """Everything but main memory, as plain picklable data.

        Captured at instruction boundaries along the trap-free reference
        run, so ``halted`` is False and no trap is latched; ``last_exec``
        is included because fault triggers consume it."""
        last = self.last_exec
        return {
            "regs": self.regs.snapshot(),
            "psr": self.psr.to_word(),
            "pipeline": self.pipeline.snapshot(),
            "icache": self.icache.snapshot_state(),
            "dcache": self.dcache.snapshot_state(),
            "bus": (
                self.bus.force_mask,
                self.bus.force_value,
                self.bus.force_reads,
            ),
            "pc": self.pc,
            "cycles": self.cycles,
            "instret": self.instret,
            "iterations": self.iterations,
            "last_exec": (
                last.pc,
                None if last.opcode is None else last.opcode.name,
                last.branch_taken,
                last.mem_address,
                last.mem_value,
                last.mem_is_write,
                tuple(last.reg_reads),
                tuple(last.reg_writes),
            ),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (memory is restored separately by
        the test card's page loads). Leaves the CPU running (not halted,
        no trap latched) exactly as it was at the capture boundary."""
        self.regs.restore(state["regs"])
        self.psr.from_word(state["psr"])
        self.pipeline.restore(state["pipeline"])
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])
        force_mask, force_value, force_reads = state["bus"]
        self.bus.force_mask = force_mask
        self.bus.force_value = force_value
        self.bus.force_reads = force_reads
        self.pc = state["pc"]
        self.cycles = state["cycles"]
        self.instret = state["instret"]
        self.iterations = state["iterations"]
        self.halted = False
        self.trap_event = None
        (
            pc,
            opcode_name,
            branch_taken,
            mem_address,
            mem_value,
            mem_is_write,
            reg_reads,
            reg_writes,
        ) = state["last_exec"]
        self.last_exec = LastExec(
            pc=pc,
            opcode=None if opcode_name is None else Opcode[opcode_name],
            branch_taken=branch_taken,
            mem_address=mem_address,
            mem_value=mem_value,
            mem_is_write=mem_is_write,
            reg_reads=tuple(reg_reads),
            reg_writes=tuple(reg_writes),
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
        table, with no per-step allocations. Trap ordering,
        partial-state effects of faulting instructions, cycle/counter
        accounting and the ``last_exec`` record match the seed core
        (``tests/reference_core.py``) step for step.
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
        instr, handler, cost = entry

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
        last.reg_reads = ()
        last.reg_writes = ()
        try:
            event, next_pc, taken = handler(self, instr)
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


# ---------------------------------------------------------------------------
# Per-opcode handler table
# ---------------------------------------------------------------------------
# One module-level handler per opcode, each an inlined transcription of
# the corresponding branch of the seed core's if-chain (``_execute`` in
# ``tests/reference_core.py``). A handler returns ``(event, next_pc,
# taken)``; ``next_pc`` is masked and applied by the step loop unless the
# event is a trap. State-mutation *order* is preserved exactly — e.g.
# PUSH updates SP before the D-cache write that may raise on a protected
# page, so a trapping PUSH leaves the seed core's partial state.

_M32 = 0xFFFFFFFF
_SIGN = 0x80000000
_SP = isa.REG_SP
_LR = isa.REG_LR

_HandlerResult = Tuple[Optional[CpuEvent], int, bool]
_Handler = Callable[["Cpu", Instruction], _HandlerResult]


def _h_nop(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    return None, cpu.pc + 1, False


def _h_halt(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    cpu.halted = True
    return CpuEvent(kind="halt"), cpu.pc + 1, False


def _h_sync(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    cpu.iterations += 1
    return CpuEvent(kind="sync", iteration=cpu.iterations), cpu.pc + 1, False


def _addsub_handler(subtract: bool, immediate: bool) -> _Handler:
    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        b = (instr.imm & _M32) if immediate else regs[instr.rs2]
        sa = a - 0x100000000 if a & _SIGN else a
        sb = b - 0x100000000 if b & _SIGN else b
        if subtract:
            wide = a + ((~b) & _M32) + 1
            signed = sa - sb
        else:
            wide = a + b
            signed = sa + sb
        result = wide & _M32
        regs[instr.rd] = result
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = wide > _M32
        overflow = signed < -2147483648 or signed > 2147483647
        psr.v = overflow
        if overflow and psr.overflow_enable:
            return cpu._raise_trap(Trap.OVERFLOW), 0, False
        return None, cpu.pc + 1, False

    return handler


def _mul_handler(immediate: bool) -> _Handler:
    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        sa = a - 0x100000000 if a & _SIGN else a
        if immediate:
            sb = instr.imm
        else:
            b = regs[instr.rs2]
            sb = b - 0x100000000 if b & _SIGN else b
        result = (sa * sb) & _M32
        regs[instr.rd] = result
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        return None, cpu.pc + 1, False

    return handler


def _divmod_handler(is_div: bool) -> _Handler:
    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        b = regs[instr.rs2]
        sa = a - 0x100000000 if a & _SIGN else a
        sb = b - 0x100000000 if b & _SIGN else b
        if sb == 0:
            return cpu._raise_trap(Trap.DIV_ZERO), 0, False
        quotient = int(sa / sb)  # truncate toward zero (reference idiom)
        result = (quotient if is_div else sa - quotient * sb) & _M32
        regs[instr.rd] = result
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        return None, cpu.pc + 1, False

    return handler


def _logic_handler(code: str, immediate: bool) -> _Handler:
    is_and = code == "and"
    is_or = code == "or"

    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        b = (instr.imm & _M32) if immediate else regs[instr.rs2]
        if is_and:
            result = a & b
        elif is_or:
            result = a | b
        else:
            result = a ^ b
        regs[instr.rd] = result
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        return None, cpu.pc + 1, False

    return handler


def _shift_handler(code: str, immediate: bool) -> _Handler:
    is_shl = code == "shl"
    is_shr = code == "shr"

    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        amount = (instr.imm & 31) if immediate else (regs[instr.rs2] & 31)
        if is_shl:
            result = (a << amount) & _M32
        elif is_shr:
            result = a >> amount
        else:  # SRA
            sa = a - 0x100000000 if a & _SIGN else a
            result = (sa >> amount) & _M32
        regs[instr.rd] = result
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        return None, cpu.pc + 1, False

    return handler


def _h_not(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    result = (~cpu._regs[instr.rs1]) & _M32
    cpu._regs[instr.rd] = result
    psr = cpu.psr
    psr.z = result == 0
    psr.n = result >= _SIGN
    return None, cpu.pc + 1, False


def _h_mov(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    regs = cpu._regs
    result = regs[instr.rs1]
    regs[instr.rd] = result
    psr = cpu.psr
    psr.z = result == 0
    psr.n = result >= _SIGN
    return None, cpu.pc + 1, False


def _h_ldi(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    cpu._regs[instr.rd] = instr.imm & _M32
    return None, cpu.pc + 1, False


def _h_lui(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    cpu._regs[instr.rd] = (instr.imm << 14) & _M32
    return None, cpu.pc + 1, False


def _cmp_handler(immediate: bool) -> _Handler:
    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        regs = cpu._regs
        a = regs[instr.rs1]
        b = (instr.imm & _M32) if immediate else regs[instr.rs2]
        wide = a + ((~b) & _M32) + 1
        result = wide & _M32
        sa = a - 0x100000000 if a & _SIGN else a
        sb = b - 0x100000000 if b & _SIGN else b
        signed = sa - sb
        psr = cpu.psr
        psr.z = result == 0
        psr.n = result >= _SIGN
        psr.c = wide > _M32
        psr.v = signed < -2147483648 or signed > 2147483647
        return None, cpu.pc + 1, False

    return handler


def _h_ld(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    address = (cpu._regs[instr.rs1] + instr.imm) & _M32
    if address >= cpu._memory_size:
        raise IllegalAddress(address, "load")
    if address >= cpu._uncached_base:
        value = cpu.bus.read(address)
        cpu.cycles += 2  # uncached MMIO access
    else:
        value, extra = cpu.dcache.read(address, cpu.bus)
        if extra:
            cpu.cycles += extra
    cpu._regs[instr.rd] = value
    pipeline = cpu.pipeline
    pipeline.mar = address
    pipeline.mdr = value
    last = cpu.last_exec
    last.mem_address = address
    last.mem_value = value
    return None, cpu.pc + 1, False


def _h_st(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    regs = cpu._regs
    address = (regs[instr.rs1] + instr.imm) & _M32
    if address >= cpu._memory_size:
        raise IllegalAddress(address, "store")
    value = regs[instr.rd]
    if address >= cpu._uncached_base:
        cpu.bus.write(address, value)
        cpu.cycles += 2  # uncached MMIO access
    else:
        cpu.dcache.write(address, value, cpu.bus)  # write buffer: 0 cycles
    pipeline = cpu.pipeline
    pipeline.mar = address
    pipeline.mdr = value
    last = cpu.last_exec
    last.mem_address = address
    last.mem_value = value
    last.mem_is_write = True
    return None, cpu.pc + 1, False


def _h_push(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    regs = cpu._regs
    sp = (regs[_SP] - 1) & _M32
    if sp >= cpu._memory_size:
        raise IllegalAddress(sp, "push")
    regs[_SP] = sp  # SP moves before a (possibly trapping) store
    value = regs[instr.rd]
    cpu.dcache.write(sp, value, cpu.bus)
    pipeline = cpu.pipeline
    pipeline.mar = sp
    pipeline.mdr = value
    return None, cpu.pc + 1, False


def _h_pop(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    regs = cpu._regs
    sp = regs[_SP]
    if sp >= cpu._memory_size:
        raise IllegalAddress(sp, "pop")
    value, extra = cpu.dcache.read(sp, cpu.bus)
    if extra:
        cpu.cycles += extra
    regs[instr.rd] = value
    regs[_SP] = (sp + 1) & _M32
    pipeline = cpu.pipeline
    pipeline.mar = sp
    pipeline.mdr = value
    return None, cpu.pc + 1, False


def _h_jmp(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    return None, instr.imm, True


def _h_jr(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    return None, cpu._regs[instr.rs1], True


def _h_call(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    cpu._regs[_LR] = (cpu.pc + 1) & _M32
    return None, instr.imm, True


def _h_ret(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    return None, cpu._regs[_LR], True


def _h_trap(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
    return cpu._raise_trap(Trap.SOFTWARE, code=instr.imm), 0, False


# Branch predicates over the PSR, used to generate one handler per
# conditional branch; coverage is derived from isa.SEMANTICS below.
_BRANCH_PREDICATES: Dict[Opcode, Callable[[Psr], bool]] = {
    Opcode.BEQ: lambda psr: psr.z,
    Opcode.BNE: lambda psr: not psr.z,
    Opcode.BLT: lambda psr: psr.n != psr.v,
    Opcode.BGE: lambda psr: psr.n == psr.v,
    Opcode.BGT: lambda psr: (not psr.z) and psr.n == psr.v,
    Opcode.BLE: lambda psr: psr.z or psr.n != psr.v,
}


def _branch_handler(predicate: Callable[[Psr], bool]) -> _Handler:
    def handler(cpu: "Cpu", instr: Instruction) -> _HandlerResult:
        if predicate(cpu.psr):
            return None, cpu.pc + 1 + instr.imm, True
        return None, cpu.pc + 1, False

    return handler


def _build_handlers() -> Dict[Opcode, _Handler]:
    handlers: Dict[Opcode, _Handler] = {
        Opcode.NOP: _h_nop,
        Opcode.HALT: _h_halt,
        Opcode.SYNC: _h_sync,
        Opcode.ADD: _addsub_handler(subtract=False, immediate=False),
        Opcode.SUB: _addsub_handler(subtract=True, immediate=False),
        Opcode.ADDI: _addsub_handler(subtract=False, immediate=True),
        Opcode.SUBI: _addsub_handler(subtract=True, immediate=True),
        Opcode.MUL: _mul_handler(immediate=False),
        Opcode.MULI: _mul_handler(immediate=True),
        Opcode.DIV: _divmod_handler(is_div=True),
        Opcode.MOD: _divmod_handler(is_div=False),
        Opcode.AND: _logic_handler("and", immediate=False),
        Opcode.OR: _logic_handler("or", immediate=False),
        Opcode.XOR: _logic_handler("xor", immediate=False),
        Opcode.ANDI: _logic_handler("and", immediate=True),
        Opcode.ORI: _logic_handler("or", immediate=True),
        Opcode.XORI: _logic_handler("xor", immediate=True),
        Opcode.SHL: _shift_handler("shl", immediate=False),
        Opcode.SHR: _shift_handler("shr", immediate=False),
        Opcode.SRA: _shift_handler("sra", immediate=False),
        Opcode.SHLI: _shift_handler("shl", immediate=True),
        Opcode.SHRI: _shift_handler("shr", immediate=True),
        Opcode.NOT: _h_not,
        Opcode.MOV: _h_mov,
        Opcode.LDI: _h_ldi,
        Opcode.LUI: _h_lui,
        Opcode.CMP: _cmp_handler(immediate=False),
        Opcode.CMPI: _cmp_handler(immediate=True),
        Opcode.LD: _h_ld,
        Opcode.ST: _h_st,
        Opcode.PUSH: _h_push,
        Opcode.POP: _h_pop,
        Opcode.JMP: _h_jmp,
        Opcode.JR: _h_jr,
        Opcode.CALL: _h_call,
        Opcode.RET: _h_ret,
        Opcode.TRAP: _h_trap,
    }
    handlers.update(
        {
            op: _branch_handler(predicate)
            for op, predicate in _BRANCH_PREDICATES.items()
        }
    )
    # Derive coverage and control-flow agreement from the shared
    # semantics table rather than trusting the literals above.
    assert set(handlers) == set(isa.SEMANTICS), (
        "handler table must cover every opcode"
    )
    branch_ops = {
        op for op, sem in isa.SEMANTICS.items()
        if sem.flow == isa.FLOW_BRANCH
    }
    assert branch_ops == set(_BRANCH_PREDICATES), (
        "branch predicates out of sync with isa.SEMANTICS"
    )
    return handlers


_HANDLERS: Dict[Opcode, _Handler] = _build_handlers()
_COST: Dict[Opcode, int] = dict(isa.CYCLE_COST)

#: Memoized fused-dispatch entries: instruction word ->
#: (frozen Instruction, handler, base cycle cost). Shares the decode
#: memo's no-poisoning property — illegal words never get an entry — and
#: the same clear-on-full size bound.
_EXEC_CACHE: Dict[int, Tuple[Instruction, _Handler, int]] = {}
_EXEC_CACHE_MAX = 1 << 16


def _exec_entry(word: int) -> Optional[Tuple[Instruction, _Handler, int]]:
    instr = isa.try_decode(word)
    if instr is None:
        return None
    entry = (instr, _HANDLERS[instr.opcode], _COST[instr.opcode])
    if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
        _EXEC_CACHE.clear()
    _EXEC_CACHE[word] = entry
    return entry
