"""The THOR test card: the board the chip sits on.

In the paper the target system is a test card hosting the Thor RD,
reachable from the host over a test-port connection. Everything the
fault-injection tool does to the target goes through the card:

* download of the workload image and input data (``load_program``,
  ``write_memory``),
* run control with breakpoints and debug events (``run``, ``set_breakpoints``),
* scan-chain access while the CPU is stopped (``read_chain``,
  ``read_chain_values``, ``write_chain``),
* the environment-simulator data exchange at loop-iteration (SYNC)
  boundaries (``on_sync``),
* experiment termination by debug event: "a time-out value has been
  reached, an error has been detected or the execution of the workload
  ends, whichever comes first" (paper Section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.thor.assembler import Program
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.scanchain import ScanChain, build_scan_chains
from repro.thor.traps import Trap, TrapEvent
from repro.util.errors import TargetError


class DebugEventKind(enum.Enum):
    BREAKPOINT = "breakpoint"
    HALT = "halt"
    TRAP = "trap"
    TIMEOUT = "timeout"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class DebugEvent:
    """Why the target stopped (or paused) this time."""

    kind: DebugEventKind
    pc: int
    cycle: int
    trap: Optional[TrapEvent] = None
    iteration: int = 0
    reason: str = ""

    def describe(self) -> str:
        text = f"{self.kind.value} at pc={self.pc:#06x} cycle={self.cycle}"
        if self.trap is not None:
            text += f": {self.trap.describe()}"
        if self.reason:
            text += f" [{self.reason}]"
        return text


# Hook signatures.
SyncHook = Callable[["TestCard", int], None]
StepHook = Callable[["TestCard"], None]
TrapHook = Callable[["TestCard", TrapEvent], bool]


class TestCard:
    """One target system instance: chip + board services."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, config: Optional[CpuConfig] = None, name: str = "thor-rd"):
        self.name = name
        self.cpu = Cpu(config)
        self.chains: Dict[str, ScanChain] = build_scan_chains(self.cpu)
        self.program: Optional[Program] = None
        self.on_sync: Optional[SyncHook] = None
        self.on_step: Optional[StepHook] = None
        self.trap_hook: Optional[TrapHook] = None
        self.total_scan_cycles = 0
        self._breakpoints: Set[int] = set()
        self._skip_breakpoint_once = False

    # -- initialisation (the initTestCard building block) ---------------------

    def init(self) -> None:
        """Power-cycle the card: clears CPU state and memory, keeps the
        configured scan-chain structure and hooks."""
        self.cpu.memory.reset()
        self.cpu.reset(entry=0)
        self.program = None
        self._breakpoints.clear()
        self._skip_breakpoint_once = False

    # -- download port (loadWorkload / writeMemory / readMemory) --------------

    def load_program(self, program: Program) -> None:
        """Download an assembled workload and point the PC at its entry."""
        self.program = program
        self.cpu.memory.load_image(program.words)
        self.cpu.reset(entry=program.entry)

    def write_memory(self, address: int, value: int) -> None:
        self.cpu.memory.poke(address, value)

    def read_memory(self, address: int) -> int:
        return self.cpu.memory.peek(address)

    def write_memory_block(self, base: int, values: List[int]) -> None:
        for i, value in enumerate(values):
            self.cpu.memory.poke(base + i, value)

    def read_memory_block(self, base: int, count: int) -> List[int]:
        return self.cpu.memory.dump(base, base + count)

    # -- scan access (readScanChain / writeScanChain) ---------------------------

    def chain(self, name: str) -> ScanChain:
        chain = self.chains.get(name)
        if chain is None:
            raise TargetError(f"no scan chain {name!r} on card {self.name!r}")
        return chain

    def read_chain(self, name: str) -> List[int]:
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        return chain.read()

    def read_chain_values(self, name: str) -> List[int]:
        """Shift out chain ``name`` as per-cell values (one full-chain
        shift, charged like :meth:`read_chain`)."""
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        return chain.read_values()

    def write_chain(self, name: str, bits: List[int]) -> None:
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        chain.write(bits)

    # -- breakpoints ----------------------------------------------------------

    def set_breakpoints(self, addresses: List[int]) -> None:
        self._breakpoints = set(addresses)
        self._skip_breakpoint_once = False

    def clear_breakpoints(self) -> None:
        self._breakpoints.clear()

    # -- run control ------------------------------------------------------------

    def run(
        self,
        timeout_cycles: int,
        max_iterations: Optional[int] = None,
        stop_cycle: Optional[int] = None,
    ) -> DebugEvent:
        """Run until a debug event.

        ``timeout_cycles`` is the experiment's cycle budget (the paper's
        time-out termination condition). ``stop_cycle`` makes the card stop
        at the first instruction boundary at or past that cycle — this is
        how the SCIFI algorithm realises "inject at time t".
        ``max_iterations`` bounds SYNC loop iterations for workloads that
        run as an infinite loop.
        """
        cpu = self.cpu
        if cpu.halted:
            raise TargetError("target is halted; re-initialise the card first")
        # Loop-invariant hoists: breakpoints and hooks are only
        # reconfigured while the card is stopped, so the per-instruction
        # body should not pay an attribute lookup for each of them.
        step = cpu.step
        breakpoints = self._breakpoints
        on_step = self.on_step
        while True:
            if stop_cycle is not None and cpu.cycles >= stop_cycle:
                return DebugEvent(
                    kind=DebugEventKind.BREAKPOINT,
                    pc=cpu.pc,
                    cycle=cpu.cycles,
                    reason=f"cycle>={stop_cycle}",
                )
            if cpu.pc in breakpoints and not self._skip_breakpoint_once:
                self._skip_breakpoint_once = True
                return DebugEvent(
                    kind=DebugEventKind.BREAKPOINT,
                    pc=cpu.pc,
                    cycle=cpu.cycles,
                    reason="address",
                )
            self._skip_breakpoint_once = False
            if cpu.cycles >= timeout_cycles:
                return DebugEvent(
                    kind=DebugEventKind.TIMEOUT,
                    pc=cpu.pc,
                    cycle=cpu.cycles,
                    reason=f"budget {timeout_cycles}",
                )

            event = step()
            # Step hooks (tracing, detail-mode logging, trap re-planting)
            # see only completed instructions, not halting/trapping steps.
            if on_step is not None and (
                event is None or event.kind == "sync"
            ):
                on_step(self)
            if event is None:
                continue
            if event.kind == "halt":
                return DebugEvent(
                    kind=DebugEventKind.HALT, pc=cpu.pc, cycle=cpu.cycles
                )
            if event.kind == "sync":
                if self.on_sync is not None:
                    self.on_sync(self, event.iteration)
                if max_iterations is not None and event.iteration >= max_iterations:
                    return DebugEvent(
                        kind=DebugEventKind.MAX_ITERATIONS,
                        pc=cpu.pc,
                        cycle=cpu.cycles,
                        iteration=event.iteration,
                    )
                continue
            if event.kind == "trap":
                trap = event.trap
                assert trap is not None
                if (
                    trap.trap is Trap.SOFTWARE
                    and self.trap_hook is not None
                    and self.trap_hook(self, trap)
                ):
                    # The hook serviced the trap (runtime-SWIFI injection
                    # point); resume at the same PC, which the hook has
                    # typically rewritten.
                    cpu.clear_trap()
                    continue
                return DebugEvent(
                    kind=DebugEventKind.TRAP,
                    pc=cpu.pc,
                    cycle=cpu.cycles,
                    trap=trap,
                )
