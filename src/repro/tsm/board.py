"""The TSM-1 evaluation board: run control, scan access, download port.

Provides the same *capabilities* the THOR test card provides — not the
same class: ports are free to wrap their targets however fits, the
Framework only cares about the building-block methods the interface
implements on top.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.thor.scanchain import ChainImage, ScanCell, ScanChain
from repro.thor.testcard import DebugEvent, DebugEventKind
from repro.tsm.assembler import TsmProgram
from repro.tsm.machine import TsmConfig, TsmMachine
from repro.util.errors import TargetError


def build_tsm_chain(machine: TsmMachine) -> ScanChain:
    """Internal scan chain of the TSM-1: pc, stack pointers, both stack
    arrays, plus read-only counters."""
    config = machine.config
    addr_bits = max(1, (config.memory_size - 1).bit_length())
    sp_bits = max(1, config.data_stack_depth.bit_length())
    rsp_bits = max(1, config.return_stack_depth.bit_length())
    cells: List[ScanCell] = [
        ScanCell(
            path="tsm.pc",
            width=addr_bits,
            reader=(lambda: machine.pc & ((1 << addr_bits) - 1)),
            writer=(lambda v: setattr(machine, "pc", v)),
        ),
        ScanCell(
            path="tsm.sp",
            width=sp_bits,
            reader=(lambda: machine.sp),
            writer=(lambda v: setattr(machine, "sp", v)),
        ),
        ScanCell(
            path="tsm.rsp",
            width=rsp_bits,
            reader=(lambda: machine.rsp),
            writer=(lambda v: setattr(machine, "rsp", v)),
        ),
    ]
    for index in range(config.data_stack_depth):
        cells.append(
            ScanCell(
                path=f"tsm.dstack.s{index}",
                width=32,
                reader=(lambda m=machine, i=index: m.dstack[i]),
                writer=(lambda v, m=machine, i=index: m.dstack.__setitem__(i, v)),
            )
        )
    for index in range(config.return_stack_depth):
        cells.append(
            ScanCell(
                path=f"tsm.rstack.r{index}",
                width=addr_bits,
                reader=(
                    lambda m=machine, i=index, b=addr_bits:
                    m.rstack[i] & ((1 << b) - 1)
                ),
                writer=(lambda v, m=machine, i=index: m.rstack.__setitem__(i, v)),
            )
        )
    cells.append(
        ScanCell(path="tsm.cycle_counter", width=32,
                 reader=(lambda: machine.cycles & 0xFFFFFFFF))
    )
    return ScanChain("internal", cells)


class TsmBoard:
    """Evaluation board hosting one TSM-1 chip."""

    def __init__(self, config: Optional[TsmConfig] = None):
        self.machine = TsmMachine(config)
        self.chains: Dict[str, ScanChain] = {
            "internal": build_tsm_chain(self.machine)
        }
        self.program: Optional[TsmProgram] = None
        self.on_sync = None
        self.on_step = None
        self.total_scan_cycles = 0

    def init(self) -> None:
        self.machine.memory = [0] * self.machine.config.memory_size
        self.machine.reset(entry=0)
        self.program = None

    def load_program(self, program: TsmProgram) -> None:
        self.program = program
        self.machine.load_image(program.words)
        self.machine.reset(entry=program.entry)

    def write_memory(self, address: int, value: int) -> None:
        self.machine.memory[address] = value & 0xFFFFFFFF

    def read_memory(self, address: int) -> int:
        return self.machine.memory[address]

    def chain(self, name: str) -> ScanChain:
        chain = self.chains.get(name)
        if chain is None:
            raise TargetError(f"no scan chain {name!r} on TSM board")
        return chain

    def read_chain(self, name: str) -> ChainImage:
        """Shift out chain ``name`` as an image that reads and assigns
        like a bit list (:class:`~repro.thor.scanchain.ChainImage`)."""
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        return chain.read()

    def read_chain_values(self, name: str) -> List[int]:
        """Shift out chain ``name`` as per-cell values (one full-chain
        shift, charged like :meth:`read_chain`)."""
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        return chain.read_values()

    def write_chain(self, name: str, bits: Union[ChainImage, List[int]]) -> None:
        """Shift in an image from :meth:`read_chain` or a bit list."""
        chain = self.chain(name)
        self.total_scan_cycles += chain.shift_cycles
        chain.write(bits)

    def run(
        self,
        timeout_cycles: int,
        max_iterations: Optional[int] = None,
        stop_cycle: Optional[int] = None,
    ) -> DebugEvent:
        machine = self.machine
        if machine.halted:
            raise TargetError("TSM is halted; re-initialise the board first")
        # The hook is only reconfigured while the board is stopped.
        on_step = self.on_step
        while True:
            if stop_cycle is not None and machine.cycles >= stop_cycle:
                return DebugEvent(
                    kind=DebugEventKind.BREAKPOINT,
                    pc=machine.pc,
                    cycle=machine.cycles,
                    reason=f"cycle>={stop_cycle}",
                )
            if machine.cycles >= timeout_cycles:
                return DebugEvent(
                    kind=DebugEventKind.TIMEOUT,
                    pc=machine.pc,
                    cycle=machine.cycles,
                )
            event = machine.step()
            if on_step is not None and (
                event is None or event.kind == "sync"
            ):
                on_step(self)
            if event is None:
                continue
            if event.kind == "halt":
                return DebugEvent(
                    kind=DebugEventKind.HALT, pc=machine.pc,
                    cycle=machine.cycles,
                )
            if event.kind == "sync":
                if self.on_sync is not None:
                    self.on_sync(self, event.iteration)
                if max_iterations is not None and event.iteration >= max_iterations:
                    return DebugEvent(
                        kind=DebugEventKind.MAX_ITERATIONS,
                        pc=machine.pc,
                        cycle=machine.cycles,
                        iteration=event.iteration,
                    )
                continue
            if event.kind == "trap":
                return DebugEvent(
                    kind=DebugEventKind.TRAP,
                    pc=machine.pc,
                    cycle=machine.cycles,
                    trap=event.trap,
                )
