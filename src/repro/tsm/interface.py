"""TargetSystemInterface for the TSM-1 board — the second port.

Deliberately a *partial* port: the common blocks, the SCIFI blocks and
the pre-runtime SWIFI block are implemented; runtime-SWIFI
instrumentation and the simulation baseline's direct-access block are
left as Framework stubs. The framework must therefore report exactly
``{"scifi", "swifi-pre"}`` support for this class and reject campaigns
asking for the other techniques — the Section 2 adaptation contract.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

from repro.core.campaign import CampaignData
from repro.core.experiment import Injection, StateVector, Termination
from repro.core.faultmodels import InjectionAction, apply_op
from repro.core.framework import Framework, register_target
from repro.core.locations import (
    FaultLocation,
    LocationCell,
    LocationSpace,
    ObservationPlan,
)
from repro.core.trace import Trace, TraceStep
from repro.thor.testcard import DebugEventKind
from repro.tsm.board import TsmBoard
from repro.tsm.machine import TsmConfig
from repro.tsm.workloads import TsmWorkload, get_tsm_workload
from repro.util.bits import bit_get, bit_set
from repro.util.errors import CampaignError, TargetError

_MEM_PATH_RE = re.compile(r"^word\.0x([0-9a-fA-F]+)$")


@register_target("tsm-1")
class TsmInterface(Framework):
    """Port of GOOFI to the TSM-1 stack machine (SCIFI + pre-runtime
    SWIFI only)."""

    def __init__(self, config: Optional[TsmConfig] = None):
        super().__init__()
        self.board = TsmBoard(config)
        self._workload: Optional[TsmWorkload] = None
        self._space: Optional[LocationSpace] = None
        self._observation = ObservationPlan()
        self._tracing = False
        self._trace = Trace()
        self._prev_cycles = 0
        self._detail = False
        self._detail_states: List[StateVector] = []

    # ------------------------------------------------------------------
    # Campaign binding
    # ------------------------------------------------------------------

    def read_campaign_data(self, campaign: CampaignData) -> None:
        self._workload = get_tsm_workload(
            campaign.workload_name, campaign.workload_params
        )
        self._space = None
        super().read_campaign_data(campaign)
        cells = self.location_space().select_cells(
            campaign.observe_patterns, writable_only=False
        )
        if not cells:
            # The campaign's observe patterns were written for another
            # target; fall back to observing the whole internal chain.
            cells = self.location_space().select_cells(
                ["scan:internal/*"], writable_only=False
            )
        self._observation = ObservationPlan.build(cells, self.board.chains)
        if campaign.max_iterations is None:
            campaign.max_iterations = self._workload.default_max_iterations

    def available_workloads(self):
        from repro.tsm.workloads import available_tsm_workloads

        return available_tsm_workloads()

    # ------------------------------------------------------------------
    # Common blocks
    # ------------------------------------------------------------------

    def init_test_card(self) -> None:
        self.board.init()
        self._detail_states = []
        self._sync_step_hook()

    def load_workload(self) -> None:
        self.board.load_program(self._require_workload().program)

    def write_memory(self) -> None:
        for address, value in self._require_workload().input_writes.items():
            self.board.write_memory(address, value)

    def read_memory(self) -> Dict[str, int]:
        outputs: Dict[str, int] = {}
        for name, (base, count) in self._require_workload().outputs.items():
            if count == 1:
                outputs[name] = self.board.read_memory(base)
            else:
                for i in range(count):
                    outputs[f"{name}[{i}]"] = self.board.read_memory(base + i)
        return outputs

    def run_workload(self) -> None:
        pass  # nothing to arm: the TSM board has no environment port

    def wait_for_breakpoint(self, stop_cycle: int) -> Optional[Termination]:
        event = self.board.run(
            timeout_cycles=self._experiment_budget(),
            max_iterations=self._require_campaign().max_iterations,
            stop_cycle=stop_cycle,
        )
        if event.kind is DebugEventKind.BREAKPOINT:
            return None
        return self._terminate(event)

    def wait_for_termination(
        self, timeout_cycles: int, max_iterations: Optional[int]
    ) -> Termination:
        event = self.board.run(
            timeout_cycles=timeout_cycles, max_iterations=max_iterations
        )
        return self._terminate(event)

    @staticmethod
    def _terminate(event) -> Termination:
        if event.kind is DebugEventKind.HALT:
            return Termination(kind="halt", pc=event.pc, cycle=event.cycle)
        if event.kind is DebugEventKind.TIMEOUT:
            return Termination(kind="timeout", pc=event.pc, cycle=event.cycle)
        if event.kind is DebugEventKind.MAX_ITERATIONS:
            return Termination(
                kind="max_iterations",
                pc=event.pc,
                cycle=event.cycle,
                iterations=event.iteration,
            )
        if event.kind is DebugEventKind.TRAP:
            return Termination(
                kind="trap",
                pc=event.pc,
                cycle=event.cycle,
                trap_name=event.trap.trap.value,
                trap_detail=event.trap.detail,
            )
        raise TargetError(f"unexpected debug event {event.kind}")

    # ------------------------------------------------------------------
    # SCIFI blocks
    # ------------------------------------------------------------------

    def read_scan_chain(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, List[int]]:
        chain_names = self.board.chains if names is None else names
        return {name: self.board.read_chain(name) for name in chain_names}

    def write_scan_chain(self, chains: Dict[str, List[int]]) -> None:
        for name, bits in chains.items():
            self.board.write_chain(name, bits)

    def inject_fault(
        self, chains: Dict[str, List[int]], action: InjectionAction
    ) -> List[Injection]:
        injections = []
        for location in action.locations:
            if not location.space.startswith("scan:"):
                raise CampaignError(f"SCIFI cannot inject into {location.key()}")
            chain_name = location.space.split(":", 1)[1]
            chain = self.board.chain(chain_name)
            offset = chain.bit_offset(location.path, location.bit)
            before = chains[chain_name][offset]
            after = apply_op(before, action.op)
            chains[chain_name][offset] = after
            injections.append(
                Injection(
                    time=action.time,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Pre-runtime SWIFI block
    # ------------------------------------------------------------------

    def inject_fault_preruntime(self, action: InjectionAction) -> List[Injection]:
        injections = []
        for location in action.locations:
            match = _MEM_PATH_RE.match(location.path)
            if not match:
                raise CampaignError(f"bad memory location {location.key()}")
            address = int(match.group(1), 16)
            word = self.board.read_memory(address)
            before = bit_get(word, location.bit)
            after = apply_op(before, action.op)
            self.board.write_memory(address, bit_set(word, location.bit, after))
            injections.append(
                Injection(
                    time=0,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Observation / tracing
    # ------------------------------------------------------------------

    def location_space(self) -> LocationSpace:
        if self._space is not None:
            return self._space
        cells: List[LocationCell] = []
        for info in self.board.chain("internal").describe():
            cells.append(
                LocationCell(
                    space="scan:internal",
                    path=str(info["path"]),
                    width=int(info["width"]),
                    read_only=bool(info["read_only"]),
                )
            )
        workload = self._workload
        if workload is not None:
            for address in sorted(workload.program.words):
                kind = workload.program.kinds[address]
                cells.append(
                    LocationCell(
                        space=f"memory:{kind}",
                        path=f"word.0x{address:04x}",
                        width=32,
                    )
                )
        self._space = LocationSpace(cells)
        return self._space

    def capture_state_vector(self) -> StateVector:
        """Observed cells through the scan port (one full-chain shift per
        observed chain), then memory."""
        board = self.board
        return self._observation.capture(
            board.read_memory, read_chain_values=board.read_chain_values
        )

    def start_trace(self) -> None:
        self._tracing = True
        self._trace = Trace()
        self._prev_cycles = self.board.machine.cycles
        self._sync_step_hook()

    def stop_trace(self) -> Trace:
        self._tracing = False
        self._sync_step_hook()
        return self._trace

    def set_detail_logging(self, enabled: bool) -> None:
        self._detail = enabled
        if enabled:
            self._detail_states = []
        self._sync_step_hook()

    def drain_detail_states(self) -> List[StateVector]:
        states = self._detail_states
        self._detail_states = []
        return states

    def _sync_step_hook(self) -> None:
        """Install the step hook only while tracing or detail logging."""
        self.board.on_step = (
            self._on_step if self._tracing or self._detail else None
        )

    def _on_step(self, board: TsmBoard) -> None:
        if self._tracing:
            machine = board.machine
            self._trace.append(
                TraceStep(
                    index=len(self._trace),
                    pc=machine.last_pc,
                    cycle_before=self._prev_cycles,
                    cycle_after=machine.cycles,
                )
            )
            self._prev_cycles = machine.cycles
        if self._detail:
            self._detail_states.append(self.capture_state_vector())

    # ------------------------------------------------------------------
    # Target description
    # ------------------------------------------------------------------

    def describe_target(self) -> dict:
        config = self.board.machine.config
        return {
            "name": "tsm-1",
            "memory_size": config.memory_size,
            "data_stack_depth": config.data_stack_depth,
            "return_stack_depth": config.return_stack_depth,
            "chains": {
                name: chain.describe()
                for name, chain in self.board.chains.items()
            },
        }

    def _require_workload(self) -> TsmWorkload:
        if self._workload is None:
            raise CampaignError("no workload bound; call read_campaign_data")
        return self._workload
