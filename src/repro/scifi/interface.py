"""TargetSystemInterface for the (simulated) Thor RD test card.

This is the class the Framework template (Figure 3) exists to produce:
every abstract building block of the fault-injection algorithms, filled in
against the THOR-lite test card — scan chains for SCIFI, the download
port for pre-runtime SWIFI, trap-based instrumentation for runtime SWIFI
(delegated to :mod:`repro.swifi`), and direct simulator state access for
the simulation baseline.
"""

from __future__ import annotations

import pickle
import re
from typing import Dict, List, Optional, Sequence, Set

from repro.core.campaign import CampaignData
from repro.core.checkpoint import (
    CheckpointMismatch,
    CheckpointTick,
    RestoreImage,
    state_digest,
)
from repro.core.experiment import Injection, StateVector, Termination
from repro.core.faultmodels import InjectionAction, InjectionPlan, apply_op
from repro.core.framework import Framework, register_target
from repro.core.locations import (
    SWREG_PATH_RE,
    FaultLocation,
    LocationCell,
    LocationSpace,
    ObservationPlan,
)
from repro.core.trace import Trace, TraceStep
from repro.environment.simulator import build_environment
from repro.swifi.instrument import TrapInstrumenter, _invalidate_cached_word
from repro.swifi.preruntime import flip_image_bit
from repro.thor import isa
from repro.thor.cache import CacheRecord
from repro.thor.cpu import FLAG_ACCESS, CpuConfig
from repro.thor.isa import Opcode, try_decode
from repro.thor.effects import register_effects
from repro.thor.testcard import DebugEvent, DebugEventKind, TestCard
from repro.util.bits import bit_get, bit_set
from repro.util.errors import CampaignError, TargetError
from repro.workloads import WorkloadDefinition, get_workload

_MEM_PATH_RE = re.compile(r"^word\.0x([0-9a-fA-F]+)$")


def _termination_from_event(event: DebugEvent) -> Termination:
    if event.kind is DebugEventKind.HALT:
        return Termination(kind="halt", pc=event.pc, cycle=event.cycle,
                           iterations=event.iteration)
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
        trap = event.trap
        return Termination(
            kind="trap",
            pc=event.pc,
            cycle=event.cycle,
            trap_name=trap.trap.value,
            trap_detail=trap.detail,
            trap_code=trap.code,
        )
    raise TargetError(f"unexpected debug event {event.kind}")


@register_target("thor-rd")
class ThorRDInterface(Framework):
    """Port of GOOFI to the Thor RD test card (simulated)."""

    def __init__(self, config: Optional[CpuConfig] = None):
        super().__init__()
        self.card = TestCard(config)
        self._workload: Optional[WorkloadDefinition] = None
        self._environment = None
        # Tracing state.
        self._tracing = False
        self._trace = Trace()
        self._prev_cycles = 0
        self._trace_caches: Dict[str, tuple] = {}
        # Detail-mode state.
        self._detail = False
        self._detail_states: List[StateVector] = []
        # Runtime-SWIFI instrumentation (one instrumenter per experiment).
        self._instrumenter: Optional[TrapInstrumenter] = None
        # Cached per-campaign structures.
        self._space: Optional[LocationSpace] = None
        self._observation = ObservationPlan()
        # Golden-run checkpoint capture state (reference run only).
        self._checkpointing = False
        self._checkpoint_pages: Set[int] = set()

    # ------------------------------------------------------------------
    # Campaign binding
    # ------------------------------------------------------------------

    def read_campaign_data(self, campaign: CampaignData) -> None:
        # Build the workload first: the location space includes the
        # workload's memory image, and validation needs it.
        self._workload = get_workload(
            campaign.workload_name, campaign.workload_params
        )
        self._space = None
        if campaign.environment is None and self._workload.uses_environment:
            raise CampaignError(
                f"workload {campaign.workload_name!r} needs an environment "
                "simulator; set campaign.environment"
            )
        super().read_campaign_data(campaign)
        if campaign.trigger.kind == "task-switch":
            campaign.trigger.address = self._workload.label("task_switch")
        self._observation = ObservationPlan.build(
            self.location_space().select_cells(
                campaign.observe_patterns, writable_only=False
            ),
            self.card.chains,
        )
        if campaign.max_iterations is None:
            campaign.max_iterations = self._workload.default_max_iterations
        if self._workload.is_loop and campaign.max_iterations is None:
            raise CampaignError(
                "loop workloads need max_iterations as a termination condition"
            )

    def available_workloads(self):
        from repro.workloads import available_workloads

        return available_workloads()

    def workload_program(self):
        """The bound campaign's assembled THOR-lite program image —
        unlocks the static pre-injection oracle and the static lint
        checks (also inherited by the thor-rd-sim port)."""
        return self._workload.program if self._workload is not None else None

    # ------------------------------------------------------------------
    # Common building blocks
    # ------------------------------------------------------------------

    def init_test_card(self) -> None:
        self.card.init()
        self._detail_states = []
        self._instrumenter = None
        self._sync_step_hook()
        self._environment = None
        # card.init() wipes memory (and with it the dirty-page set), but
        # the tracking flag lives here: make sure reference-run tracking
        # never leaks into experiment execution.
        self.card.cpu.memory.stop_dirty_tracking()
        self._checkpointing = False

    def load_workload(self) -> None:
        workload = self._require_workload()
        self.card.load_program(workload.program)
        campaign = self.campaign
        if campaign is not None and campaign.protect_code:
            code = workload.program.code_addresses()
            if code:
                self.card.cpu.memory.protect(min(code), max(code))

    def write_memory(self) -> None:
        workload = self._require_workload()
        for address, value in workload.input_writes.items():
            self.card.write_memory(address, value)

    def read_memory(self) -> Dict[str, int]:
        workload = self._require_workload()
        outputs: Dict[str, int] = {}
        for name, (base, count) in workload.outputs.items():
            values = self.card.read_memory_block(base, count)
            if count == 1:
                outputs[name] = values[0]
            else:
                for i, value in enumerate(values):
                    outputs[f"{name}[{i}]"] = value
        if self._environment is not None:
            for key, value in self._environment.summary().items():
                outputs[f"env.{key}"] = int(round(value * 256))
        return outputs

    def run_workload(self) -> None:
        campaign = self._require_campaign()
        if campaign.environment is not None:
            self._environment = build_environment(
                campaign.environment.name, campaign.environment.params
            )
            self._environment.initialize(self.card)
            self.card.on_sync = self._environment.exchange
        else:
            self.card.on_sync = None

    def wait_for_breakpoint(self, stop_cycle: int) -> Optional[Termination]:
        event = self.card.run(
            timeout_cycles=self._experiment_budget(),
            max_iterations=self._require_campaign().max_iterations,
            stop_cycle=stop_cycle,
        )
        if event.kind is DebugEventKind.BREAKPOINT:
            return None
        return _termination_from_event(event)

    def wait_for_termination(
        self, timeout_cycles: int, max_iterations: Optional[int]
    ) -> Termination:
        event = self.card.run(
            timeout_cycles=timeout_cycles, max_iterations=max_iterations
        )
        return _termination_from_event(event)

    # ------------------------------------------------------------------
    # SCIFI blocks
    # ------------------------------------------------------------------

    def read_scan_chain(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, List[int]]:
        chain_names = self.card.chains if names is None else names
        return {name: self.card.read_chain(name) for name in chain_names}

    def write_scan_chain(self, chains: Dict[str, List[int]]) -> None:
        for name, bits in chains.items():
            self.card.write_chain(name, bits)

    def inject_fault(
        self, chains: Dict[str, List[int]], action: InjectionAction
    ) -> List[Injection]:
        injections = []
        for location in action.locations:
            if not location.space.startswith("scan:"):
                raise CampaignError(
                    f"SCIFI cannot inject into {location.key()}"
                )
            chain_name = location.space.split(":", 1)[1]
            chain = self.card.chain(chain_name)
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
            address = self._memory_location_address(location)
            before, after = flip_image_bit(
                self.card, address, location.bit, action.op
            )
            injections.append(
                Injection(
                    time=0,  # pre-runtime: injected before execution starts
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        return injections

    # ------------------------------------------------------------------
    # Runtime SWIFI blocks (delegated to repro.swifi.instrument)
    # ------------------------------------------------------------------

    def instrument_workload(self, plan: InjectionPlan) -> None:
        reference = self._reference
        if reference is None or reference.trace is None:
            raise CampaignError(
                "runtime SWIFI needs the reference trace to place traps"
            )
        self._instrumenter = TrapInstrumenter(self.card)
        self._instrumenter.instrument(plan, reference.trace)
        self._sync_step_hook()

    def collect_runtime_injections(self) -> List[Injection]:
        if self._instrumenter is None:
            return []
        return list(self._instrumenter.injections)

    # ------------------------------------------------------------------
    # Pin-level block (EXTEST bus forcing through the boundary chain)
    # ------------------------------------------------------------------

    def force_pins(self, action: InjectionAction) -> List[Injection]:
        """Arm forcing of the selected data-bus lines via the boundary
        chain. The force duration follows the campaign's fault model:
        transient = 1 read transaction, intermittent = burst_length
        transactions, permanent = the pads' maximum (255)."""
        campaign = self._require_campaign()
        spec = campaign.fault_model
        reads = {
            "transient": 1,
            "intermittent": spec.burst_length,
            "permanent": 255,
        }[spec.kind]
        bus = self.card.cpu.bus
        mask = bus.force_mask
        value = bus.force_value
        injections = []
        for location in action.locations:
            if (
                location.space != "scan:boundary"
                or location.path != "pins.data_bus"
            ):
                raise CampaignError(
                    "pin-level forcing acts on the data-bus pads "
                    f"(scan:boundary/pins.data_bus), not {location.key()}"
                )
            before = bit_get(self.card.cpu.pipeline.mdr, location.bit)
            after = apply_op(before, action.op)
            mask |= 1 << location.bit
            value = bit_set(value, location.bit, after)
            injections.append(
                Injection(
                    time=action.time,
                    location=location,
                    op=action.op,
                    bit_before=before,
                    bit_after=after,
                )
            )
        # Shift the armed force state in through the boundary chain (the
        # injection pays real scan-access cost, like any SCIFI write).
        chain = self.card.chain("boundary")
        bits = self.card.read_chain("boundary")
        for path, field_value, width in (
            ("pins.force_mask", mask, 32),
            ("pins.force_value", value, 32),
            ("pins.force_reads", min(reads, 255), 8),
        ):
            offset = chain.bit_offset(path, 0)
            for i in range(width):
                bits[offset + i] = (field_value >> i) & 1
        self.card.write_chain("boundary", bits)
        return injections

    # ------------------------------------------------------------------
    # Simulation-based (direct access) block
    # ------------------------------------------------------------------

    def inject_fault_direct(self, action: InjectionAction) -> List[Injection]:
        injections = []
        for location in action.locations:
            if location.space.startswith("scan:"):
                chain_name = location.space.split(":", 1)[1]
                cell = self.card.chain(chain_name).cell(location.path)
                if cell.read_only:
                    raise CampaignError(
                        f"cannot inject into read-only cell {location.key()}"
                    )
                word = cell.reader()
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                cell.writer(bit_set(word, location.bit, after))
            elif location.space.startswith("memory:"):
                address = self._memory_location_address(location)
                word = self.card.read_memory(address)
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                self.card.write_memory(address, bit_set(word, location.bit, after))
                _invalidate_cached_word(self.card.cpu.dcache, address)
                _invalidate_cached_word(self.card.cpu.icache, address)
            elif location.space == "swreg":
                match = SWREG_PATH_RE.match(location.path)
                if not match:
                    raise CampaignError(f"bad swreg location {location.key()}")
                index = int(match.group(1))
                word = self.card.cpu.regs.read(index)
                before = bit_get(word, location.bit)
                after = apply_op(before, action.op)
                self.card.cpu.regs.write(index, bit_set(word, location.bit, after))
            else:
                raise CampaignError(f"unknown location space {location.space!r}")
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

    def peek_bits(self, locations: Sequence[FaultLocation]) -> List[int]:
        """Each location's bit in the stopped card, read through the
        compiled cell readers, memory and the register file: no scan
        shift, no scan-cost accounting, nothing written."""
        card = self.card
        bits = []
        for location in locations:
            space = location.space
            if space.startswith("scan:"):
                chain = card.chain(space.split(":", 1)[1])
                word = chain.cell(location.path).reader()
            elif space.startswith("memory:"):
                word = card.read_memory(self._memory_location_address(location))
            elif space == "swreg":
                match = SWREG_PATH_RE.match(location.path)
                if not match:
                    raise CampaignError(f"bad swreg location {location.key()}")
                word = card.cpu.regs.read(int(match.group(1)))
            else:
                raise CampaignError(f"unknown location space {space!r}")
            bits.append(bit_get(word, location.bit))
        return bits

    # ------------------------------------------------------------------
    # Observation / tracing / detail mode
    # ------------------------------------------------------------------

    def location_space(self) -> LocationSpace:
        if self._space is not None:
            return self._space
        cells: List[LocationCell] = []
        for chain_name, chain in self.card.chains.items():
            for info in chain.describe():
                cells.append(
                    LocationCell(
                        space=f"scan:{chain_name}",
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
            # Input data lives outside the assembled image.
            for address in sorted(workload.input_writes):
                if address not in workload.program.words:
                    cells.append(
                        LocationCell(
                            space="memory:data",
                            path=f"word.0x{address:04x}",
                            width=32,
                        )
                    )
        for index in range(isa.NUM_REGISTERS):
            cells.append(
                LocationCell(
                    space="swreg", path=f"cpu.regfile.r{index}", width=32
                )
            )
        self._space = LocationSpace(cells)
        return self._space

    def capture_state_vector(self) -> StateVector:
        """Observed cells through the scan port: one full-chain shift per
        observed chain (every cell read and width-checked, the shift
        charged to ``total_scan_cycles``), then memory and registers."""
        card = self.card
        return self._observation.capture(
            card.read_memory, card.cpu.regs.read, card.read_chain_values
        )

    def start_trace(self) -> None:
        cpu = self.card.cpu
        self._tracing = True
        self._trace = Trace()
        self._prev_cycles = cpu.cycles
        # Counts at the start of each cache that starts empty: only
        # those can be replayed from the trace.
        self._trace_caches = {
            cache.name: (cache.stats.hits, cache.stats.misses)
            for cache in (cpu.icache, cpu.dcache)
            if not any(line.valid for line in cache.lines)
        }
        self._sync_step_hook()

    def stop_trace(self) -> Trace:
        self._tracing = False
        self._sync_step_hook()
        self._trace.caches = self._cache_records()
        return self._trace

    def _cache_records(self) -> Dict[str, CacheRecord]:
        """What each cache that started the trace empty did over it. A
        run that ended on HALT fetched the HALT after its last traced
        step."""
        cpu = self.card.cpu
        halted = cpu.halted and cpu.trap_event is None
        records = {}
        for cache in (cpu.icache, cpu.dcache):
            start = self._trace_caches.get(cache.name)
            if start is None:
                continue
            fetches = cache is cpu.icache
            records[cache.name] = CacheRecord(
                n_lines=cache.n_lines,
                words_per_line=cache.words_per_line,
                hits=cache.stats.hits - start[0],
                misses=cache.stats.misses - start[1],
                fetches=fetches,
                uncached_base=None if fetches else cpu.config.uncached_base,
                tail=(cpu.last_exec.pc,) if fetches and halted else (),
            )
        return records

    def set_detail_logging(self, enabled: bool) -> None:
        self._detail = enabled
        if enabled:
            self._detail_states = []
        self._sync_step_hook()

    def drain_detail_states(self) -> List[StateVector]:
        states = self._detail_states
        self._detail_states = []
        return states

    def _dispatch_trap(self, card: TestCard, trap_event) -> bool:
        if self._instrumenter is None:
            return False
        return self._instrumenter.handle_trap(card, trap_event)

    def _sync_step_hook(self) -> None:
        """Install the step hook only while something observes steps
        (tracing, detail logging, a runtime-SWIFI instrumenter): with no
        hook the card's run loop pays no per-instruction call. The trap
        hook is installed only while an instrumenter is active. Either
        hook is a bound method of this target held by the card, so
        clearing them when idle also leaves no target-card reference
        cycle: a discarded target is freed at once, not by the cyclic
        collector."""
        card = self.card
        if self._tracing or self._detail or self._instrumenter is not None:
            card.on_step = self._dispatch_step
        else:
            card.on_step = None
        card.trap_hook = (
            None if self._instrumenter is None else self._dispatch_trap
        )

    def _dispatch_step(self, card: TestCard) -> None:
        if self._instrumenter is not None:
            self._instrumenter.on_step(card)
        if self._tracing:
            self._trace_step(card)
        if self._detail:
            self._detail_states.append(self.capture_state_vector())

    def _trace_step(self, card: TestCard) -> None:
        cpu = card.cpu
        last = cpu.last_exec
        word = cpu.pipeline.ir
        instr = try_decode(word)
        if instr is not None:
            effects = register_effects(instr)
            reg_reads = tuple(sorted(effects.reg_reads))
            reg_writes = tuple(sorted(effects.reg_writes))
            reads_flags, writes_flags = FLAG_ACCESS[instr.opcode]
            is_branch = instr.opcode in isa.BRANCHES
            is_call = instr.opcode is Opcode.CALL
        else:
            reg_reads = reg_writes = ()
            reads_flags = writes_flags = 0
            is_branch = is_call = False
        step = TraceStep(
            index=len(self._trace),
            pc=last.pc,
            cycle_before=self._prev_cycles,
            cycle_after=cpu.cycles,
            is_branch=is_branch,
            branch_taken=last.branch_taken,
            is_call=is_call,
            mem_address=last.mem_address,
            mem_value=last.mem_value,
            mem_is_write=last.mem_is_write,
            reg_reads=reg_reads,
            reg_writes=reg_writes,
            reads_flags=reads_flags,
            writes_flags=writes_flags,
        )
        self._trace.append(step)
        self._prev_cycles = cpu.cycles

    # ------------------------------------------------------------------
    # Target description (TargetSystemData)
    # ------------------------------------------------------------------

    def describe_target(self) -> dict:
        config = self.card.cpu.config
        return {
            "name": self.card.name,
            "memory_size": config.memory_size,
            "icache_lines": config.icache_lines,
            "dcache_lines": config.dcache_lines,
            "words_per_line": config.words_per_line,
            "parity_checking": config.parity_checking,
            "chains": {
                name: chain.describe()
                for name, chain in self.card.chains.items()
            },
        }

    # ------------------------------------------------------------------
    # Golden-run checkpointing (warm-start blocks)
    # ------------------------------------------------------------------

    def capture_checkpoint(self) -> CheckpointTick:
        """Snapshot the stopped card: full CPU state, the environment
        simulator (pickled), and the memory pages dirtied since the
        previous capture (the first capture seeds from every non-zero
        page, i.e. the whole downloaded image)."""
        memory = self.card.cpu.memory
        if not self._checkpointing:
            # First capture of this reference run: everything written
            # since reset is "dirty", then switch to incremental deltas.
            memory.start_dirty_tracking()
            self._checkpointing = True
            self._checkpoint_pages = set()
            dirty = memory.nonzero_pages()
        else:
            dirty = memory.drain_dirty_pages()
        self._checkpoint_pages |= dirty
        env_blob = pickle.dumps(
            self._environment, protocol=pickle.HIGHEST_PROTOCOL
        )
        # One snapshot serves the payload and the fingerprint.
        snapshot = self.card.cpu.snapshot()
        payload = {
            "cpu": snapshot,
            "protected": list(memory.protected_range()),
            "environment": env_blob,
        }
        pages = {page: memory.read_page(page) for page in sorted(dirty)}
        fingerprint = self._checkpoint_fingerprint(
            sorted(self._checkpoint_pages), env_blob, snapshot
        )
        return CheckpointTick(
            cycle=self.card.cpu.cycles,
            payload=payload,
            dirty_pages=pages,
            fingerprint=fingerprint,
        )

    def restore_checkpoint(self, image: RestoreImage) -> None:
        """Load a reference-run checkpoint into the card and verify the
        restored state's fingerprint against the capture-time one."""
        memory = self.card.cpu.memory
        memory.stop_dirty_tracking()
        self._checkpointing = False
        # Memory: reset to all-zero (pages absent from the cumulative
        # image were all-zero at capture time by the reset contract),
        # then replay the page images.
        memory.reset()
        for page, words in image.pages.items():
            memory.load_page(page, words)
        # CPU core, caches, pipeline, bus-force state.
        self.card.cpu.restore(image.payload["cpu"])
        # Write protection (memory.reset() cleared it).
        lo, hi = image.payload["protected"]
        if lo <= hi:
            memory.protect(lo, hi)
        else:
            memory.unprotect()
        # Card-level state the cold prefix would have set.
        workload = self._require_workload()
        self.card.program = workload.program
        self.card.set_breakpoints([])
        # Environment simulator at its checkpoint-instant state.
        environment = pickle.loads(image.payload["environment"])
        self._environment = environment
        self.card.on_sync = (
            environment.exchange if environment is not None else None
        )
        # Host-side per-experiment state (same as init_test_card).
        self._detail_states = []
        self._instrumenter = None
        self._tracing = False
        self._detail = False
        self._sync_step_hook()
        # Verify: recompute the fingerprint over the *live* restored
        # state and compare with the capture-time digest.
        restored_blob = pickle.dumps(
            self._environment, protocol=pickle.HIGHEST_PROTOCOL
        )
        fingerprint = self._checkpoint_fingerprint(
            sorted(image.pages), restored_blob
        )
        if fingerprint != image.fingerprint:
            raise CheckpointMismatch(
                f"restore fingerprint mismatch at cycle {image.cycle}: "
                f"{fingerprint[:12]} != {image.fingerprint[:12]}"
            )

    def _checkpoint_fingerprint(
        self,
        pages: Sequence[int],
        env_blob: bytes,
        snapshot: Optional[dict] = None,
    ) -> str:
        """Canonical digest of the card's full live state: run counters,
        the complete CPU snapshot, every scan-visible cell, the listed
        memory pages, the protection range and the environment
        simulator. Computed identically at capture and after restore —
        any divergence trips the cold fallback. ``snapshot`` is the CPU
        snapshot when the caller already took one.

        The full ``cpu.snapshot()`` (not just the scan-visible chains)
        makes the digest *total* with respect to future execution —
        pipeline force flags and the last-executed-instruction record
        are not scan-mapped but do shape what runs next, so a restore
        that drops either fails the check (checkpoint format v2).

        Every part is a handful of contiguous buffers hashed with
        ``tobytes``: the snapshot's typed arrays (checkpoint format v4),
        each chain's :meth:`~repro.thor.scanchain.ScanChain.capture_words`
        (cell order is structural, so values alone identify the state)
        and memory pages as ``array`` slices from
        :meth:`~repro.thor.memory.Memory.read_page`."""
        cpu = self.card.cpu
        memory = cpu.memory
        parts = {
            "cycles": cpu.cycles,
            "instret": cpu.instret,
            "iterations": cpu.iterations,
            "halted": cpu.halted,
            "cpu": cpu.snapshot() if snapshot is None else snapshot,
            "chains": {
                name: chain.capture_words()
                for name, chain in self.card.chains.items()
            },
            "pages": {page: memory.read_page(page) for page in pages},
            "protected": list(memory.protected_range()),
            "environment": env_blob,
        }
        return state_digest(parts)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _require_workload(self) -> WorkloadDefinition:
        if self._workload is None:
            raise CampaignError("no workload loaded; call read_campaign_data")
        return self._workload

    @staticmethod
    def _memory_location_address(location: FaultLocation) -> int:
        match = _MEM_PATH_RE.match(location.path)
        if not match:
            raise CampaignError(f"bad memory location {location.key()}")
        return int(match.group(1), 16)
