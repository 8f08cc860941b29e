"""Trace-free pre-injection liveness oracle.

:class:`StaticPreInjectionAnalysis` answers the same question as the
dynamic :class:`repro.core.preinjection.PreInjectionAnalysis` — "is this
fault location live at this time?" — but from the program image alone,
with no golden reference run. The price is precision, never soundness:

* **registers / PSR** — live iff live at *some* reachable program point
  (path-insensitive: without a trace the analysis cannot know which
  instruction executes at a given cycle, so it unions liveness over all
  reachable points). Registers the workload provably never reads are
  pruned at every instant. The PSR's overflow-trap enable bit is live
  iff a reachable add or subtract can read it.
* **PC / IR** — always live while the run is in progress (consumed by
  the very next fetch), dead after the reference duration when one is
  known.
* **memory, code image** — a code word is live iff its address is
  reachable in the CFG: the fetch of a reachable instruction *reads* the
  word, an unreachable word can never propagate. Analysis assumption
  (documented in DESIGN.md): loads do not read the code image
  (no self-inspecting code).
* **memory, data image** — live whenever any reachable instruction reads
  memory; load/store addresses are register-relative and therefore
  statically unbounded, so per-word pruning would be unsound.
* **anything else** (cache arrays, MAR/MDR, ...) — conservatively live,
  mirroring the dynamic analysis.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from repro.core.locations import FaultLocation
from repro.thor.assembler import Program
from repro.thor.cpu import FLAG_ACCESS
from repro.thor.registers import Psr
from repro.staticanalysis.cfg import ControlFlowGraph, build_cfg
from repro.staticanalysis.defuse import ReachingDefinitions
from repro.staticanalysis.liveness import LivenessResult, compute_liveness
from repro.util.sampling import iter_pairs, pair_count

_REG_RE = re.compile(r"cpu\.regfile\.r(\d+)$")
_MEM_RE = re.compile(r"word\.0x([0-9a-fA-F]+)$")


class StaticPreInjectionAnalysis:
    """Liveness oracle computed from the program image (no trace).

    Exposes the same interface as the dynamic analysis —
    ``is_live(location, time)`` and ``live_fraction(locations, times)``
    — so the two are interchangeable building blocks for the campaign
    algorithms (and composable: the ``hybrid`` mode intersects them).
    """

    def __init__(self, program: Program, duration: Optional[int] = None):
        self.program = program
        #: Reference duration in cycles when known (set after a reference
        #: run); None means "unbounded" and every in-run query is
        #: answered as if the run were still in progress.
        self.duration = duration
        self.cfg: ControlFlowGraph = build_cfg(program)
        self.liveness: LivenessResult = compute_liveness(self.cfg)
        self._live_registers = self.liveness.ever_live_registers
        self._flags_live = self.liveness.flags_ever_live
        # The PSR's overflow-trap enable bit is read by the writing add
        # and subtract forms, not by the branches the flag liveness sees.
        self._oe_live = any(
            FLAG_ACCESS[self.cfg.defuse[address].instr.opcode][0]
            & 1 << Psr.BIT_OE
            for address in self.cfg.reachable
        )
        self._memory_may_be_read = any(
            self.cfg.defuse[address].is_memory_read
            for address in self.cfg.reachable
        )

    # -- construction helpers ------------------------------------------------

    def reaching_definitions(self) -> ReachingDefinitions:
        """Reaching-definitions solution over the same CFG (lazy; used by
        the lint pass for dead-store diagnostics)."""
        return ReachingDefinitions(
            self.cfg.defuse, self.cfg.successors, self.cfg.entry
        )

    # -- summaries ------------------------------------------------------------

    @property
    def live_registers(self) -> frozenset:
        return self._live_registers

    @property
    def dead_registers(self) -> frozenset:
        return self.liveness.dead_registers()

    def unreachable_code_addresses(self) -> List[int]:
        return self.cfg.unreachable_addresses()

    # -- the oracle interface --------------------------------------------------

    def _in_run(self, time: int) -> bool:
        return self.duration is None or time <= self.duration

    def is_live(self, location: FaultLocation, time: int) -> bool:
        """Sound over-approximation of the dynamic ``is_live``."""
        path = location.path
        reg_match = _REG_RE.search(path)
        if reg_match is not None:
            return (
                int(reg_match.group(1)) in self._live_registers
                and self._in_run(time)
            )
        if path.endswith("cpu.psr"):
            if location.bit == Psr.BIT_OE:
                return self._oe_live and self._in_run(time)
            return self._flags_live and self._in_run(time)
        if path.endswith("cpu.pc") or path.endswith("pipeline.ir"):
            return self._in_run(time)
        mem_match = _MEM_RE.search(path)
        if mem_match is not None:
            address = int(mem_match.group(1), 16)
            if location.space.endswith("code") and address in self.cfg.defuse:
                # Fetching a reachable instruction reads the word.
                return address in self.cfg.reachable and self._in_run(time)
            return self._memory_may_be_read and self._in_run(time)
        # Unknown state element: be conservative, never prune.
        return True

    def live_fraction(
        self,
        locations: Sequence[FaultLocation],
        times: Sequence[int],
        max_samples: Optional[int] = None,
    ) -> float:
        """Fraction of (location, time) samples that are statically live."""
        total = pair_count(locations, times, max_samples)
        if total == 0:
            return 0.0
        live = sum(
            1
            for location, t in iter_pairs(locations, times, max_samples)
            if self.is_live(location, t)
        )
        return live / total
