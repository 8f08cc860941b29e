"""Execution traces of the reference run.

Fault triggers (inject at the n-th branch, at an access to a data value,
…) and the pre-injection liveness analysis both work on a trace of the
*fault-free* reference execution. The trace format is target-agnostic:
each step records control flow, memory traffic and register dataflow in
abstract terms, so the core algorithms never import target-specific code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceStep:
    """One executed instruction of the reference run.

    ``reads_flags`` and ``writes_flags`` are masks over the bits of the
    status-register cell (``cpu.psr`` on Thor): nonzero when the step
    reads or writes any flag, bit ``b`` set when it reads or writes bit
    ``b``. Every step also fetches the word at ``pc``."""

    index: int
    pc: int
    cycle_before: int
    cycle_after: int
    is_branch: bool = False
    branch_taken: bool = False
    is_call: bool = False
    mem_address: Optional[int] = None
    mem_value: Optional[int] = None
    mem_is_write: bool = False
    reg_reads: Tuple[int, ...] = ()
    reg_writes: Tuple[int, ...] = ()
    reads_flags: int = 0
    writes_flags: int = 0


@dataclass
class Trace:
    """The full reference trace plus convenience queries.

    ``caches`` maps a cache's cell-path prefix (``dcache``) to the
    port's record of what that cache did over the traced run: an object
    whose ``replay(trace)`` returns the per-cell next-access view the
    pre-injection oracle asks (:class:`repro.thor.cache.CacheRecord`),
    or None when the trace does not account for every access. A cache
    without a record has no cell the oracle can judge."""

    steps: List[TraceStep] = field(default_factory=list)
    caches: Dict[str, Any] = field(default_factory=dict)

    def append(self, step: TraceStep) -> None:
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def duration_cycles(self) -> int:
        return self.steps[-1].cycle_after if self.steps else 0

    def branch_steps(self) -> List[TraceStep]:
        return [s for s in self.steps if s.is_branch]

    def call_steps(self) -> List[TraceStep]:
        return [s for s in self.steps if s.is_call]

    def accesses_to(self, address: int) -> List[TraceStep]:
        return [s for s in self.steps if s.mem_address == address]

    def executions_of(self, pc: int) -> List[TraceStep]:
        return [s for s in self.steps if s.pc == pc]

    def step_at_cycle(self, cycle: int) -> Optional[TraceStep]:
        """First step whose execution completes at or after ``cycle``."""
        for step in self.steps:
            if step.cycle_after >= cycle:
                return step
        return None

    def step_after_cycle(self, cycle: int) -> Optional[TraceStep]:
        """The instruction that executes once the target stops at
        ``cycle``: the first step whose execution *begins* at or after
        that instant. This is where a runtime injector must plant its
        trap to fire at the same point a stop-at-cycle breakpoint would."""
        for step in self.steps:
            if step.cycle_before >= cycle:
                return step
        return None
