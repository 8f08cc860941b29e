"""Pre-injection analysis (paper Section 4).

"The purpose of this analysis is to determine when registers and other
fault injection locations hold live data. Injecting a fault into a
location that does not hold live data serves no purpose, since the fault
will be overwritten."

The analysis consumes the reference execution trace and answers, for a
(location, time) pair, whether the location is *live* at that time — i.e.
whether the next architectural access to it is a **read** (the fault can
propagate) rather than a **write** (the fault is overwritten) or nothing
at all (the fault stays latent and cannot affect the workload's outputs).

Covered location classes:

* register file cells  (``scan:internal/cpu.regfile.rN``, ``swreg:cpu.regfile.rN``)
* the PSR, bit by bit  (each step's flag read and write masks)
* the PC / IR latches  (always live — consumed by the very next fetch)
* memory words         (``memory:code/...``, ``memory:data/...``): data
  accesses, and each step's fetch as a read of the word at its PC
* cache arrays         (``dcache.*``, ``icache.*``): a next-event replay
  of each cache the trace records (:class:`repro.thor.cache.CacheRecord`),
  used only when it reproduces the cache's recorded hit and miss counts

For state the trace cannot see (MAR/MDR, pins, a cache whose replay
fails), the analysis is conservative and reports *live*, so enabling
pre-injection never silently prunes locations it does not understand.

:meth:`PreInjectionAnalysis.fate` asks the same question for the
liveness exit of the campaign schedule (DESIGN.md S2f): a fault whose
every bit is overwritten before any read, or never touched again, ends
with the golden outcome, so its row is derived at plan time;
:meth:`PreInjectionAnalysis.accessed_between` tells whether a bit
injected twice still holds its first injected value at the second.

Three pruning modes are available to campaigns
(``CampaignData.preinjection_mode``):

* ``dynamic`` — this module's trace-based oracle (the default);
* ``static``  — the trace-free CFG/liveness oracle of
  :mod:`repro.staticanalysis` (a sound over-approximation: it never
  prunes a pair the dynamic oracle reports live);
* ``hybrid``  — the intersection of both
  (:class:`HybridPreInjectionAnalysis`): a pair must be live statically
  *and* dynamically, which equals the dynamic result by the soundness
  contract but cross-checks the two analyses against each other.
"""

from __future__ import annotations

import bisect
import re
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.locations import FaultLocation, LocationSpace
from repro.core.trace import Trace, TraceStep
from repro.util.sampling import iter_pairs, pair_count

_REG_RE = re.compile(r"cpu\.regfile\.r(\d+)$")
_MEM_RE = re.compile(r"word\.0x([0-9a-fA-F]+)$")

READ = "r"
WRITE = "w"
#: A cell the trace does not model (its next access is unknown).
_UNKNOWN = "?"

#: Verdicts of :meth:`PreInjectionAnalysis.fate`.
LIVE = "live"
OVERWRITTEN = "overwritten"
LATENT = "latent"


class _AccessList:
    """Time-ordered accesses to one location, as runs of one kind: each
    run keeps only its last time, which answers :meth:`next_access` for
    every instant up to it."""

    __slots__ = ("times", "kinds", "_last")

    def __init__(self) -> None:
        self.times: List[int] = []
        self.kinds: List[str] = []
        self._last = ""

    def add(self, time: int, kind: str) -> None:
        if kind == self._last:
            self.times[-1] = time
        else:
            self.times.append(time)
            self.kinds.append(kind)
            self._last = kind

    def next_access(self, time: int) -> Optional[str]:
        """Kind of the first access at or after ``time`` (None: none)."""
        pos = bisect.bisect_left(self.times, time)
        if pos >= len(self.times):
            return None
        return self.kinds[pos]


class PreInjectionAnalysis:
    """Liveness oracle built from a reference trace."""

    def __init__(
        self,
        registers: Dict[int, _AccessList],
        flags: Dict[int, _AccessList],
        memory: Dict[int, _AccessList],
        duration: int,
        trace: Trace,
    ):
        self._registers = registers
        #: PSR bit -> its accesses.
        self._flags = flags
        self._memory = memory
        self._duration = duration
        self._trace = trace
        #: Cache name -> its replay (None: the replay failed), built on
        #: the first question about one of its cells.
        self._caches: Dict[str, Any] = {}
        #: Each step's start cycle, built on the first question
        #: :meth:`accessed_between` cannot answer from the access runs.
        self._step_cycles: Optional[List[int]] = None

    @staticmethod
    def from_trace(trace: Trace, space: LocationSpace) -> "PreInjectionAnalysis":
        registers: Dict[int, _AccessList] = defaultdict(_AccessList)
        flags: Dict[int, _AccessList] = defaultdict(_AccessList)
        memory: Dict[int, _AccessList] = defaultdict(_AccessList)
        for step in trace:
            t = step.cycle_before
            # Within one instruction, reads happen before writes; record
            # reads at t and writes at t so that a fault injected exactly
            # at the boundary *before* the instruction sees the read first
            # (a read at t makes the location live at time <= t).
            memory[step.pc].add(t, READ)  # the fetch
            reads = step.reg_reads
            for index in reads:
                registers[index].add(t, READ)
            for index in step.reg_writes:
                if index not in reads:  # the read already claims this instant
                    registers[index].add(t, WRITE)
            flag_reads = step.reads_flags
            touched = flag_reads | step.writes_flags
            while touched:
                low = touched & -touched
                touched ^= low
                flags[low.bit_length() - 1].add(
                    t, READ if flag_reads & low else WRITE
                )
            if step.mem_address is not None:
                kind = WRITE if step.mem_is_write else READ
                memory[step.mem_address].add(t, kind)
        return PreInjectionAnalysis(
            dict(registers), dict(flags), dict(memory),
            duration=trace.duration_cycles, trace=trace,
        )

    # -- queries ---------------------------------------------------------------

    def _next_access(self, location: FaultLocation, time: int) -> Optional[str]:
        """READ, WRITE or None (never accessed again) for a cell the trace
        models; :data:`_UNKNOWN` for any other."""
        path = location.path
        reg_match = _REG_RE.search(path)
        if reg_match is not None:
            accesses = self._registers.get(int(reg_match.group(1)))
        elif path.endswith("cpu.psr"):
            accesses = self._flags.get(location.bit)
        else:
            mem_match = _MEM_RE.search(path)
            if mem_match is None:
                return self._cache_access(path, time)
            accesses = self._memory.get(int(mem_match.group(1), 16))
        return None if accesses is None else accesses.next_access(time)

    def _replay(self, name: str):
        if name not in self._caches:
            record = self._trace.caches.get(name)
            self._caches[name] = (
                None if record is None else record.replay(self._trace)
            )
        return self._caches[name]

    def _cache_access(self, path: str, time: int) -> Optional[str]:
        name, _, cell = path.partition(".")
        replay = self._replay(name)
        if replay is None:
            return _UNKNOWN
        reads = replay.next_access(cell, time)
        return None if reads is None else READ if reads else WRITE

    def accessed_between(
        self, location: FaultLocation, start: int, stop: int
    ) -> bool:
        """Does the reference run access ``location`` at an instant in
        ``[start, stop)``? Asked about a bit whose :meth:`fate` at
        ``start`` is dead, so any such access is a write: a bit injected
        at ``start`` still holds its injected value at ``stop`` exactly
        when this is False. Exact for every cell whose fate can be dead
        (registers, PSR bits, cells of a replayed cache)."""
        path = location.path
        reg_match = _REG_RE.search(path)
        if reg_match is not None:
            index = int(reg_match.group(1))
            accesses = self._registers.get(index)

            def touches(step: TraceStep) -> bool:
                return index in step.reg_reads or index in step.reg_writes

        elif path.endswith("cpu.psr"):
            mask = 1 << location.bit
            accesses = self._flags.get(location.bit)

            def touches(step: TraceStep) -> bool:
                return bool((step.reads_flags | step.writes_flags) & mask)

        else:
            name, _, cell = path.partition(".")
            replay = self._replay(name)
            when = None if replay is None else replay.next_access_time(cell, start)
            return when is not None and when < stop
        times = [] if accesses is None else accesses.times
        pos = bisect.bisect_left(times, start)
        if pos == len(times) or times[pos] < stop:
            return pos < len(times)
        # The run holding the next access ends past ``stop``, and its
        # last time cannot tell whether one of its accesses falls inside
        # the interval: walk the interval's trace steps.
        if self._step_cycles is None:
            self._step_cycles = [step.cycle_before for step in self._trace]
        first = bisect.bisect_left(self._step_cycles, start)
        last = bisect.bisect_left(self._step_cycles, stop)
        return any(map(touches, self._trace.steps[first:last]))

    def is_live(self, location: FaultLocation, time: int) -> bool:
        path = location.path
        if path.endswith("cpu.pc") or path.endswith("pipeline.ir"):
            return time <= self._duration
        # Unknown state elements stay live: never prune them.
        return self._next_access(location, time) in (READ, _UNKNOWN)

    def fate(self, location: FaultLocation, time: int) -> str:
        """What the reference run does next to a bit injected into
        ``location`` at ``time``: :data:`LIVE` when it may read it,
        :data:`OVERWRITTEN` when it writes it before any read,
        :data:`LATENT` when it never touches it again. Memory words
        answer live: a direct injection clears the word's cached lines,
        so a later access misses where the reference run hit. So does
        every cell the trace does not model (PC, IR, MAR/MDR, pins)."""
        if location.space.startswith("memory:"):
            return LIVE
        access = self._next_access(location, time)
        if access is None:
            return LATENT
        return OVERWRITTEN if access == WRITE else LIVE

    def live_fraction(
        self,
        locations: Sequence[FaultLocation],
        times: Sequence[int],
        max_samples: Optional[int] = None,
    ) -> float:
        """Diagnostic: fraction of (location, time) samples that are live.

        The E5 benchmark reports this as the efficiency headroom of
        pre-injection analysis. The exhaustive loop is
        O(|locations| * |times|); pass ``max_samples`` to cap the work at
        a deterministic uniform sample for large fault spaces."""
        total = pair_count(locations, times, max_samples)
        if total == 0:
            return 0.0
        live = sum(
            1
            for loc, t in iter_pairs(locations, times, max_samples)
            if self.is_live(loc, t)
        )
        return live / total


class HybridPreInjectionAnalysis:
    """Intersection of the static and dynamic liveness oracles.

    A (location, time) pair is live only when **both** analyses agree.
    Because the static analysis over-approximates the dynamic one, the
    intersection normally equals the dynamic result — but evaluating the
    cheap static oracle first short-circuits most dead samples, and any
    pair the static analysis prunes while the dynamic one keeps would be
    a soundness violation, which :meth:`disagreements` surfaces for the
    property tests.
    """

    def __init__(self, static, dynamic: PreInjectionAnalysis):
        self.static = static
        self.dynamic = dynamic

    def is_live(self, location: FaultLocation, time: int) -> bool:
        return self.static.is_live(location, time) and self.dynamic.is_live(
            location, time
        )

    def live_fraction(
        self,
        locations: Sequence[FaultLocation],
        times: Sequence[int],
        max_samples: Optional[int] = None,
    ) -> float:
        total = pair_count(locations, times, max_samples)
        if total == 0:
            return 0.0
        live = sum(
            1
            for loc, t in iter_pairs(locations, times, max_samples)
            if self.is_live(loc, t)
        )
        return live / total

    def disagreements(
        self,
        locations: Sequence[FaultLocation],
        times: Sequence[int],
        max_samples: Optional[int] = None,
    ) -> List[Tuple[FaultLocation, int]]:
        """(location, time) pairs live dynamically but pruned statically.

        Always empty when the static analysis honours its soundness
        contract."""
        return [
            (loc, t)
            for loc, t in iter_pairs(locations, times, max_samples)
            if self.dynamic.is_live(loc, t)
            and not self.static.is_live(loc, t)
        ]


#: Pruning modes a campaign may select (CampaignData.preinjection_mode).
#: "equivalence" plans exactly like "static" but additionally partitions
#: the planned fault list into provably outcome-identical classes so the
#: campaign loop executes one representative per class.
PREINJECTION_MODES = ("dynamic", "static", "hybrid", "equivalence")


def build_liveness_oracle(
    mode: str,
    trace: Optional[Trace],
    space: LocationSpace,
    program=None,
):
    """Construct the liveness oracle for one campaign.

    ``program`` is the target's assembled workload image (the
    ``workload_program`` building block); it is required for the
    ``static`` and ``hybrid`` modes. ``trace`` is the reference trace,
    required for ``dynamic`` and ``hybrid``.
    """
    from repro.staticanalysis.oracle import StaticPreInjectionAnalysis
    from repro.util.errors import CampaignError

    if mode not in PREINJECTION_MODES:
        raise CampaignError(f"unknown pre-injection mode {mode!r}")
    if mode == "dynamic":
        if trace is None:
            raise CampaignError("dynamic pre-injection needs a reference trace")
        return PreInjectionAnalysis.from_trace(trace, space)
    if program is None:
        raise CampaignError(
            f"pre-injection mode {mode!r} needs the workload program image; "
            "the target does not implement the workload_program building "
            "block"
        )
    duration = trace.duration_cycles if trace is not None else None
    if mode == "equivalence":
        from repro.staticanalysis.equivalence import (
            EquivalencePreInjectionAnalysis,
        )

        if trace is None:
            raise CampaignError(
                "equivalence pre-injection needs a reference trace"
            )
        return EquivalencePreInjectionAnalysis(
            program, trace, duration=duration
        )
    static = StaticPreInjectionAnalysis(program, duration=duration)
    if mode == "static":
        return static
    if trace is None:
        raise CampaignError("hybrid pre-injection needs a reference trace")
    return HybridPreInjectionAnalysis(
        static, PreInjectionAnalysis.from_trace(trace, space)
    )
