"""Divergence-window execution and outcome memoization.

A fault-injection experiment differs from the golden (reference) run
only inside its *divergence window*: the fault-free prefix is identical
by construction (PR 5's warm starts exploit that end), and once the
fault's architectural effect has been overwritten the faulty run's
state re-converges with the golden run's — from that instant the two
executions are the same execution, so simulating the faulty tail just
recomputes the golden outcome. ZOFI (Porpodas, 2019) builds its whole
speedup on this observation; this module provides the
target-independent half of it for GOOFI's building-block algorithms:

* :func:`run_window` — after the last injection action, run the faulty
  target forward in hops of the reference run's checkpoint cadence and
  compare its canonical :func:`~repro.core.checkpoint.state_digest`
  against the golden :class:`~repro.core.checkpoint.CheckpointStore`
  tick at the same cycle. A digest match proves re-convergence (the
  fingerprint is total over everything future execution can read:
  registers, pipeline latches incl. force flags, caches, bus forcing,
  run counters, cumulative dirty memory pages, environment simulator),
  so the experiment's outcome *is* the golden outcome and the tail is
  skipped. Any mismatch — including a faulty run that dirtied pages the
  golden run never touched — just means "keep simulating": false
  negatives cost speed, never correctness.

* the outcome memo — a per-campaign-binding table (a plain dict on the
  port, see :class:`MemoEntry`) keyed by ``(restore checkpoint digest,
  canonical injection delta)``. Two experiments that restore the same
  checkpoint (or both start cold) and inject the identical action list
  are the *same* deterministic computation, so the second one's outcome
  can be replayed from the first's record byte-for-byte. Each process
  keeps its own table: a parallel worker memoizes the experiments of
  its own shards and never exchanges entries with its siblings.

Both features are observable through the ``divergence.*`` metrics
family (``early_exits``, ``cycles_skipped``, ``memo_hits``, plus
``probes`` and ``memo_inserts`` for rate diagnostics) and are disabled
by ``goofi run --no-early-exit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.checkpoint import state_digest
from repro.core.experiment import (
    ExperimentResult,
    Injection,
    ReferenceRun,
    Termination,
)
from repro.observability import get_observability
from repro.util.errors import NotImplementedByPort

__all__ = [
    "COLD_RESTORE_KEY",
    "MemoEntry",
    "WindowOutcome",
    "memo_key",
    "plan_delta",
    "run_window",
]

#: Restore-digest sentinel for experiments that start from reset rather
#: than from a checkpoint (cold path, SWIFI techniques, empty stores).
COLD_RESTORE_KEY = "cold"


# ---------------------------------------------------------------------------
# Memo keys
# ---------------------------------------------------------------------------

def plan_delta(plan: Any) -> List[Dict[str, Any]]:
    """Canonical form of an injection plan's action list — the
    "injection delta" half of the memo key. Locations are reduced to
    their stable string keys and actions kept in execution order, so two
    plans that inject the same bits at the same instants canonicalise
    identically no matter how they were sampled."""
    return [
        {
            "time": action.time,
            "op": action.op,
            "locations": sorted(
                location.key() for location in action.locations
            ),
        }
        for action in plan.sorted_actions()
    ]


def memo_key(restore_digest: Optional[str], plan: Any) -> str:
    """Memo-table key for one experiment: the fingerprint of the
    checkpoint its warm restore would load (:data:`COLD_RESTORE_KEY`
    when it starts from reset) combined with the canonical injection
    delta. Everything else an outcome depends on — workload, fault
    model, budgets — is fixed per campaign binding, and the memo table
    never outlives one binding."""
    return state_digest(
        {
            "restore": restore_digest or COLD_RESTORE_KEY,
            "actions": plan_delta(plan),
        }
    )


# ---------------------------------------------------------------------------
# Memo entries
# ---------------------------------------------------------------------------

@dataclass
class MemoEntry:
    """Everything needed to replay a completed experiment's outcome onto
    a fresh :class:`ExperimentResult` byte-for-byte (modulo the
    legitimately nondeterministic wall-clock field)."""

    termination: Dict[str, Any]
    outputs: Dict[str, int]
    state_vector: Dict[str, int]
    injections: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "MemoEntry":
        assert result.termination is not None
        return cls(
            termination=result.termination.to_dict(),
            outputs=dict(result.outputs),
            state_vector=dict(result.state_vector),
            injections=[inj.to_dict() for inj in result.injections],
        )

    def apply(self, result: ExperimentResult) -> None:
        """Fill ``result`` with this entry's outcome (fresh copies — a
        memo entry is replayed onto every experiment that hits it)."""
        result.termination = Termination.from_dict(dict(self.termination))
        result.outputs = dict(self.outputs)
        result.state_vector = dict(self.state_vector)
        result.injections = [
            Injection.from_dict(row) for row in self.injections
        ]


# ---------------------------------------------------------------------------
# Divergence-window execution
# ---------------------------------------------------------------------------

@dataclass
class WindowOutcome:
    """What probing the divergence window established.

    Exactly one of three shapes:

    * ``converged=True`` — the faulty run's digest matched the golden
      tick at ``cycle``; the caller synthesizes the golden outcome and
      skips the tail (``cycles_skipped`` were not simulated);
    * ``termination`` set — the experiment really ended (trap, halt,
      timeout, iteration limit) while running toward a probe cycle; the
      caller finishes normally with it;
    * neither — probes exhausted (or the port cannot digest); the
      caller falls through to the plain run-to-termination tail.
    """

    converged: bool = False
    cycle: int = 0
    cycles_skipped: int = 0
    termination: Optional[Termination] = None


def run_window(
    port: Any,
    plan: Any,
    reference: ReferenceRun,
    store: Any,
) -> WindowOutcome:
    """Probe the post-injection window against the golden checkpoints.

    ``port`` is the bound algorithm instance: probing composes its
    ``wait_for_breakpoint`` building block (the same stop-at-cycle hop
    the injection loop uses — stop checks precede timeout checks, so
    splitting the tail into hops perturbs nothing) with the optional
    ``capture_state_digest`` block. Golden ticks strictly after the last
    injection action and strictly before the reference termination are
    candidates; the first digest match wins.

    Probing every candidate tick would spend one full-state digest per
    checkpoint interval on experiments that never re-converge — measured
    on the Thor workloads that overhead cancels the exit wins. Observed
    convergence is strongly bimodal: either the fault is overwritten
    almost immediately (first tick after injection) or the state snaps
    back only in the workload epilogue. The probe schedule matches that
    shape — geometric backoff over the candidate ticks (offsets 0, 1, 3,
    7, 15, ...) plus always the final candidate — bounding the digest
    cost at O(log ticks) per experiment while catching both modes. A
    skipped tick can only delay an exit to the next probed one; it never
    changes an outcome."""
    actions = plan.sorted_actions()
    if not actions:
        return WindowOutcome()
    start = store.first_after(actions[-1].time)
    if start is None:
        return WindowOutcome()
    candidates = []
    for index in range(start, len(store)):
        if store.tick(index).cycle >= reference.duration_cycles:
            break
        candidates.append(index)
    if not candidates:
        return WindowOutcome()
    probed = []
    offset = 0
    while offset < len(candidates):
        probed.append(candidates[offset])
        offset = offset * 2 + 1
    if probed[-1] != candidates[-1]:
        probed.append(candidates[-1])
    obs = get_observability()
    metrics = obs.metrics
    for index in probed:
        tick = store.tick(index)
        termination = port.wait_for_breakpoint(tick.cycle)
        if termination is not None:
            return WindowOutcome(termination=termination)
        if metrics.enabled:
            metrics.counter("divergence.probes").inc()
        if tick.core_fingerprint:
            # Cheap rejection: the core digest covers a subset of the
            # full fingerprint, so a mismatch proves divergence without
            # hashing memory pages and scan chains.
            try:
                if port.capture_core_digest() != tick.core_fingerprint:
                    continue
            except NotImplementedByPort:
                pass
        try:
            digest = port.capture_state_digest()
        except NotImplementedByPort:
            return WindowOutcome()
        if metrics.enabled:
            metrics.counter("divergence.full_digests").inc()
        if digest == tick.fingerprint:
            skipped = reference.duration_cycles - tick.cycle
            if metrics.enabled:
                metrics.counter("divergence.early_exits").inc()
                metrics.counter("divergence.cycles_skipped").inc(skipped)
            obs.tracer.event(
                "divergence-exit",
                cycle=tick.cycle,
                cycles_skipped=skipped,
            )
            return WindowOutcome(
                converged=True, cycle=tick.cycle, cycles_skipped=skipped
            )
    return WindowOutcome()
