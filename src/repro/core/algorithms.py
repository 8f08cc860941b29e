"""The FaultInjectionAlgorithms class (paper Figure 2).

Fault-injection algorithms are *compositions of abstract building blocks*:
``init_test_card``, ``load_workload``, ``run_workload``,
``wait_for_breakpoint``, ``read_scan_chain``, ``inject_fault``,
``write_scan_chain``, ``wait_for_termination`` and so on. The concrete
algorithms — ``fault_injector_scifi``, ``fault_injector_swifi_pre``,
``fault_injector_swifi_runtime``, ``fault_injector_simfi`` — call only
these blocks, never target-specific code. Porting the tool to a new
target means implementing the blocks in a subclass of
:class:`~repro.core.framework.Framework` (paper Figure 3); adding a new
technique means writing one more composition here and, when needed, adding
previously-undefined blocks (paper Section 2.1).
"""

from __future__ import annotations

import abc
import random
import time as _time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.campaign import CampaignData
from repro.core.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    MAX_CHECKPOINTS,
    CheckpointMismatch,
    CheckpointStore,
    CheckpointTick,
    RestoreImage,
)
from repro.core.experiment import (
    ExperimentResult,
    Injection,
    ReferenceRun,
    StateVector,
    Termination,
)
from repro.core.faultmodels import (
    FaultModel,
    InjectionPlan,
    apply_op,
    build_fault_model,
)
from repro.core.locations import FaultLocation, LocationSpace
from repro.core.preinjection import LATENT, LIVE, build_liveness_oracle
from repro.core.trace import Trace
from repro.observability import get_observability
from repro.util.bits import bit_set
from repro.util.errors import CampaignError, NotImplementedByPort
from repro.util.rng import CampaignRandom

if TYPE_CHECKING:
    from repro.staticanalysis.equivalence import EquivalencePartition

# Reference-run cycle budget when the campaign does not set an explicit
# timeout (the reference run has no prior duration to derive one from).
_REFERENCE_BUDGET = 50_000_000

#: The stop-and-inject techniques: an experiment is golden execution up
#: to a stop-at-cycle breakpoint, then the injection. Only they may
#: warm-start from a reference-run checkpoint (the prefix is pure
#: execution from reset, so a restore is state-identical to
#: re-simulating it) and only they may be collapsed by the equivalence
#: engine (the soundness argument of
#: :mod:`repro.staticanalysis.equivalence` needs exactly this shape). The
#: SWIFI variants mutate the image or instrument the workload before
#: execution starts, so they always start cold and two different
#: injection times are different programs from cycle 0.
STOP_AND_INJECT_TECHNIQUES = ("scifi", "simfi", "pinlevel")


class StopCampaign(Exception):
    """Raised by a control hook to end the campaign early (the progress
    window's End button)."""


class _NullControl:
    """Default no-op control hooks (no GUI attached)."""

    def checkpoint(self, index: int) -> None:
        pass

    def report(self, index: int, result: ExperimentResult) -> None:
        pass


class _ListSink:
    """Default in-memory result sink."""

    def __init__(self) -> None:
        self.reference: Optional[ReferenceRun] = None
        self.results: List[ExperimentResult] = []

    def log_reference(self, campaign: CampaignData, ref: ReferenceRun) -> None:
        self.reference = ref

    def log_experiment(
        self, campaign: CampaignData, result: ExperimentResult
    ) -> None:
        self.results.append(result)


def _flush_sink(sink) -> None:
    """Land the rows a batching sink holds (``GoofiDatabase.flush``);
    sinks without ``flush`` write each row as it is logged."""
    flush = getattr(sink, "flush", None)
    if flush is not None:
        flush()


class ExperimentSchedule:
    """Which experiments of one campaign run execute, and which row each
    index logs: the plan-time policy (plan → derive → verify) that the
    serial loop and the parallel engine both drive.

    Without a plan-time policy every index is its own execution unit and
    logs its own result. Two policies derive rows instead of executing:

    * equivalence collapsing (``preinjection_mode="equivalence"``, a
      stop-and-inject technique, summary logging): the schedule plans
      every index, partitions the plans, and hands out one execution
      unit per class. A member's row is derived from its class
      representative's result;
    * dead faults (wherever the reference-trace oracle is built: early
      exit on, summary logging, a golden tick strictly inside the
      reference run): the schedule plans every index and asks the oracle
      about every injected bit of each plan that would execute. A plan
      whose every bit is overwritten before any read, or never touched
      again, never executes: its row is the golden run's (DESIGN.md
      S2f), with the ``bit_before`` of each injection read in one
      golden pass (:meth:`FaultInjectionAlgorithms._golden_injections`).

    Derived indices of either kind are sampled for verification
    (``verify_equivalence``): a sampled index also executes, like any
    other run, and its derived row is compared against the real one. A
    derived row is built only when :meth:`row` is asked for it,
    and a representative's result is held only while derived members of
    its class are pending.

    A runner executes the indices of :meth:`units` (or, serially, each
    index for which :meth:`executes` holds), hands results to
    :meth:`accept` — or a placeholder to :meth:`fail` when no result can
    be had — and logs :meth:`row` in :attr:`order`."""

    def __init__(
        self,
        port: "FaultInjectionAlgorithms",
        reference: ReferenceRun,
        order: Iterable[int],
    ) -> None:
        self.port = port
        #: Indices to run, in the order their rows are logged.
        self.order: List[int] = list(order)
        #: index -> plan for every index when a plan-time policy applies
        #: (empty otherwise: each execution then plans itself).
        self.plans: Dict[int, InjectionPlan] = {}
        self._partition: Optional["EquivalencePartition"] = None
        #: derived member -> its representative.
        self._rep_of: Dict[int, int] = {}
        #: representative -> derived members whose rows are not out yet.
        self._pending: Dict[int, int] = {}
        self._rep_results: Dict[int, ExperimentResult] = {}
        #: index -> the injections of a plan whose every bit is dead; its
        #: row is derived from the golden run.
        self._golden: Dict[int, List[Injection]] = {}
        #: derived indices executed for real and compared against the
        #: derivation.
        self._verify: Set[int] = set()
        #: executed (or failed) results not handed out as rows yet.
        self._results: Dict[int, ExperimentResult] = {}
        campaign = port._require_campaign()
        if campaign.technique not in STOP_AND_INJECT_TECHNIQUES:
            return
        # Detail mode is excluded from collapsing: per-instruction state
        # logs differ *inside* an unobserved def-use region, so only
        # terminal outcomes — not detail logs — are class-invariant.
        if port._equivalence is not None and campaign.logging_mode != "detail":
            self._plan_all(reference)
            self._collapse()
        if port._trace_oracle is not None:
            self._plan_all(reference)
            self._golden = port._golden_injections(
                {
                    index: plan
                    for index, plan in self.plans.items()
                    if index not in self._rep_of
                }
            )
        fraction = port.verify_equivalence
        if fraction > 0.0:
            # Index-keyed stream, disjoint from the planning substreams.
            self._verify = {
                index
                for index in [*self._rep_of, *self._golden]
                if fraction >= 1.0
                or random.Random(f"{campaign.seed}:verify:{index}").random()
                < fraction
            }

    def _plan_all(self, reference: ReferenceRun) -> None:
        if not self.plans:
            self.plans = {
                index: self.port.plan_experiment(index, reference)
                for index in self.order
            }

    def _collapse(self) -> None:
        """Partition the plans into equivalence classes."""
        assert self.port._equivalence is not None
        self._partition = partition = self.port._equivalence.partition(self.plans)
        stats = partition.stats()
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.counter("equivalence.classes").inc(stats.n_classes)
            metrics.counter("equivalence.executed").inc(stats.n_executed)
            metrics.counter("equivalence.collapsed").inc(stats.n_derived)
        self._rep_of = partition.derived_map()
        for rep in self._rep_of.values():
            self._pending[rep] = self._pending.get(rep, 0) + 1

    def units(self) -> List[List[int]]:
        """Execution units in dispatch order: lists of indices that must
        land in the same shard — one class's representative and its
        verify-sampled members, or a single index. Derived indices are
        left out unless sampled for verification."""
        if self._partition is None:
            return [[index] for index in self.order if self.executes(index)]
        units = []
        for cls in self._partition.classes:
            unit = [index for index in cls.members if self.executes(index)]
            if unit:
                units.append(unit)
        return units

    def executes(self, index: int) -> bool:
        """Does ``index`` run for real (anything but a plain derived
        row)?"""
        if index in self._rep_of or index in self._golden:
            return index in self._verify
        return True

    def accept(self, index: int, result: ExperimentResult) -> None:
        """Record the executed result of ``index``."""
        if self._pending.get(index):
            self._rep_results[index] = result
        self._results[index] = result

    def fail(self, index: int, placeholder: ExperimentResult) -> List[int]:
        """No result can be had for ``index``: ``placeholder`` becomes
        its row. A failed verification is no longer compared. A failed
        representative's members can no longer be derived, so they run
        for real: the returned members must now be executed (its verify
        members already are)."""
        self._results[index] = placeholder
        if self._golden.pop(index, None) is not None:
            self._verify.discard(index)
        rep = self._rep_of.pop(index, None)
        if rep is not None:
            self._verify.discard(index)
            self._release(rep)
            return []
        if not self._pending.pop(index, 0):
            return []
        assert self._partition is not None
        members = [
            member
            for member in self._partition.class_of(index).members[1:]
            if self._rep_of.get(member) == index
        ]
        for member in members:
            del self._rep_of[member]
        return [member for member in members if member not in self._verify]

    def row(self, index: int) -> Optional[ExperimentResult]:
        """The row ``index`` logs, or None while it is not ready (its
        own result, or its representative's, has not arrived). Derived
        rows are built here, verified ones compared here; call once per
        index, when the row is about to be logged."""
        rep = self._rep_of.get(index)
        if rep is None and index not in self._golden:
            return self._results.pop(index, None)
        if rep is not None and rep not in self._rep_results:
            return None
        actual = None
        if index in self._verify:
            actual = self._results.pop(index, None)
            if actual is None:
                return None
        if rep is None:
            derived = self._golden_row(index)
        else:
            derived = self._derive(index, self._rep_results[rep])
        if actual is not None:
            self.check_derived_outcome(index, actual, derived)
        if rep is not None:
            self._release(rep)
        return derived

    def _golden_row(self, index: int) -> ExperimentResult:
        """The row of a plan whose every injected bit is dead: the
        golden outcome (:meth:`FaultInjectionAlgorithms._liveness_exit`)
        with the plan-time injections."""
        started = _time.perf_counter()
        port = self.port
        result = port._new_result(index)
        result.injections = self._golden.pop(index)
        port._liveness_exit(result)
        result.wall_seconds = _time.perf_counter() - started
        get_observability().metrics.counter("experiments_total").inc()
        if self._pending.get(index):
            self._rep_results[index] = result
        return result

    def _release(self, rep: int) -> None:
        """One derived member of ``rep``'s class is settled; drop the
        representative's result once none is pending."""
        self._pending[rep] -= 1
        if not self._pending[rep]:
            del self._pending[rep]
            self._rep_results.pop(rep, None)

    def _derive(
        self, index: int, rep_result: ExperimentResult
    ) -> ExperimentResult:
        """Statically-derived outcome of a non-representative member.

        Everything observable at termination is copied from the executed
        representative — that is the equivalence theorem. The injection
        record keeps the *member's* own injection time (the flipped
        value is class-invariant: no write to the location happens
        between the two injection instants).
        """
        result = self.port._new_result(index)
        result.derived_from = rep_result.name
        times = [action.time for action in self.plans[index].sorted_actions()]
        for i, injection in enumerate(rep_result.injections):
            result.injections.append(
                Injection(
                    time=times[i] if i < len(times) else injection.time,
                    location=injection.location,
                    op=injection.op,
                    bit_before=injection.bit_before,
                    bit_after=injection.bit_after,
                )
            )
        assert rep_result.termination is not None
        result.termination = Termination.from_dict(
            rep_result.termination.to_dict()
        )
        result.outputs = dict(rep_result.outputs)
        result.state_vector = dict(rep_result.state_vector)
        result.wall_seconds = 0.0
        return result

    @staticmethod
    def check_derived_outcome(
        index: int,
        actual: ExperimentResult,
        derived: ExperimentResult,
    ) -> None:
        """Compare a real execution against its derivation — from a
        class representative, or from the golden run — and hard-fail
        the campaign on any divergence (the ``--verify-equivalence``
        contract)."""
        mismatches = []
        if [i.to_dict() for i in actual.injections] != [
            i.to_dict() for i in derived.injections
        ]:
            mismatches.append("injections")
        actual_term = actual.termination.to_dict() if actual.termination else None
        derived_term = (
            derived.termination.to_dict() if derived.termination else None
        )
        if actual_term != derived_term:
            mismatches.append("termination")
        if actual.outputs != derived.outputs:
            mismatches.append("outputs")
        if actual.state_vector != derived.state_vector:
            mismatches.append("state_vector")
        if mismatches:
            proof = (
                "the reference trace's proof that its faults are dead"
                if derived.derived_from is None
                else "the static equivalence certificate of its class"
            )
            raise CampaignError(
                f"verification failed for experiment {index} (derived "
                f"from {derived.derived_from or 'the golden run'}): "
                f"{', '.join(mismatches)} diverged — {proof} is unsound"
            )
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.counter(
                "divergence.liveness_verified"
                if derived.derived_from is None
                else "equivalence.verified"
            ).inc()


class FaultInjectionAlgorithms(abc.ABC):
    """Abstract algorithm layer: building blocks + their compositions."""

    # Map technique name -> bound method name, used by the framework layer
    # and the campaign controller to dispatch a campaign.
    TECHNIQUE_METHODS = {
        "scifi": "fault_injector_scifi",
        "swifi-pre": "fault_injector_swifi_pre",
        "swifi-runtime": "fault_injector_swifi_runtime",
        "simfi": "fault_injector_simfi",
        "pinlevel": "fault_injector_pinlevel",
    }

    # Which location spaces each technique can reach. SCIFI reaches what
    # the scan chains expose; pre-runtime SWIFI only the downloaded
    # program/data image; runtime SWIFI the software-visible state;
    # simulation-based FI everything.
    TECHNIQUE_SPACES = {
        "scifi": ("scan:",),
        "swifi-pre": ("memory:",),
        "swifi-runtime": ("memory:", "swreg"),
        "simfi": ("scan:", "memory:", "swreg"),
        "pinlevel": ("scan:boundary",),
    }

    def __init__(self) -> None:
        self.campaign: Optional[CampaignData] = None
        self._locations: List[FaultLocation] = []
        self._fault_model: Optional[FaultModel] = None
        self._rng: Optional[CampaignRandom] = None
        #: Liveness oracle (dynamic, static, or hybrid) when the campaign
        #: enables pre-injection analysis; any object with an
        #: ``is_live(location, time)`` method.
        self._liveness = None
        #: :class:`repro.staticanalysis.equivalence.
        #: EquivalencePreInjectionAnalysis` when the campaign selects
        #: ``preinjection_mode="equivalence"`` — the campaign loop uses
        #: it to partition the planned fault list.
        self._equivalence = None
        #: The reference-trace oracle (:class:`~repro.core.preinjection
        #: .PreInjectionAnalysis`) the schedule asks which plans are dead;
        #: built in set-up wherever :meth:`_liveness_exit_applies`, else
        #: None.
        self._trace_oracle = None
        #: Fraction of statically-derived experiment outcomes that are
        #: re-executed for real and compared against the derivation
        #: (``goofi run --verify-equivalence P``). Any divergence is a
        #: hard failure. Not part of CampaignData: verification does not
        #: change what the campaign computes, only how much of it is
        #: double-checked, so it must not perturb config hashes.
        self.verify_equivalence: float = 0.0
        self._reference: Optional[ReferenceRun] = None
        #: Checkpoints captured along the reference run (warm starts);
        #: None when the campaign, technique or port rules them out.
        self._checkpoints: Optional[CheckpointStore] = None
        #: The liveness exit: derive the row of a plan whose every
        #: injected bit the reference trace proves dead from the golden
        #: run at plan time (:class:`ExperimentSchedule`) instead of
        #: executing it. Read once, when set-up decides whether to build
        #: the trace oracle. Not part of CampaignData for the same reason
        #: as :attr:`verify_equivalence`: it changes how much is
        #: simulated, never what the campaign computes (byte-identity is
        #: property-tested), so it must not perturb config hashes.
        #: Disabled by ``goofi run --no-early-exit``.
        self.early_exit: bool = True
        #: Optional :class:`repro.core.goldencache.GoldenRunCache` —
        #: when set, :meth:`prepare_run` reuses a cached golden run
        #: (trace + fingerprint + checkpoint store) keyed by the
        #: campaign's config hash instead of re-executing it.
        self.golden_cache = None

    # ------------------------------------------------------------------
    # Abstract building blocks (Figure 2). A port implements the subset
    # needed by the techniques it supports; the Framework template provides
    # "Write your code here!" stubs for all of them.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def init_test_card(self) -> None:
        """Power-cycle / reinitialise the target system."""

    @abc.abstractmethod
    def load_workload(self) -> None:
        """Download the campaign's workload image to the target."""

    @abc.abstractmethod
    def write_memory(self) -> None:
        """Download the workload's initial input data."""

    @abc.abstractmethod
    def read_memory(self) -> Dict[str, int]:
        """Read back the workload's output values."""

    @abc.abstractmethod
    def run_workload(self) -> None:
        """Start (arm) execution of the downloaded workload."""

    @abc.abstractmethod
    def wait_for_breakpoint(self, stop_cycle: int) -> Optional[Termination]:
        """Run until the injection point. Returns None when the breakpoint
        was reached, or a Termination if the experiment ended first."""

    @abc.abstractmethod
    def read_scan_chain(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, List[int]]:
        """Shift out scan chains (chain name -> bit list). ``names``
        restricts the shift to the listed chains — the default SCIFI
        fast path only round-trips the chains an action touches; None
        (or ``campaign.full_scan_shift``) shifts every chain."""

    @abc.abstractmethod
    def inject_fault(self, chains: Dict[str, List[int]], action) -> List[Injection]:
        """Manipulate the chain image according to one injection action."""

    @abc.abstractmethod
    def write_scan_chain(self, chains: Dict[str, List[int]]) -> None:
        """Shift the (possibly fault-injected) chains back in."""

    @abc.abstractmethod
    def wait_for_termination(
        self, timeout_cycles: int, max_iterations: Optional[int]
    ) -> Termination:
        """Run until a termination condition: workload end, detected
        error, time-out or iteration limit — whichever comes first."""

    # Blocks added for the pre-runtime SWIFI technique (Section 2.1: the
    # previously-undefined abstract methods a new technique needs are
    # added to the Framework class).

    @abc.abstractmethod
    def inject_fault_preruntime(self, action) -> List[Injection]:
        """Flip bits of the downloaded program/data image before start."""

    # Blocks added for the runtime SWIFI extension.

    @abc.abstractmethod
    def instrument_workload(self, plan: InjectionPlan) -> None:
        """Instrument the workload with injection code (trap planting)."""

    @abc.abstractmethod
    def collect_runtime_injections(self) -> List[Injection]:
        """Injections the instrumentation actually performed at runtime."""

    # Block added for the simulation-based baseline.

    @abc.abstractmethod
    def inject_fault_direct(self, action) -> List[Injection]:
        """Inject via direct simulator state access (full observability)."""

    # Block added for the pin-level technique (Section 2.1 names pin-level
    # fault injection as a third family the building blocks can compose).

    @abc.abstractmethod
    def force_pins(self, action) -> List[Injection]:
        """Arm boundary-scan pin forcing for the action's bus lines."""

    # Support blocks used by every algorithm.

    @abc.abstractmethod
    def location_space(self) -> LocationSpace:
        """All injectable/observable state of the configured target."""

    @abc.abstractmethod
    def capture_state_vector(self) -> StateVector:
        """Observe the campaign's observe-pattern cells (plus outputs are
        read separately via read_memory)."""

    @abc.abstractmethod
    def start_trace(self) -> None:
        """Begin collecting the reference execution trace."""

    @abc.abstractmethod
    def stop_trace(self) -> Trace:
        """Finish trace collection and return the trace."""

    @abc.abstractmethod
    def set_detail_logging(self, enabled: bool) -> None:
        """Enable per-instruction state logging (detail mode)."""

    @abc.abstractmethod
    def drain_detail_states(self) -> List[StateVector]:
        """Per-instruction states collected since the last drain."""

    @abc.abstractmethod
    def describe_target(self) -> dict:
        """Structural description stored in TargetSystemData."""

    # Optional acceleration blocks (golden-run warm starts). These are
    # *not* abstract: a port that cannot snapshot its target simply keeps
    # the defaults, the first capture attempt raises NotImplementedByPort,
    # and every experiment takes the cold start-from-reset path.

    def capture_checkpoint(self) -> CheckpointTick:
        """Snapshot the stopped target's full state (CPU registers,
        pipeline latches, caches, scan-visible state, environment
        simulator) plus the memory pages dirtied since the previous
        capture. Called by the reference run at the checkpoint cadence."""
        raise NotImplementedByPort(type(self).__name__, "capture_checkpoint")

    def restore_checkpoint(self, image: RestoreImage) -> None:
        """Load a reference-run checkpoint into the target — the warm
        equivalent of ``init_test_card + load_workload + write_memory +
        run_workload + wait_for_breakpoint(cycle)``. Must raise
        :class:`repro.core.checkpoint.CheckpointMismatch` when the
        restored state's fingerprint disagrees with the image's."""
        raise NotImplementedByPort(type(self).__name__, "restore_checkpoint")

    # Never called: goofibench's span wrapper still looks these up by name.
    def capture_state_digest(self) -> str:
        raise NotImplementedByPort(type(self).__name__, "capture_state_digest")

    def capture_core_digest(self) -> str:
        raise NotImplementedByPort(type(self).__name__, "capture_core_digest")

    def peek_bits(self, locations: Sequence[FaultLocation]) -> List[int]:
        """The current value of each location's bit in the stopped
        target, read without a scan shift and without perturbing it.
        The schedule's golden pass reads the ``bit_before`` of every
        dead plan's injections through it; a port that keeps this
        default executes every plan."""
        raise NotImplementedByPort(type(self).__name__, "peek_bits")

    def available_workloads(self):
        """Names of the workloads this target can run, or None when the
        port does not restrict them (optional override, used by the
        set-up window to validate workload selections per target)."""
        return None

    def workload_program(self):
        """The assembled program image of the bound campaign's workload,
        or None when the port cannot provide one (optional override).

        Ports that return a :class:`repro.thor.assembler.Program` here
        unlock the *static* pre-injection oracle and the static lint
        checks (dead registers, unreachable code, dead stores); ports
        that keep the default None degrade gracefully to the trace-based
        analysis only."""
        return None

    # ------------------------------------------------------------------
    # Campaign preparation (readCampaignData + set-up interpretation)
    # ------------------------------------------------------------------

    def read_campaign_data(self, campaign: CampaignData) -> None:
        """Bind this algorithm instance to one campaign."""
        campaign.validate()
        self._check_technique_spaces(campaign)
        self.campaign = campaign
        space = self.location_space()
        space.validate_selection(campaign.location_patterns)
        self._locations = space.expand(campaign.location_patterns)
        self._fault_model = build_fault_model(campaign.fault_model)
        self._rng = CampaignRandom(campaign.seed)
        self._liveness = None
        self._equivalence = None
        self._trace_oracle = None
        # A stale reference/checkpoint store from a previously bound
        # campaign must never leak into this one (the reference-run
        # budget and the warm-start eligibility depend on them).
        self._reference = None
        self._checkpoints = None

    def _check_technique_spaces(self, campaign: CampaignData) -> None:
        allowed = self.TECHNIQUE_SPACES[campaign.technique]
        for pattern in campaign.location_patterns:
            space_part = pattern.split("/", 1)[0]
            if not any(space_part.startswith(prefix) for prefix in allowed):
                raise CampaignError(
                    f"technique {campaign.technique!r} cannot reach locations "
                    f"in {pattern!r} (allowed spaces: {allowed})"
                )

    # ------------------------------------------------------------------
    # Reference run (makeReferenceRun in Figure 2)
    # ------------------------------------------------------------------

    def make_reference_run(self) -> ReferenceRun:
        campaign = self._require_campaign()
        detail = campaign.logging_mode == "detail"
        # Capture warm-start checkpoints along the reference run when the
        # campaign, logging mode and technique allow it. Detail mode is
        # excluded (detail runs log per-instruction states from cycle 0,
        # so a warm start would drop the prefix states).
        warm = (
            campaign.warm_start
            and not detail
            and campaign.technique in STOP_AND_INJECT_TECHNIQUES
        )
        store: Optional[CheckpointStore] = None
        with get_observability().profile(
            "reference-run",
            campaign=campaign.campaign_name,
            workload=campaign.workload_name,
        ):
            self.init_test_card()
            self.load_workload()
            self.write_memory()
            self.start_trace()
            self.set_detail_logging(detail)
            self.run_workload()
            budget = campaign.timeout_cycles or _REFERENCE_BUDGET
            termination: Optional[Termination] = None
            if warm:
                store, termination = self._capture_checkpointed_reference(
                    budget
                )
            if termination is None:
                termination = self.wait_for_termination(
                    budget, campaign.max_iterations
                )
            trace = self.stop_trace()
            self.set_detail_logging(False)
            if termination.kind not in ("halt", "max_iterations"):
                raise CampaignError(
                    "reference run did not terminate normally: "
                    f"{termination.kind} ({termination.trap_name})"
                )
            reference = ReferenceRun(
                duration_cycles=termination.cycle,
                duration_instructions=len(trace),
                termination=termination,
                state_vector=self.capture_state_vector(),
                outputs=self.read_memory(),
                trace=trace,
                detail_states=self.drain_detail_states() if detail else [],
            )
            self._checkpoints = store
            self._install_oracles(reference)
        return reference

    def _install_oracles(self, reference: ReferenceRun) -> None:
        """Build the oracles from a reference run: the reference-trace
        oracle of the liveness exit wherever it applies, and the
        pre-injection/equivalence oracles the campaign selects
        (``preinjection_mode="equivalence"`` activates the partitioner
        even when liveness pruning itself is off). Dynamic pruning
        reuses the liveness exit's oracle."""
        campaign = self._require_campaign()
        trace = reference.trace
        if trace is not None and self._liveness_exit_applies(reference):
            self._trace_oracle = self.build_preinjection_analysis(
                trace, mode="dynamic"
            )
        equivalence = campaign.preinjection_mode == "equivalence"
        if not (campaign.use_preinjection or equivalence):
            return
        if (
            campaign.preinjection_mode == "dynamic"
            and self._trace_oracle is not None
        ):
            oracle = self._trace_oracle
        else:
            oracle = self.build_preinjection_analysis(trace)
        if campaign.use_preinjection:
            self._liveness = oracle
        if equivalence:
            self._equivalence = oracle

    def _liveness_exit_applies(self, reference: ReferenceRun) -> bool:
        """Does this binding build the trace oracle and derive dead
        plans at plan time: early exit on, summary logging, and a golden
        tick after cycle 0 and before the reference termination? There
        is no condition on the plan."""
        campaign = self._require_campaign()
        store = self._checkpoints
        return (
            self.early_exit
            and campaign.logging_mode != "detail"
            and store is not None
            and any(0 < cycle < reference.duration_cycles for cycle in store.cycles)
        )

    def _capture_checkpointed_reference(self, budget: int):
        """Run the reference workload to termination, pausing at the
        checkpoint cadence to snapshot target state.

        Returns ``(store, termination)``; termination is None when the
        store filled up (MAX_CHECKPOINTS) before the workload ended, in
        which case the caller finishes the run with
        ``wait_for_termination``. Returns ``(None, None)`` when the port
        does not implement the checkpoint blocks — the reference run then
        proceeds exactly as it would without warm starts."""
        campaign = self._require_campaign()
        interval = campaign.checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
        store = CheckpointStore(context=campaign.campaign_name)
        next_stop = 0
        while len(store) < MAX_CHECKPOINTS:
            termination = self.wait_for_breakpoint(next_stop)
            if termination is not None:
                return store, termination
            try:
                tick = self.capture_checkpoint()
            except NotImplementedByPort:
                # Port cannot snapshot its target: fall back to the plain
                # reference run. The first capture attempt happens at
                # cycle 0 before any stepping, so nothing was perturbed.
                return None, None
            store.append(tick)
            next_stop = tick.cycle + interval
        return store, None

    def build_preinjection_analysis(
        self, trace: Optional[Trace], mode: Optional[str] = None
    ):
        """Construct the campaign's liveness oracle (paper Section 4).

        Dispatches on ``mode``, by default ``campaign.preinjection_mode``:
        ``dynamic`` builds the trace-based :class:`~repro.core.preinjection
        .PreInjectionAnalysis`; ``static`` the trace-free
        :class:`~repro.staticanalysis.oracle.StaticPreInjectionAnalysis`
        over the port's ``workload_program``; ``hybrid`` intersects the
        two; ``equivalence`` wraps the static oracle in the fault-space
        partitioner (:class:`~repro.staticanalysis.equivalence
        .EquivalencePreInjectionAnalysis`)."""
        campaign = self._require_campaign()
        return build_liveness_oracle(
            mode or campaign.preinjection_mode,
            trace,
            self.location_space(),
            program=self.workload_program(),
        )

    # ------------------------------------------------------------------
    # Campaign lint (set-up phase validation)
    # ------------------------------------------------------------------

    def lint_campaign(self, reference_duration: Optional[int] = None):
        """Static validation of the bound campaign before it runs.

        Returns the list of :class:`repro.staticanalysis.lint
        .LintFinding`; the framework's ``setup_campaign`` helper turns
        error-severity findings into a :class:`CampaignError`."""
        from repro.staticanalysis.lint import lint_campaign as _lint

        campaign = self._require_campaign()
        return _lint(
            campaign,
            self.location_space(),
            program=self.workload_program(),
            reference_duration=reference_duration,
        )

    # ------------------------------------------------------------------
    # Per-experiment planning
    # ------------------------------------------------------------------

    def plan_experiment(self, index: int, reference: ReferenceRun) -> InjectionPlan:
        """Sample the (time, location) fault for experiment ``index``.

        With pre-injection analysis enabled, the (location, time) pair is
        re-sampled until the location holds live data at the injection
        time (Section 4: "injecting a fault into a location that does not
        hold live data serves no purpose").
        """
        campaign = self._require_campaign()
        assert self._fault_model is not None and self._rng is not None
        rng = self._rng.substream(index)
        duration = max(1, reference.duration_cycles)
        k = self._fault_model.locations_per_experiment()

        attempts = 0
        while True:
            times = campaign.trigger.resolve(rng, reference.trace, duration)
            chosen = (
                rng.sample(self._locations, min(k, len(self._locations)))
                if k > 1
                else [rng.choice(self._locations)]
            )
            attempts += 1
            if self._liveness is None:
                break
            if all(self._liveness.is_live(loc, times[0]) for loc in chosen):
                break
            if attempts >= 1000:
                raise CampaignError(
                    "pre-injection analysis found no live (location, time) "
                    "pair in 1000 samples; widen the location selection"
                )
        if self._liveness is not None:
            metrics = get_observability().metrics
            if metrics.enabled:
                # Prune ratio = rejected / sampled candidate pairs.
                metrics.counter("preinjection.samples_total").inc(attempts)
                metrics.counter("preinjection.rejected_total").inc(
                    attempts - 1
                )
        return self._fault_model.plan(rng, chosen, times, max_time=duration)

    # ------------------------------------------------------------------
    # Concrete fault-injection algorithms (the Figure 2 compositions)
    #
    # Each technique's per-experiment procedure is a *reentrant* method
    # (``_experiment_<technique>``): it touches only the target state that
    # ``init_test_card`` resets, so any number of experiments can be run
    # in any order — serially by ``_campaign_loop``, one-off by
    # ``run_single_experiment``, or sharded over worker processes by
    # :mod:`repro.core.parallel`.
    # ------------------------------------------------------------------

    #: technique name -> bound per-experiment procedure name (the
    #: counterpart of TECHNIQUE_METHODS for a single experiment).
    TECHNIQUE_EXPERIMENTS = {
        "scifi": "_experiment_stop_and_inject",
        "swifi-pre": "_experiment_swifi_pre",
        "swifi-runtime": "_experiment_swifi_runtime",
        "simfi": "_experiment_stop_and_inject",
        "pinlevel": "_experiment_stop_and_inject",
    }

    #: stop-and-inject technique -> its inject step (bound method name).
    INJECT_STEPS = {
        "scifi": "_inject_scan",
        "simfi": "inject_fault_direct",
        "pinlevel": "force_pins",
    }

    def _cold_prefix(self) -> None:
        """The cold pre-injection prefix: power-cycle, download, arm."""
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        self._apply_detail_mode()
        self.run_workload()

    def _tick_before(self, time: int) -> Optional[int]:
        """Index of the latest checkpoint strictly before ``time``, or
        None when the campaign, technique or store rules warm starts
        out."""
        store = self._checkpoints
        campaign = self._require_campaign()
        if (
            store is None
            or len(store) == 0
            or not campaign.warm_start
            or campaign.logging_mode == "detail"
            or campaign.technique not in STOP_AND_INJECT_TECHNIQUES
        ):
            return None
        return store.nearest_before(time)

    def _try_restore(self, plan: InjectionPlan) -> bool:
        """Warm-start the experiment from the latest reference-run
        checkpoint *strictly before* the plan's first injection time,
        not at-or-before: a checkpoint captured exactly at the injection
        cycle would land the restored target on the injection instant
        and skip that cycle's trigger/pre-injection evaluation, so the
        first-injection hop must always approach the injection time from
        earlier state.

        Returns True when the target is now in the restored state (the
        caller skips the cold prefix); False when no checkpoint applies
        or the restore failed its fingerprint check, in which case the
        target is untouched/garbage and the caller must take the cold
        path (which starts with ``init_test_card`` and is therefore
        always safe)."""
        actions = plan.sorted_actions()
        if not actions or not self._restore(self._tick_before(actions[0].time)):
            return False
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.counter("checkpoint.hits").inc()
        return True

    def _restore(self, index: Optional[int]) -> bool:
        """Restore checkpoint ``index``; False when there is none or it
        failed its fingerprint check (take the cold path then). Counts
        the prefix cycles the restore saves simulating."""
        if index is None:
            return False
        assert self._checkpoints is not None
        image = self._checkpoints.restore_image(index)
        obs = get_observability()
        try:
            with obs.profile("checkpoint.restore", cycle=image.cycle):
                self.restore_checkpoint(image)
        except (CheckpointMismatch, NotImplementedByPort):
            if obs.metrics.enabled:
                obs.metrics.counter("checkpoint.cold_falls").inc()
            return False
        if obs.metrics.enabled:
            obs.metrics.counter("checkpoint.cycles_saved").inc(image.cycle)
        return True

    @staticmethod
    def _action_chain_names(action) -> Optional[List[str]]:
        """Scan chains an injection action touches — the restricted
        read/write set for the SCIFI fast path. None when the action
        reaches outside the scan space (shift everything)."""
        names = set()
        for location in action.locations:
            if not location.space.startswith("scan:"):
                return None
            names.add(location.space.split(":", 1)[1])
        return sorted(names) or None

    def _experiment_stop_and_inject(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One stop-and-inject experiment — the inner procedure of
        Figure 2: warm-restore or cold-start, stop at each injection
        instant and run the technique's inject step (:attr:`INJECT_STEPS`),
        then run to termination."""
        campaign = self._require_campaign()
        inject = getattr(self, self.INJECT_STEPS[campaign.technique])
        result = self._new_result(index)
        if not self._try_restore(plan):
            self._cold_prefix()
        termination: Optional[Termination] = None
        for action in plan.sorted_actions():
            termination = self.wait_for_breakpoint(action.time)
            if termination is not None:
                break
            result.injections.extend(inject(action))
        if termination is None:
            termination = self.wait_for_termination(
                self._experiment_budget(), campaign.max_iterations
            )
        self._finish(result, termination)
        return result

    def _inject_scan(self, action) -> List[Injection]:
        """SCIFI's inject step: shift the scan chains out, manipulate the
        image, shift it back in."""
        campaign = self._require_campaign()
        obs = get_observability()
        names = (
            None if campaign.full_scan_shift else self._action_chain_names(action)
        )
        with obs.profile("scan.read"):
            chains = self.read_scan_chain(names)
        injections = self.inject_fault(chains, action)
        with obs.profile("scan.write"):
            self.write_scan_chain(chains)
        return injections

    def _experiment_swifi_pre(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One pre-runtime SWIFI experiment: faults are injected into the
        program and data areas of the target before it starts to execute."""
        campaign = self._require_campaign()
        result = self._new_result(index)
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        # Inject after the full image (program + input data) is down
        # loaded — "before it starts to execute", not before download.
        for action in plan.sorted_actions():
            result.injections.extend(self.inject_fault_preruntime(action))
        self._apply_detail_mode()
        self.run_workload()
        termination = self.wait_for_termination(
            self._experiment_budget(), campaign.max_iterations
        )
        self._finish(result, termination)
        return result

    def _experiment_swifi_runtime(
        self, index: int, plan: InjectionPlan
    ) -> ExperimentResult:
        """One runtime SWIFI experiment (Section 4 extension): the workload
        is instrumented with additional software for injecting faults."""
        campaign = self._require_campaign()
        result = self._new_result(index)
        self.init_test_card()
        self.load_workload()
        self.write_memory()
        self.instrument_workload(plan)
        self._apply_detail_mode()
        self.run_workload()
        termination = self.wait_for_termination(
            self._experiment_budget(), campaign.max_iterations
        )
        result.injections.extend(self.collect_runtime_injections())
        self._finish(result, termination)
        return result

    def fault_injector_scifi(self, campaign, sink=None, control=None,
                             skip_indices=None):
        """Scan-Chain Implemented Fault Injection — the algorithm of
        Figure 2, step for step."""
        return self._campaign_loop(campaign, sink, control, skip_indices)

    def fault_injector_swifi_pre(self, campaign, sink=None, control=None,
                                 skip_indices=None):
        """Pre-runtime SWIFI: faults are injected into the program and
        data areas of the target before it starts to execute."""
        return self._campaign_loop(campaign, sink, control, skip_indices)

    def fault_injector_swifi_runtime(self, campaign, sink=None, control=None,
                                     skip_indices=None):
        """Runtime SWIFI (Section 4 extension): the workload is
        instrumented with additional software for injecting faults."""
        return self._campaign_loop(campaign, sink, control, skip_indices)

    def fault_injector_simfi(self, campaign, sink=None, control=None,
                             skip_indices=None):
        """Simulation-based FI baseline (MEFISTO-style): direct state
        access, no scan-chain serialization."""
        return self._campaign_loop(campaign, sink, control, skip_indices)

    def fault_injector_pinlevel(self, campaign, sink=None, control=None,
                                skip_indices=None):
        """Pin-level fault injection through boundary scan: stop at the
        injection instant, arm EXTEST forcing of the selected bus lines,
        resume — the forced lines corrupt the next read transactions."""
        return self._campaign_loop(campaign, sink, control, skip_indices)

    # ------------------------------------------------------------------
    # Reentrant single-experiment building block
    # ------------------------------------------------------------------

    def prepare_run(self, campaign, golden=None) -> ReferenceRun:
        """Bind ``campaign`` and perform the reference run — everything a
        runner (serial loop, parallel worker, re-run helper) needs before
        it can call :meth:`run_single_experiment`. Returns the reference
        run (also retained on the instance for budget derivation).

        ``golden`` optionally supplies a pre-computed
        :class:`repro.core.goldencache.GoldenRun` (reference run +
        checkpoint store) — the parallel runner hands workers the
        parent's golden run so each worker skips its own reference
        execution. When :attr:`golden_cache` is set, the golden run is
        also looked up/stored on disk keyed by the campaign's config
        hash, so repeated ``goofi run`` invocations of an unchanged
        campaign skip the reference run entirely."""
        self.read_campaign_data(campaign)
        cache = self.golden_cache
        key = None
        if golden is not None or cache is not None:
            from repro.core.goldencache import campaign_golden_key

            # Key is computed after read_campaign_data: port bindings may
            # resolve symbolic trigger fields, and the key must reflect
            # what will actually run.
            key = campaign_golden_key(campaign)
        obs = get_observability()
        if golden is not None and self._adopt_golden(golden, key):
            if obs.metrics.enabled:
                obs.metrics.counter("goldencache.shared_hits").inc()
            return self._reference
        if cache is not None:
            cached = cache.load(key)
            if cached is not None and self._adopt_golden(cached, key):
                if obs.metrics.enabled:
                    obs.metrics.counter("goldencache.hits").inc()
                return self._reference
            if obs.metrics.enabled:
                obs.metrics.counter("goldencache.misses").inc()
        reference = self.make_reference_run()
        self._reference = reference
        if cache is not None and key is not None:
            from repro.core.goldencache import GoldenRun

            cache.store(
                GoldenRun(
                    config_hash=key,
                    target_name=campaign.target_name,
                    reference=reference,
                    checkpoints=self._checkpoints,
                )
            )
        return reference

    def _adopt_golden(self, golden, key: Optional[str]) -> bool:
        """Install a shared/cached golden run on this instance. Returns
        False (adopt nothing) when the golden run's config hash does not
        match this campaign's — a stale cache entry must never shortcut
        a different campaign."""
        campaign = self._require_campaign()
        if golden is None or key is None or golden.config_hash != key:
            return False
        if golden.target_name != campaign.target_name:
            return False
        self._reference = golden.reference
        self._checkpoints = golden.checkpoints
        self._install_oracles(golden.reference)
        return True

    def run_single_experiment(
        self,
        index: int,
        plan: Optional[InjectionPlan] = None,
        reference: Optional[ReferenceRun] = None,
    ) -> ExperimentResult:
        """Plan and execute exactly one experiment of the bound campaign.

        This is the reentrant unit the campaign loop iterates and the
        parallel runner ships to worker processes: given the same campaign
        binding and reference run, experiment ``index`` produces the same
        result no matter which process runs it or in which order, because
        the injection plan is drawn from the index-keyed RNG substream and
        the target is reinitialised by the experiment procedure itself.
        It always executes: rows derived without executing come from
        :class:`ExperimentSchedule`, and a verification of a derived row
        is just this call.

        ``plan`` skips sampling when the caller already holds this
        index's plan; ``reference`` defaults to the instance's retained
        reference run from :meth:`prepare_run`."""
        campaign = self._require_campaign()
        if reference is None:
            reference = getattr(self, "_reference", None)
        if reference is None:
            raise CampaignError(
                "run_single_experiment needs a reference run; call "
                "prepare_run() first or pass reference="
            )
        if plan is None:
            plan = self.plan_experiment(index, reference)
        obs = get_observability()
        procedure = getattr(self, self.TECHNIQUE_EXPERIMENTS[campaign.technique])
        started = _time.perf_counter()
        with obs.profile(
            "experiment",
            campaign=campaign.campaign_name,
            index=index,
            technique=campaign.technique,
        ):
            result = procedure(index, plan)
        result.wall_seconds = _time.perf_counter() - started
        obs.metrics.counter("experiments_total").inc()
        return result

    def run_campaign(self, campaign, sink=None, control=None,
                     skip_indices=None):
        """Dispatch to the technique the campaign selected.

        ``skip_indices`` supports resuming an interrupted campaign:
        experiments whose index is in the set are not re-run (their
        results are already in the sink); because every experiment draws
        its fault from an index-keyed RNG substream, the remaining
        experiments inject exactly what they would have in the original
        run."""
        method = getattr(self, self.TECHNIQUE_METHODS[campaign.technique])
        return method(campaign, sink=sink, control=control,
                      skip_indices=skip_indices)

    # ------------------------------------------------------------------
    # Fault-list preview (set-up phase aid)
    # ------------------------------------------------------------------

    def preview_fault_list(self, campaign: CampaignData, count: int = 10):
        """The first ``count`` experiments' planned faults, without
        injecting anything.

        Performs the reference run (plans are trigger- and
        liveness-dependent), then resolves each experiment's injection
        plan exactly as the campaign run would — the preview is
        guaranteed to match what ``run_campaign`` later injects, because
        both draw from the same index-keyed RNG substreams.
        """
        self.read_campaign_data(campaign)
        reference = self.make_reference_run()
        self._reference = reference
        previews = []
        for index in range(min(count, campaign.n_experiments)):
            plan = self.plan_experiment(index, reference)
            previews.append(
                {
                    "index": index,
                    "actions": [
                        {
                            "time": action.time,
                            "op": action.op,
                            "locations": [
                                location.key() for location in action.locations
                            ],
                        }
                        for action in plan.sorted_actions()
                    ],
                }
            )
        return previews

    # ------------------------------------------------------------------
    # Re-run with provenance (the parentExperiment mechanism of Figure 4)
    # ------------------------------------------------------------------

    def rerun_experiment(
        self,
        campaign: CampaignData,
        index: int,
        sink=None,
        logging_mode: str = "detail",
    ) -> ExperimentResult:
        """Re-run experiment ``index`` of ``campaign`` — typically in
        detail mode to analyse an interesting result — producing a new
        experiment whose ``parent_experiment`` names the original.

        The re-run's reference (per-step states included) and row are
        logged under ``campaign`` as its own runs store it, logging mode
        unchanged: a stored detail variant would make ``goofi run
        --resume`` continue in detail mode and change the campaign's
        config hash."""
        detail_campaign = campaign.modified(logging_mode=logging_mode)
        parent_name = self.experiment_name(campaign.campaign_name, index)
        sink = sink if sink is not None else _ListSink()
        reference = self.prepare_run(detail_campaign)
        stored = detail_campaign.modified(logging_mode=campaign.logging_mode)
        sink.log_reference(stored, reference)
        # The index-keyed substream redraws the original experiment's
        # plan, so the re-run injects the same fault.
        result = self.run_single_experiment(index, reference=reference)
        result.name = f"{parent_name}-rerun"
        result.parent_experiment = parent_name
        sink.log_experiment(stored, result)
        _flush_sink(sink)
        return result

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def experiment_name(campaign_name: str, index: int) -> str:
        return f"{campaign_name}-exp{index:05d}"

    def _require_campaign(self) -> CampaignData:
        if self.campaign is None:
            raise CampaignError("read_campaign_data() has not been called")
        return self.campaign

    def _new_result(self, index: int) -> ExperimentResult:
        campaign = self._require_campaign()
        return ExperimentResult(
            name=self.experiment_name(campaign.campaign_name, index),
            index=index,
            campaign_name=campaign.campaign_name,
        )

    def _apply_detail_mode(self) -> None:
        campaign = self._require_campaign()
        self.set_detail_logging(campaign.logging_mode == "detail")

    def _experiment_budget(self) -> int:
        campaign = self._require_campaign()
        if campaign.timeout_cycles is not None:
            return campaign.timeout_cycles
        reference = getattr(self, "_reference", None)
        if reference is None:
            return _REFERENCE_BUDGET
        return int(reference.duration_cycles * campaign.timeout_factor) + 1

    def _finish(self, result: ExperimentResult, termination: Termination) -> None:
        campaign = self._require_campaign()
        result.termination = termination
        result.outputs = self.read_memory()
        result.state_vector = self.capture_state_vector()
        if campaign.logging_mode == "detail":
            result.detail_states = self.drain_detail_states()
            self.set_detail_logging(False)

    # ------------------------------------------------------------------
    # Liveness exit: rows of dead plans, derived from the golden run
    # ------------------------------------------------------------------

    def _liveness_exit(self, result: ExperimentResult) -> None:
        """Fill the row of a plan whose every injected bit the reference
        trace proves dead at its injection time (``result`` holds its
        injections): overwritten before any read, or never touched again
        (latent). The faulty run then reads nothing the golden run does
        not, so it ends with the golden termination and outputs, and its
        state vector is the golden one with each latent bit holding the
        value its last injection left. Fresh copies, never aliases:
        results outlive the experiment and are mutated downstream."""
        oracle = self._trace_oracle
        reference = self._reference
        assert oracle is not None and reference is not None and result.injections
        latent: Dict[tuple, int] = {}
        for injection in result.injections:
            location = injection.location
            if oracle.fate(location, injection.time) == LATENT:
                latent[location.path, location.bit] = injection.bit_after
            else:
                latent.pop((location.path, location.bit), None)
        result.termination = Termination.from_dict(
            reference.termination.to_dict()
        )
        result.outputs = dict(reference.outputs)
        result.state_vector = dict(reference.state_vector)
        if latent:
            # A register is observed as scan:internal/... and swreg/...
            # alike: a key names the latent cell by its path.
            vector = result.state_vector
            for key, value in vector.items():
                path = key.split("/", 1)[1]
                for (latent_path, bit), bit_after in latent.items():
                    if path == latent_path:
                        value = bit_set(value, bit, bit_after)
                vector[key] = value
        skipped = reference.duration_cycles - result.injections[-1].time
        obs = get_observability()
        if obs.metrics.enabled:
            obs.metrics.counter("divergence.liveness_exits").inc()
            obs.metrics.counter("divergence.cycles_skipped").inc(skipped)
        obs.tracer.event("liveness-exit", cycles_skipped=skipped)

    def _golden_injections(
        self, plans: Dict[int, InjectionPlan]
    ) -> Dict[int, List[Injection]]:
        """The injections of each of ``plans`` whose every injected bit
        the reference-trace oracle proves dead, keyed by index: the
        plans whose rows :meth:`_liveness_exit` derives from the golden
        run. A dead plan is left out when the golden run terminates
        before one of its actions (it executes, as a faulty run would
        end there too), and every plan is left out when the port cannot
        :meth:`peek_bits`.

        An injection's ``bit_before`` is the golden value at its time,
        read in one golden pass (:meth:`_golden_pass`), unless the plan
        injected the same bit earlier and the reference run does not
        access it in between: it then still holds that injection's
        ``bit_after``. A register reached as ``scan:internal/...`` and
        ``swreg/...`` is one bit, keyed by its path."""
        dead: Dict[int, List[tuple]] = {}
        reads: Dict[int, Set[FaultLocation]] = {}
        for index, plan in plans.items():
            steps = self._dead_steps(plan)
            if not steps:
                continue
            dead[index] = steps
            for time, location, _, earlier in steps:
                stop = reads.setdefault(time, set())
                if earlier is None:
                    stop.add(location)
        bits = self._golden_pass(reads) if dead else None
        if bits is None:
            return {}
        derived: Dict[int, List[Injection]] = {}
        for index, steps in dead.items():
            if steps[-1][0] not in bits:
                continue
            injections: List[Injection] = []
            for time, location, op, earlier in steps:
                before = (
                    bits[time][location]
                    if earlier is None
                    else injections[earlier].bit_after
                )
                injections.append(
                    Injection(
                        time=time,
                        location=location,
                        op=op,
                        bit_before=before,
                        bit_after=apply_op(before, op),
                    )
                )
            derived[index] = injections
        return derived

    def _dead_steps(self, plan: InjectionPlan) -> Optional[List[tuple]]:
        """``plan``'s injections as (time, location, op, earlier) in
        execution order — ``earlier`` is the position of the earlier
        injection of the same bit whose value the bit still holds, or
        None — or None when one of its bits is live."""
        oracle = self._trace_oracle
        assert oracle is not None
        steps: List[tuple] = []
        last: Dict[tuple, int] = {}
        for action in plan.sorted_actions():
            for location in action.locations:
                if oracle.fate(location, action.time) == LIVE:
                    return None
                key = (location.path, location.bit)
                earlier = last.get(key)
                if earlier is not None and oracle.accessed_between(
                    location, steps[earlier][0], action.time
                ):
                    earlier = None
                last[key] = len(steps)
                steps.append((action.time, location, action.op, earlier))
        return steps

    def _golden_pass(
        self, reads: Dict[int, Set[FaultLocation]]
    ) -> Optional[Dict[int, Dict[FaultLocation, int]]]:
        """Run the golden workload once — from the checkpoint strictly
        before the earliest time of ``reads``, or from reset — stopping
        at each of its times in ascending order to peek the listed bits.
        Returns time -> {location: bit} for every time the run reaches
        before it terminates, or None when the port has no
        :meth:`peek_bits` block."""
        times = sorted(reads)
        if not self._restore(self._tick_before(times[0])):
            self._cold_prefix()
        bits: Dict[int, Dict[FaultLocation, int]] = {}
        for time in times:
            if self.wait_for_breakpoint(time) is not None:
                break
            locations = list(reads[time])
            try:
                bits[time] = dict(zip(locations, self.peek_bits(locations)))
            except NotImplementedByPort:
                return None
        return bits

    def _campaign_loop(self, campaign, sink, control, skip_indices=None):
        sink = sink if sink is not None else _ListSink()
        control = control if control is not None else _NullControl()
        skip = frozenset(skip_indices or ())
        obs = get_observability()
        with obs.profile(
            "campaign",
            campaign=campaign.campaign_name,
            technique=campaign.technique,
            n_experiments=campaign.n_experiments,
            mode="serial",
        ):
            reference = self.prepare_run(campaign)
            sink.log_reference(campaign, reference)
            schedule = ExperimentSchedule(
                self,
                reference,
                (i for i in range(campaign.n_experiments) if i not in skip),
            )
            try:
                for index in schedule.order:
                    try:
                        control.checkpoint(index)
                    except StopCampaign:
                        break
                    if schedule.executes(index):
                        schedule.accept(
                            index,
                            self.run_single_experiment(
                                index,
                                plan=schedule.plans.get(index),
                                reference=reference,
                            ),
                        )
                    result = schedule.row(index)
                    assert result is not None
                    sink.log_experiment(campaign, result)
                    control.report(index, result)
            finally:
                _flush_sink(sink)
        obs.flush()
        return sink
