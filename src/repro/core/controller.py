"""Campaign controller: run control and live progress (Figure 7).

"During the fault injection campaign, a progress window is shown enabling
the user to monitor the experiments, e.g. getting information about the
number of faults injected and also to pause, restart or end the campaign."

The controller wraps a fault-injection algorithm run with exactly those
affordances: progress listeners receive a :class:`CampaignProgress`
snapshot after every experiment, and :meth:`pause` / :meth:`resume` /
:meth:`stop` work both from another thread and from inside a progress
listener (cooperative, checked between experiments).

Timing contract: ``elapsed_seconds`` counts *active* campaign time only —
time spent paused is accumulated separately and subtracted, so
``experiments_per_second`` reflects real throughput rather than how long
the operator left the campaign paused.

Execution is pluggable: :meth:`run` owns state transitions (including the
``"failed"`` state when the algorithm raises) and resume bookkeeping,
while the actual experiment loop lives in :meth:`_execute`. The serial
controller delegates to the algorithm's campaign loop; the parallel
controller in :mod:`repro.core.parallel` overrides ``_execute`` with a
multiprocessing pool while inheriting every Figure-7 affordance.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.algorithms import FaultInjectionAlgorithms, StopCampaign, _flush_sink
from repro.core.campaign import CampaignData
from repro.core.experiment import ExperimentResult
from repro.observability import get_observability
from repro.observability.health import (
    NULL_HEALTH,
    CampaignHealthMonitor,
    set_health,
)
from repro.util.errors import CampaignError


@dataclass
class CampaignProgress:
    """Snapshot rendered by the progress window."""

    campaign_name: str = ""
    n_total: int = 0
    n_done: int = 0
    n_injected_faults: int = 0
    terminations: Dict[str, int] = field(default_factory=dict)
    detections: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    state: str = "idle"
    #: Number of worker processes executing experiments (1 = serial).
    n_workers: int = 1
    #: Experiments that exhausted their watchdog retries and were logged
    #: with a ``worker-failure`` termination (parallel runner only).
    n_worker_failures: int = 0
    #: Estimated seconds to completion from the health monitor's latency
    #: EWMA (``None`` when no health monitor is attached yet).
    eta_seconds: Optional[float] = None
    #: Experiments whose outcome was statically derived from an executed
    #: equivalence-class representative rather than executed itself
    #: (``preinjection_mode="equivalence"``).
    n_derived: int = 0

    @property
    def experiments_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_done / self.elapsed_seconds

    @property
    def percent_done(self) -> float:
        if self.n_total == 0:
            return 0.0
        return 100.0 * self.n_done / self.n_total


ProgressListener = Callable[[CampaignProgress], None]


class CampaignController:
    """Run a campaign with pause/restart/end control and progress events."""

    def __init__(self, algorithm: Optional[FaultInjectionAlgorithms], sink=None):
        self.algorithm = algorithm
        self.sink = sink
        self.progress = CampaignProgress()
        #: Live health monitor for the current run (no-op singleton when
        #: observability is disabled — one truth test per call site).
        self.health: CampaignHealthMonitor = NULL_HEALTH
        #: RunMeta provenance row id of the current run (sinks that
        #: implement ``record_run_start`` only).
        self.run_id: Optional[int] = None
        self._listeners: List[ProgressListener] = []
        self._resume_event = threading.Event()
        self._resume_event.set()
        self._stop_requested = False
        self._started_at = 0.0
        self._paused_seconds = 0.0

    # -- listeners -----------------------------------------------------------

    def add_listener(self, listener: ProgressListener) -> None:
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self.progress)

    # -- run control (the progress-window buttons) ------------------------------

    def pause(self) -> None:
        self._resume_event.clear()
        self.progress.state = "paused"
        self.health.notify_paused()
        self._state_event("paused")

    def resume(self) -> None:
        """Restart a paused campaign.

        A no-op after :meth:`stop`: once the End button was pressed the
        campaign is ending, and resuming must not flip the state back to
        ``"running"`` (the stop still wins at the next checkpoint)."""
        if self._stop_requested:
            return
        self.progress.state = "running"
        self.health.notify_resumed()
        self._state_event("running")
        self._resume_event.set()

    def stop(self) -> None:
        self._stop_requested = True
        self._state_event("stopping")
        self._resume_event.set()

    def _state_event(self, state: str) -> None:
        """Emit a campaign-state trace event (no-op when tracing is off)."""
        get_observability().tracer.event(
            "campaign-state",
            campaign=self.progress.campaign_name,
            state=state,
        )

    @property
    def paused(self) -> bool:
        return not self._resume_event.is_set()

    # -- timing ------------------------------------------------------------------

    def _elapsed(self) -> float:
        """Active campaign time: wall time minus accumulated pause time."""
        return time.perf_counter() - self._started_at - self._paused_seconds

    def add_pause_time(self, seconds: float) -> None:
        """Credit externally measured pause time (used by executors that
        implement their own cooperative pause loop, e.g. the parallel
        runner, so paused time never pollutes the throughput figure)."""
        self._paused_seconds += max(0.0, seconds)

    # -- hooks called by the algorithm's campaign loop ----------------------------

    def checkpoint(self, index: int) -> None:
        if self._stop_requested:
            self.progress.state = "stopped"
            raise StopCampaign()
        if self._resume_event.is_set():
            return
        # A paused campaign may be inspected or killed: land its rows.
        _flush_sink(self.sink)
        # Cooperative pause: wait in short slices so stop() still works.
        # Whatever time is spent here is pause time, not campaign time.
        pause_started = time.perf_counter()
        try:
            while not self._resume_event.wait(timeout=0.05):
                if self._stop_requested:
                    self.progress.state = "stopped"
                    raise StopCampaign()
        finally:
            self._paused_seconds += time.perf_counter() - pause_started

    def report(self, index: int, result: ExperimentResult) -> None:
        progress = self.progress
        progress.n_done += 1
        self._tally(progress, result)
        progress.elapsed_seconds = self._elapsed()
        if self.health.enabled:
            termination = result.termination
            self.health.record_result(
                termination.kind if termination is not None else None
            )
            progress.eta_seconds = self.health.eta_seconds()
            self.health.check()
        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.gauge("campaign.n_done").set(progress.n_done)
            metrics.gauge("campaign.elapsed_seconds").set(
                progress.elapsed_seconds
            )
            metrics.gauge("campaign.experiments_per_second").set(
                progress.experiments_per_second
            )
            if progress.eta_seconds is not None:
                metrics.gauge("campaign.eta_seconds").set(
                    progress.eta_seconds
                )
        self._notify()

    @staticmethod
    def _tally(progress: CampaignProgress, result: ExperimentResult) -> None:
        """Fold one experiment's outcome into the running counters (shared
        by live reporting and the resume-time rebuild from the sink)."""
        progress.n_injected_faults += len(result.injections)
        if result.derived_from is not None:
            progress.n_derived += 1
        termination = result.termination
        if termination is not None:
            progress.terminations[termination.kind] = (
                progress.terminations.get(termination.kind, 0) + 1
            )
            if termination.kind == "trap" and termination.trap_name:
                progress.detections[termination.trap_name] = (
                    progress.detections.get(termination.trap_name, 0) + 1
                )
            if termination.kind == "worker-failure":
                progress.n_worker_failures += 1

    # -- campaign execution ---------------------------------------------------------

    def run(self, campaign: CampaignData, resume: bool = False):
        """Run the campaign to completion (or until stopped).

        With ``resume=True`` and a sink that knows which experiments are
        already logged (the GOOFI database does), previously completed
        experiments are skipped — restarting an interrupted campaign
        picks up exactly where it stopped, injecting the same faults the
        skipped indices would not have re-drawn. The progress counters
        (injected faults, terminations, detections) are rebuilt from the
        sink so post-resume breakdowns include the pre-interruption
        experiments.

        If the underlying algorithm raises, the controller transitions to
        the ``"failed"`` state (never stuck in ``"running"``) and the
        exception propagates; a later :meth:`run` is allowed again."""
        if self.progress.state == "running":
            raise CampaignError("controller is already running a campaign")
        skip_indices = None
        if resume:
            if self.sink is None or not hasattr(self.sink, "completed_indices"):
                raise CampaignError(
                    "resume needs a sink that records completed experiments"
                )
            skip_indices = set(
                self.sink.completed_indices(campaign.campaign_name)
            )
        self.progress = CampaignProgress(
            campaign_name=campaign.campaign_name,
            n_total=campaign.n_experiments,
            n_done=len(skip_indices or ()),
            state="running",
        )
        if skip_indices:
            self._rebuild_counters(campaign, skip_indices)
        self._stop_requested = False
        self._resume_event.set()
        self._started_at = time.perf_counter()
        self._paused_seconds = 0.0
        obs = get_observability()
        if obs.enabled:
            # Live telemetry: a fresh health monitor per run, installed
            # process-globally so the exporter's /healthz sees it.
            self.health = CampaignHealthMonitor()
            self.health.begin(
                campaign.campaign_name,
                n_total=campaign.n_experiments,
                n_workers=self._planned_workers(),
            )
            set_health(self.health)
        else:
            self.health = NULL_HEALTH
        self.run_id = self._record_run_start(campaign)
        self._notify()
        try:
            sink = self._execute(campaign, skip_indices)
        except Exception:
            # Never leave the controller stuck in "running": a crashed
            # campaign must not make every later run() raise "already
            # running a campaign".
            self.progress.state = "failed"
            self.progress.elapsed_seconds = self._elapsed()
            obs.flightrec.dump(
                "unhandled-exception", campaign=campaign.campaign_name
            )
            self._record_run_end("failed")
            self._notify()
            raise
        if self.progress.state != "stopped":
            self.progress.state = "finished"
        self.progress.elapsed_seconds = self._elapsed()
        self._record_run_end(self.progress.state)
        self._notify()
        return sink

    # -- run provenance (RunMeta, sinks that support it) --------------------

    def _planned_workers(self) -> int:
        """Worker processes this controller will use (1 = serial);
        overridden by the parallel controller."""
        return 1

    def _record_run_start(self, campaign: CampaignData) -> Optional[int]:
        record_start = getattr(self.sink, "record_run_start", None)
        if not callable(record_start):
            return None
        return record_start(campaign, n_workers=self._planned_workers())

    def _record_run_end(self, state: str) -> None:
        if self.run_id is None:
            return
        record_end = getattr(self.sink, "record_run_end", None)
        if not callable(record_end):
            return
        metrics = get_observability().metrics
        snapshot = metrics.snapshot() if metrics.enabled else None
        record_end(
            self.run_id,
            state,
            metrics_snapshot=snapshot,
            n_workers=self.progress.n_workers,
        )

    def _execute(self, campaign: CampaignData, skip_indices):
        """Run the experiment loop; overridden by parallel executors."""
        if self.algorithm is None:
            raise CampaignError("controller has no algorithm to run")
        return self.algorithm.run_campaign(
            campaign, sink=self.sink, control=self, skip_indices=skip_indices
        )

    def _rebuild_counters(self, campaign: CampaignData, skip_indices) -> None:
        """Rebuild fault/termination/detection counters from the sink's
        already-logged experiments so a resumed campaign's breakdowns are
        not silently reset to zero."""
        results = self._logged_results(campaign)
        if results is None:
            return
        for result in results:
            if result.parent_experiment is not None:
                continue  # re-runs are provenance children, not campaign rows
            if result.index not in skip_indices:
                continue
            self._tally(self.progress, result)

    def _logged_results(self, campaign: CampaignData):
        sink = self.sink
        if sink is None:
            return None
        if hasattr(sink, "load_experiments"):
            return sink.load_experiments(campaign.campaign_name)
        if hasattr(sink, "results"):
            return sink.results
        return None

    def run_in_thread(
        self, campaign: CampaignData, resume: bool = False
    ) -> threading.Thread:
        """Start the campaign on a worker thread (the GUI mode of
        operation); returns the thread, results flow into the sink.
        ``resume`` is forwarded to :meth:`run` so an interrupted GUI
        campaign can be restarted without re-running logged experiments."""
        thread = threading.Thread(
            target=self.run,
            args=(campaign,),
            kwargs={"resume": resume},
            name=f"campaign-{campaign.campaign_name}",
        )
        thread.start()
        return thread
