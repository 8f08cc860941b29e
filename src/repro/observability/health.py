"""Campaign health monitoring: heartbeats, stall and drift detection.

A long campaign (the Figure-7 workflow) must be *watchable* while it
runs, not just auditable afterwards. The
:class:`CampaignHealthMonitor` threads through the campaign controller
and the parallel runner and answers the three operator questions:

* **is it moving?** — per-worker heartbeat timestamps plus stall
  detection: no experiment completed within ``stall_factor`` × the EWMA
  of recent inter-completion latency (floored at
  ``stall_floor_seconds``) raises a ``stall`` alert;
* **is it still measuring the same thing?** — outcome-mix drift: the
  termination-kind distribution of the most recent window is compared
  (total-variation distance) against the campaign's own running
  baseline, so a fault mode that suddenly stops appearing (a wedged
  simulator, a corrupted workload image) raises a ``drift`` alert;
* **when is it done?** — rate and ETA estimation from the same EWMA,
  surfaced in the progress window and as gauges on the exporter.

Alerts are edge-triggered (one per episode, re-armed on recovery) and
land in three places at once: the monitor's ``alerts`` list (served by
the exporter's ``/healthz``), ``health.*_alerts_total`` counters, and
``health-alert`` trace events.

Disabled path: :data:`NULL_HEALTH` is a shared no-op singleton; every
call site in the controller and the parallel runner guards with one
truth test (the PR 3 invariant).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = [
    "CampaignHealthMonitor",
    "HealthAlert",
    "NULL_HEALTH",
    "analysis_metrics",
    "get_health",
    "set_health",
]


def analysis_metrics() -> Dict[str, float]:
    """Live analytics gauges (set by the streaming analysis engine),
    keyed without their ``analysis.`` prefix — the health monitor
    grafts these next to row-count progress so "how tight is the CI" is
    visible beside "how many rows are done".
    Empty when metrics are disabled or no analysis has run yet."""
    from repro.observability import get_observability

    metrics = get_observability().metrics
    if not metrics.enabled:
        return {}
    gauges = metrics.snapshot().get("gauges", {})
    return {
        key.split(".", 1)[1]: value
        for key, value in gauges.items()
        if key.startswith("analysis.")
    }

#: EWMA smoothing factor for inter-completion latency.
_EWMA_ALPHA = 0.2


@dataclass
class HealthAlert:
    """One edge-triggered health finding."""

    kind: str  # "stall" | "drift"
    message: str
    ts: float
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "ts": self.ts,
            "fields": dict(self.fields),
        }


class CampaignHealthMonitor:
    """Live health state of one campaign run."""

    def __init__(
        self,
        enabled: bool = True,
        stall_factor: float = 8.0,
        stall_floor_seconds: float = 2.0,
        drift_threshold: float = 0.5,
        drift_window: int = 30,
        drift_min_baseline: int = 30,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.enabled = enabled
        self.stall_factor = stall_factor
        self.stall_floor_seconds = stall_floor_seconds
        self.drift_threshold = drift_threshold
        self.drift_window = drift_window
        self.drift_min_baseline = drift_min_baseline
        self._clock = clock
        self._lock = threading.Lock()
        # -- progress state
        self.campaign_name = ""
        self.n_total = 0
        self.n_done = 0
        self.n_workers = 1
        self._started_at: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._ewma_interval: Optional[float] = None
        # -- heartbeats (worker_id -> last-seen monotonic timestamp)
        self._heartbeats: Dict[int, float] = {}
        # -- outcome mix
        self._baseline_counts: Dict[str, int] = {}
        self._window: Deque[str] = deque(maxlen=max(1, drift_window))
        # -- alerting
        self.alerts: List[HealthAlert] = []
        self._stalled = False
        self._drifting = False
        # -- pause awareness (controller pause() / resume())
        self._paused_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self, campaign_name: str, n_total: int, n_workers: int = 1
    ) -> None:
        """Reset the monitor for a fresh campaign run."""
        if not self.enabled:
            return
        with self._lock:
            self.campaign_name = campaign_name
            self.n_total = n_total
            self.n_done = 0
            self.n_workers = n_workers
            self._started_at = self._clock()
            self._last_completion = None
            self._ewma_interval = None
            self._heartbeats.clear()
            self._baseline_counts.clear()
            self._window.clear()
            self.alerts = []
            self._stalled = False
            self._drifting = False
            self._paused_at = None

    def set_workers(self, n_workers: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.n_workers = n_workers

    def notify_paused(self) -> None:
        """The controller paused the campaign: freeze stall evaluation.

        An operator pause is deliberate silence — counting it as
        heartbeat silence would fire a spurious stall alert as soon as
        the pause outlives ``stall_factor × EWMA`` and then pollute the
        EWMA with one giant inter-completion interval on resume.
        Idempotent (a second pause notification keeps the first
        pause instant)."""
        if not self.enabled:
            return
        with self._lock:
            if self._paused_at is None:
                self._paused_at = self._clock()

    def notify_resumed(self) -> None:
        """The controller resumed: shift every timing reference forward
        by the pause duration so the paused interval vanishes from
        silence and EWMA computations — mirroring the controller's own
        paused-time exclusion from elapsed/rate. No-op when not
        paused."""
        if not self.enabled:
            return
        with self._lock:
            if self._paused_at is None:
                return
            now = self._clock()
            pause = max(0.0, now - self._paused_at)
            self._paused_at = None
            if self._started_at is not None:
                self._started_at = min(now, self._started_at + pause)
            if self._last_completion is not None:
                self._last_completion = min(
                    now, self._last_completion + pause
                )
            self._heartbeats = {
                worker_id: min(now, ts + pause)
                for worker_id, ts in self._heartbeats.items()
            }

    # -- feeding -----------------------------------------------------------

    def heartbeat(self, worker_id: int = 0) -> None:
        """A worker showed signs of life (any message, not just results).

        Also maintains the per-worker ``health.worker<N>.heartbeat_ts``
        gauge, so the exporter's ``/metrics`` shows liveness per worker."""
        if not self.enabled:
            return
        with self._lock:
            self._heartbeats[worker_id] = self._clock()
        from repro.observability import get_observability

        metrics = get_observability().metrics
        if metrics.enabled:
            metrics.gauge(f"health.worker{worker_id}.heartbeat_ts").set(
                time.time()
            )

    def record_result(self, termination_kind: Optional[str]) -> None:
        """Fold one completed experiment into the latency EWMA and the
        outcome-mix window."""
        if not self.enabled:
            return
        with self._lock:
            now = self._clock()
            previous = (
                self._last_completion
                if self._last_completion is not None
                else self._started_at
            )
            if previous is not None:
                interval = max(0.0, now - previous)
                self._ewma_interval = (
                    interval
                    if self._ewma_interval is None
                    else (
                        _EWMA_ALPHA * interval
                        + (1.0 - _EWMA_ALPHA) * self._ewma_interval
                    )
                )
            self._last_completion = now
            self.n_done += 1
            self._stalled = False  # progress re-arms the stall alert
            kind = termination_kind or "none"
            if len(self._window) == self._window.maxlen:
                evicted = self._window[0]
                self._baseline_counts[evicted] = (
                    self._baseline_counts.get(evicted, 0) + 1
                )
            self._window.append(kind)

    # -- derived figures ---------------------------------------------------

    def stall_threshold_seconds(self) -> float:
        """Silence longer than this raises a ``stall`` alert."""
        ewma = self._ewma_interval
        if ewma is None:
            return self.stall_floor_seconds
        return max(self.stall_floor_seconds, self.stall_factor * ewma)

    def seconds_since_progress(self) -> Optional[float]:
        last = (
            self._last_completion
            if self._last_completion is not None
            else self._started_at
        )
        if last is None:
            return None
        return max(0.0, self._clock() - last)

    def rate(self) -> float:
        """Experiments per second, from the inter-completion EWMA."""
        ewma = self._ewma_interval
        if ewma is None or ewma <= 0.0:
            return 0.0
        return 1.0 / ewma

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` before any data)."""
        ewma = self._ewma_interval
        if ewma is None or self.n_total <= 0:
            return None
        return max(0, self.n_total - self.n_done) * ewma

    def drift_distance(self) -> Optional[float]:
        """Total-variation distance between the recent outcome window
        and the running baseline (``None`` until both are populated)."""
        with self._lock:
            return self._drift_distance_locked()

    def _drift_distance_locked(self) -> Optional[float]:
        baseline_total = sum(self._baseline_counts.values())
        window_total = len(self._window)
        if (
            baseline_total < self.drift_min_baseline
            or window_total < self._window.maxlen
        ):
            return None
        window_counts: Dict[str, int] = {}
        for kind in self._window:
            window_counts[kind] = window_counts.get(kind, 0) + 1
        kinds = set(self._baseline_counts) | set(window_counts)
        distance = 0.0
        for kind in kinds:
            p_baseline = self._baseline_counts.get(kind, 0) / baseline_total
            p_window = window_counts.get(kind, 0) / window_total
            distance += abs(p_baseline - p_window)
        return 0.5 * distance

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each worker's last sign of life."""
        with self._lock:
            now = self._clock()
            return {
                worker_id: max(0.0, now - ts)
                for worker_id, ts in sorted(self._heartbeats.items())
            }

    # -- alerting ----------------------------------------------------------

    def check(self) -> List[HealthAlert]:
        """Evaluate stall and drift conditions; returns *new* alerts.

        Edge-triggered: a stall alert fires once per stall episode
        (re-armed by the next completed experiment); a drift alert fires
        once per excursion above the threshold (re-armed when the
        distance falls back under half the threshold). New alerts are
        also emitted as ``health-alert`` trace events and
        ``health.<kind>_alerts_total`` counters, so every caller —
        controller, parallel event loop, or an exporter ``/healthz``
        probe — surfaces them identically."""
        if not self.enabled:
            return []
        new_alerts: List[HealthAlert] = []
        with self._lock:
            now = self._clock()
            silence = (
                None
                if self._started_at is None
                else max(
                    0.0,
                    now
                    - (
                        self._last_completion
                        if self._last_completion is not None
                        else self._started_at
                    ),
                )
            )
            threshold = self.stall_threshold_seconds()
            if (
                silence is not None
                and silence > threshold
                and not self._stalled
                and self._paused_at is None
                and self.n_done < self.n_total
            ):
                self._stalled = True
                new_alerts.append(
                    HealthAlert(
                        kind="stall",
                        message=(
                            f"no experiment completed in {silence:.1f}s "
                            f"(threshold {threshold:.1f}s, "
                            f"{self.n_done}/{self.n_total} done)"
                        ),
                        ts=time.time(),
                        fields={
                            "silence_seconds": silence,
                            "threshold_seconds": threshold,
                            "n_done": self.n_done,
                        },
                    )
                )
            distance = self._drift_distance_locked()
            if distance is not None:
                if distance > self.drift_threshold and not self._drifting:
                    self._drifting = True
                    new_alerts.append(
                        HealthAlert(
                            kind="drift",
                            message=(
                                "outcome mix drifted from the running "
                                f"baseline (TV distance {distance:.2f} > "
                                f"{self.drift_threshold:.2f})"
                            ),
                            ts=time.time(),
                            fields={"distance": distance},
                        )
                    )
                elif distance < 0.5 * self.drift_threshold:
                    self._drifting = False
            self.alerts.extend(new_alerts)
        if new_alerts:
            self._emit(new_alerts)
        return new_alerts

    def _emit(self, alerts: List[HealthAlert]) -> None:
        """Mirror new alerts into the tracer and the metrics registry
        (outside the monitor lock; import is lazy to break the package
        import cycle)."""
        from repro.observability import get_observability

        obs = get_observability()
        for alert in alerts:
            obs.tracer.event(
                "health-alert",
                alert=alert.kind,
                campaign=self.campaign_name,
                message=alert.message,
                **alert.fields,
            )
            obs.metrics.counter(f"health.{alert.kind}_alerts_total").inc()

    # -- reporting ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """JSON-serialisable health summary (the ``/healthz`` body)."""
        if not self.enabled:
            return {"status": "disabled"}
        eta = self.eta_seconds()
        drift = self.drift_distance()
        with self._lock:
            stalled = self._stalled
            drifting = self._drifting
            alerts = [alert.to_dict() for alert in self.alerts]
        status = "ok"
        if drifting:
            status = "drift"
        if stalled:
            status = "stall"
        body = {
            "status": status,
            "campaign": self.campaign_name,
            "n_total": self.n_total,
            "n_done": self.n_done,
            "n_workers": self.n_workers,
            "rate_per_second": self.rate(),
            "eta_seconds": eta,
            "stall_threshold_seconds": self.stall_threshold_seconds(),
            "seconds_since_progress": self.seconds_since_progress(),
            "drift_distance": drift,
            "heartbeat_ages": {
                str(worker_id): age
                for worker_id, age in self.heartbeat_ages().items()
            },
            "alerts": alerts,
        }
        analysis = analysis_metrics()
        if analysis:
            body["analysis"] = analysis
        return body


#: Shared disabled monitor (the module default).
NULL_HEALTH = CampaignHealthMonitor(enabled=False)

_current_health: CampaignHealthMonitor = NULL_HEALTH


def get_health() -> CampaignHealthMonitor:
    """The process-global health monitor (disabled by default); what the
    exporter's ``/healthz`` endpoint and the progress window read."""
    return _current_health


def set_health(monitor: CampaignHealthMonitor) -> CampaignHealthMonitor:
    """Install the active campaign's monitor; returns the previous one."""
    global _current_health
    previous = _current_health
    _current_health = monitor
    return previous
