"""``repro.observability`` — tracing, metrics and profiling hooks.

A zero-dependency, low-overhead instrumentation subsystem for campaign
runs (motivated by ZOFI's near-zero measurement overhead and ProFIPy's
machine-readable run reports):

* :class:`~repro.observability.tracer.Tracer` — structured JSONL
  span/event records (campaign, experiment, scan-chain op, DB batch)
  with a shared no-op singleton on the disabled path;
* :class:`~repro.observability.metrics.MetricsRegistry` — counters,
  gauges and timing histograms, snapshotable to JSON, mergeable across
  worker processes;
* :meth:`Observability.profile` — a context-manager timer feeding both
  surfaces at once.

The subsystem is wired through ``repro.core.algorithms`` (experiments,
scan ops, pre-injection sampling), ``repro.core.parallel`` (per-worker
metric shipping), ``repro.core.controller`` (campaign state events) and
``repro.db.database`` (batch latency); its snapshots feed the progress
window and the CI benchmark-regression gate.

Process-global access pattern::

    from repro import observability

    obs = observability.configure(trace_path="run.jsonl", metrics=True)
    ...  # run campaigns; instrumented code calls get_observability()
    snapshot = obs.metrics.snapshot()
    observability.disable()

Environment bootstrap: setting ``GOOFI_TRACE=<path>`` and/or
``GOOFI_METRICS=1`` enables the corresponding surface at import time —
the hook the CI benchmark job uses without code changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, ContextManager, Dict, List, Optional

from repro.observability.flightrec import (
    NULL_FLIGHTREC,
    FlightRecorder,
    read_flight_dump,
)
from repro.observability.health import (
    NULL_HEALTH,
    CampaignHealthMonitor,
    HealthAlert,
    get_health,
    set_health,
)
from repro.observability.metrics import (
    NULL_INSTRUMENT,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiling import NULL_PROFILE, ProfiledBlock
from repro.observability.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    TraceSchemaError,
    Tracer,
    read_trace,
    read_trace_with_rotation,
    validate_record,
)

__all__ = [
    "CampaignHealthMonitor",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthAlert",
    "Histogram",
    "MetricsRegistry",
    "NULL_FLIGHTREC",
    "NULL_HEALTH",
    "NULL_INSTRUMENT",
    "NULL_PROFILE",
    "NULL_SPAN",
    "Observability",
    "ObservabilityConfig",
    "TraceSchemaError",
    "Tracer",
    "configure",
    "current_config",
    "disable",
    "get_health",
    "get_observability",
    "read_flight_dump",
    "read_trace",
    "read_trace_with_rotation",
    "set_health",
    "set_observability",
    "start_exporter",
    "validate_record",
    "worker_trace_path",
]


def start_exporter(port: int = 0, host: str = "127.0.0.1"):
    """Serve live telemetry over HTTP (see
    :mod:`repro.observability.exporter`); imported lazily so the plain
    tracing/metrics path never touches ``http.server``."""
    from repro.observability.exporter import MetricsExporter

    return MetricsExporter(port=port, host=host)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Picklable recipe for (re)building an :class:`Observability` —
    what the parallel campaign runner ships to worker processes."""

    trace_path: Optional[str] = None
    metrics: bool = False
    #: Flight-recorder ring capacity (0 disables the recorder).
    flight_records: int = 0
    #: Directory flight-recorder dumps are written to.
    flight_dir: str = "."

    @property
    def enabled(self) -> bool:
        return (
            self.trace_path is not None
            or self.metrics
            or self.flight_records > 0
        )


def worker_trace_path(trace_path: Optional[str], worker_id: int) -> Optional[str]:
    """The sibling trace file a worker writes (workers never share the
    parent's file handle, so traces stay valid under concurrency)."""
    if trace_path is None:
        return None
    root, ext = os.path.splitext(trace_path)
    return f"{root}.worker{worker_id}{ext or '.jsonl'}"


class Observability:
    """A tracer, a metrics registry and a flight recorder behind one
    switch."""

    __slots__ = ("tracer", "metrics", "flightrec", "config")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[ObservabilityConfig] = None,
        flightrec: Optional[FlightRecorder] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.flightrec = flightrec if flightrec is not None else NULL_FLIGHTREC
        self.config = config if config is not None else ObservabilityConfig()

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.metrics.enabled
            or self.flightrec.enabled
        )

    def profile(self, name: str, **fields: Any) -> ContextManager[Any]:
        """Time a block into a span record and a ``<name>_seconds``
        histogram; returns the shared no-op singleton when disabled."""
        if not self.enabled:
            return NULL_PROFILE
        return ProfiledBlock(self, name, fields)

    def flush(self) -> None:
        self.tracer.flush()

    def close(self) -> None:
        if self.tracer is not NULL_TRACER:
            self.tracer.close()

    def write_metrics(self, path: str) -> Dict[str, Any]:
        """Dump the current metrics snapshot as JSON to ``path``."""
        snapshot = self.metrics.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return snapshot


def build(
    config: ObservabilityConfig,
    trace_buffer: Optional[List[Dict[str, Any]]] = None,
) -> Observability:
    """Construct a fresh :class:`Observability` from a config.

    With ``flight_records`` set, the flight recorder is attached to the
    tracer as a ring sink: span/event records land in the bounded ring
    even when no trace file is configured, so dead-process post-mortems
    do not require full tracing."""
    flightrec = (
        FlightRecorder(
            capacity=config.flight_records, directory=config.flight_dir
        )
        if config.flight_records > 0
        else NULL_FLIGHTREC
    )
    ring = flightrec if flightrec.enabled else None
    tracer = (
        Tracer(path=config.trace_path, buffer=trace_buffer, ring=ring)
        if (
            config.trace_path is not None
            or trace_buffer is not None
            or ring is not None
        )
        else NULL_TRACER
    )
    metrics = MetricsRegistry() if config.metrics else NULL_METRICS
    return Observability(tracer, metrics, config, flightrec)


_DISABLED = Observability()
_current: Observability = _DISABLED


def get_observability() -> Observability:
    """The process-global observability (disabled by default)."""
    return _current


def set_observability(obs: Observability) -> Observability:
    """Swap the process-global observability; returns the previous one.

    Never closes the previous instance — under the ``fork`` start method
    a worker inherits the parent's instance, and closing it would flush
    the inherited file-buffer copy into the parent's trace file."""
    global _current
    previous = _current
    _current = obs
    return previous


def configure(
    trace_path: Optional[str] = None,
    metrics: bool = True,
    trace_buffer: Optional[List[Dict[str, Any]]] = None,
    flight_records: int = 0,
    flight_dir: str = ".",
) -> Observability:
    """Enable observability process-wide and return the instance."""
    obs = build(
        ObservabilityConfig(
            trace_path=trace_path,
            metrics=metrics,
            flight_records=flight_records,
            flight_dir=flight_dir,
        ),
        trace_buffer=trace_buffer,
    )
    set_observability(obs)
    return obs


def configure_worker(
    config: ObservabilityConfig, worker_id: int
) -> Observability:
    """Install a fresh, isolated observability in a worker process:
    a sibling trace file, an empty metrics registry and its own flight
    recorder (never the parent's inherited state). With flight
    recording on, a SIGTERM handler turns a parent-side watchdog kill
    into a ``flight-<pid>.jsonl`` post-mortem dump."""
    worker_config = replace(
        config, trace_path=worker_trace_path(config.trace_path, worker_id)
    )
    obs = build(worker_config)
    set_observability(obs)
    if obs.flightrec.enabled:
        obs.flightrec.install_signal_handler()
    return obs


def current_config() -> ObservabilityConfig:
    """The picklable config describing the current global state."""
    return _current.config


def disable() -> None:
    """Flush and drop the process-global observability."""
    global _current
    if _current is not _DISABLED:
        _current.close()
    _current = _DISABLED


#: Exporter started by the env bootstrap (kept referenced so its daemon
#: thread and bound socket live for the life of the process).
_bootstrap_exporter: Optional[Any] = None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "")
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _bootstrap_from_env() -> None:
    """Zero-code-change enablement for CI and services: ``GOOFI_TRACE``
    (trace file), ``GOOFI_METRICS`` (metrics registry),
    ``GOOFI_FLIGHT_RECORDS`` (flight-recorder ring capacity) and
    ``GOOFI_METRICS_PORT`` (OpenMetrics exporter; ``0`` binds an
    ephemeral port, logged via ``GOOFI_METRICS_PORT_FILE`` when set)."""
    global _bootstrap_exporter
    trace_path = os.environ.get("GOOFI_TRACE") or None
    metrics = os.environ.get("GOOFI_METRICS", "") not in ("", "0", "false")
    flight_records = _env_int("GOOFI_FLIGHT_RECORDS") or 0
    port = _env_int("GOOFI_METRICS_PORT")
    if port is not None:
        metrics = True  # an exporter without a registry would serve nothing
    if trace_path is not None or metrics or flight_records > 0:
        configure(
            trace_path=trace_path,
            metrics=metrics,
            flight_records=flight_records,
            flight_dir=os.environ.get("GOOFI_FLIGHT_DIR", "."),
        )
    if port is not None:
        _bootstrap_exporter = start_exporter(port=port)
        port_file = os.environ.get("GOOFI_METRICS_PORT_FILE")
        if port_file:
            try:
                with open(port_file, "w", encoding="utf-8") as handle:
                    handle.write(str(_bootstrap_exporter.port) + "\n")
            except OSError:  # pragma: no cover - best-effort port report
                pass


_bootstrap_from_env()
