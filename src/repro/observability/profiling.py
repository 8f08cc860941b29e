"""Context-manager profiling hooks: one timer, two sinks.

:meth:`repro.observability.Observability.profile` times a block with a
:class:`ProfiledBlock`, which lands the duration in *both*
observability surfaces at once: a span record ``name`` in the tracer
(when tracing) and an observation in the ``<name>_seconds`` histogram
(when metrics are on). Fully disabled observability returns the shared
no-op :data:`NULL_PROFILE`, so the hook can stay in hot paths
permanently.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.observability import Observability

__all__ = ["NULL_PROFILE", "ProfiledBlock"]


class _NullProfile:
    """Shared no-op context manager for disabled observability."""

    __slots__ = ()

    def __enter__(self) -> "_NullProfile":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_PROFILE = _NullProfile()


class ProfiledBlock:
    """Times a block into a tracer span and a timing histogram."""

    __slots__ = ("_tracer", "_metrics", "_name", "_fields", "_ts", "_t0")

    def __init__(self, obs: "Observability", name: str,
                 fields: Dict[str, Any]):
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        self._name = name
        self._fields = fields
        self._ts = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "ProfiledBlock":
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._t0
        if self._metrics.enabled:
            self._metrics.histogram(self._name + "_seconds").observe(duration)
        if self._tracer.enabled:
            fields = self._fields
            if exc_type is not None:
                fields = dict(fields)
                fields["exc_type"] = exc_type.__name__
            self._tracer.emit_span(self._name, self._ts, duration, fields)
        return False

