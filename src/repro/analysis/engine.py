"""Streaming campaign analytics (the ``goofi analyze`` backend).

The paper's analysis phase runs after a campaign finishes, over the full
result set, with tailor-made scripts. This engine instead consumes
experiment rows in batched read-only cursors
(:meth:`repro.db.database.GoofiDatabase.iter_experiments` over a
``mode=ro`` WAL connection), so a report can be computed *while the
campaign is still running* without ever blocking the writer, in O(1)
memory per row.

One pass accumulates everything the report needs:

* the outcome mix (Section 3.4 taxonomy) with both Wilson and exact
  Clopper-Pearson intervals on detection coverage and effectiveness;
* coverage broken down by fault-location cell and by injection
  technique (fault-model operation);
* a location × injection-time heatmap of effective errors and, when
  detail rows are present, a state-cell × execution-time
  error-propagation heatmap;
* equivalence accounting (executed vs. statically derived rows);
* sequential stopping advice (stop when the detection-coverage CI
  half-width ≤ ε at confidence c), also exported live through the
  ``analysis.ci_half_width`` gauge.

Reports serialise deterministically (:meth:`CampaignReport.to_dict`
contains no timestamps or wall-clock figures), so two ``--json``
reports of the same database state compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Set

from repro.analysis.classify import (
    CampaignClassification,
    Outcome,
    classify_experiment,
)
from repro.analysis.coverage import CoverageEstimate
from repro.analysis.heatmap import OutcomeHeatmap, PropagationHeatmap, _cell_of
from repro.analysis.intervals import clopper_pearson_interval
from repro.analysis.report import render_campaign_report, report_to_dict
from repro.analysis.stopping import StoppingAdvice, stopping_advice
from repro.observability.runmeta import campaign_config_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db imports us not)
    from repro.db.database import GoofiDatabase

__all__ = ["CampaignReport", "analyze_campaign"]


def _group_stats() -> Dict[str, int]:
    return {"total": 0, "effective": 0, "detected": 0}


@dataclass
class CampaignReport:
    """Everything one streaming pass over a campaign produced."""

    campaign_name: str
    config_hash: str
    confidence: float
    target_half_width: float
    summary: CampaignClassification
    stopping: StoppingAdvice
    heatmap: OutcomeHeatmap
    propagation: PropagationHeatmap
    #: location cell -> {total, effective, detected}
    by_location: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: injection technique (fault-model op) -> {total, effective, detected}
    by_technique: Dict[str, Dict[str, int]] = field(default_factory=dict)
    n_executed: int = 0
    n_derived: int = 0
    n_representatives: int = 0

    @property
    def total(self) -> int:
        return self.summary.total

    def _exact(self, successes: int, trials: int) -> List[float]:
        return list(
            clopper_pearson_interval(successes, trials, self.confidence)
        )

    @staticmethod
    def _breakdown(
        groups: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for label in sorted(groups):
            stats = groups[label]
            effective = stats["effective"]
            out[label] = {
                "total": stats["total"],
                "effective": effective,
                "detected": stats["detected"],
                "detection_coverage": (
                    stats["detected"] / effective if effective else 0.0
                ),
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        base = report_to_dict(
            self.campaign_name, self.summary, self.confidence
        )
        base["detection_coverage"]["exact_interval"] = self._exact(
            self.summary.detected, self.summary.effective
        )
        base["effectiveness_ratio"]["exact_interval"] = self._exact(
            self.summary.effective, self.summary.total
        )
        base.update(
            {
                "config_hash": self.config_hash,
                "equivalence": {
                    "executed": self.n_executed,
                    "derived": self.n_derived,
                    "representatives": self.n_representatives,
                    "derived_fraction": (
                        self.n_derived / self.total if self.total else 0.0
                    ),
                },
                "by_location": self._breakdown(self.by_location),
                "by_technique": self._breakdown(self.by_technique),
                "heatmap": self.heatmap.to_dict(),
                "propagation": self.propagation.to_dict(),
                "stopping": self.stopping.to_dict(),
            }
        )
        return base

    def render(self) -> str:
        lines = [
            render_campaign_report(
                self.campaign_name, self.summary, self.confidence
            )
        ]
        detection = CoverageEstimate(
            self.summary.detected, self.summary.effective, self.confidence
        )
        exact = self._exact(self.summary.detected, self.summary.effective)
        lines.append(
            f"exact (Clopper-Pearson) detection coverage: "
            f"{detection.estimate:.3f} [{exact[0]:.3f}, {exact[1]:.3f}] "
            f"@{self.confidence:.0%}"
        )
        lines.append(
            f"equivalence: {self.n_executed} executed + {self.n_derived} "
            f"derived from {self.n_representatives} representatives"
        )
        lines.append(f"config hash: {self.config_hash[:16]}…")
        lines.append(f"stopping advice: {self.stopping.describe()}")
        if self.by_technique:
            lines.append("")
            lines.append(
                f"{'technique':24s} {'total':>6s} {'effect':>7s} "
                f"{'detect':>7s} {'cov':>7s}"
            )
            for label, row in self._breakdown(self.by_technique).items():
                lines.append(
                    f"{label:24s} {row['total']:6d} {row['effective']:7d} "
                    f"{row['detected']:7d} {row['detection_coverage']:6.1%}"
                )
        lines.append("")
        lines.append(self.heatmap.render())
        if self.propagation.n_traces:
            lines.append("")
            lines.append(self.propagation.render())
        return "\n".join(lines)


def _update_gauges(detected: int, effective: int, rows: int,
                   confidence: float) -> None:
    """Export live analytics state; no-ops when observability is off."""
    from repro.observability import get_observability

    metrics = get_observability().metrics
    if not metrics.enabled:
        return
    half = stopping_advice(detected, effective, 0.5, confidence).half_width
    metrics.gauge("analysis.ci_half_width").set(half)
    metrics.gauge("analysis.rows_processed").set(rows)


def analyze_campaign(
    db: "GoofiDatabase",
    campaign_name: str,
    *,
    confidence: float = 0.95,
    epsilon: float = 0.05,
    batch_size: int = 512,
    time_bins: int = 12,
    max_rows: int = 16,
    max_detail_traces: int = 32,
) -> CampaignReport:
    """One streaming pass over ``campaign_name``'s logged experiments.

    Safe against a live writer: run it on a ``readonly=True`` database
    handle and it sees the last committed WAL snapshot. ``epsilon`` is
    the sequential-stopping target half-width for detection coverage.
    """
    reference = db.load_reference(campaign_name)
    config_hash = campaign_config_hash(db.load_campaign(campaign_name))
    max_time = max(1, reference.duration_cycles)

    summary = CampaignClassification()
    heatmap = OutcomeHeatmap(max_time, time_bins=time_bins, max_rows=max_rows)
    propagation = PropagationHeatmap(time_bins=time_bins, max_rows=max_rows)
    by_location: Dict[str, Dict[str, int]] = {}
    by_technique: Dict[str, Dict[str, int]] = {}
    representatives: Set[str] = set()
    n_derived = 0
    detail_traces = 0

    for result in db.iter_experiments(campaign_name, batch_size=batch_size):
        classification = classify_experiment(result, reference)
        outcome = classification.outcome
        summary.total += 1
        summary.counts[outcome] = summary.counts.get(outcome, 0) + 1
        if outcome is Outcome.DETECTED:
            summary.detections_by_mechanism[classification.mechanism] = (
                summary.detections_by_mechanism.get(
                    classification.mechanism, 0
                )
                + 1
            )
        if result.derived_from is not None:
            n_derived += 1
            representatives.add(result.derived_from)
        if result.injections:
            injection = result.injections[0]
            key = injection.location.key()
            heatmap.add(
                key,
                injection.time,
                outcome.is_effective,
                outcome is Outcome.DETECTED,
            )
            for groups, label in (
                (by_location, _cell_of(key)),
                (by_technique, injection.op),
            ):
                stats = groups.setdefault(label, _group_stats())
                stats["total"] += 1
                if outcome.is_effective:
                    stats["effective"] += 1
                if outcome is Outcome.DETECTED:
                    stats["detected"] += 1
        if (
            detail_traces < max_detail_traces
            and result.detail_states
            and reference.detail_states
        ):
            propagation.add_trace(reference.detail_states, result.detail_states)
            detail_traces += 1
        if summary.total % batch_size == 0:
            _update_gauges(
                summary.detected, summary.effective, summary.total, confidence
            )

    advice = stopping_advice(
        summary.detected,
        summary.effective,
        target_half_width=epsilon,
        confidence=confidence,
    )
    _emit_final_metrics(advice, summary.total)
    return CampaignReport(
        campaign_name=campaign_name,
        config_hash=config_hash,
        confidence=confidence,
        target_half_width=epsilon,
        summary=summary,
        stopping=advice,
        heatmap=heatmap,
        propagation=propagation,
        by_location=by_location,
        by_technique=by_technique,
        n_executed=summary.total - n_derived,
        n_derived=n_derived,
        n_representatives=len(representatives),
    )


def _emit_final_metrics(advice: StoppingAdvice, rows: int) -> None:
    from repro.observability import get_observability

    metrics = get_observability().metrics
    if not metrics.enabled:
        return
    metrics.gauge("analysis.ci_half_width").set(advice.half_width)
    metrics.gauge("analysis.rows_processed").set(rows)
    metrics.counter("analysis.reports_total").inc()
