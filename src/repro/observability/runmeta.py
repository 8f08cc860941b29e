"""Run provenance: who ran what, with which seeds, and what came out.

The paper's Figure-4 schema keys every logged state to a campaign row
and every re-run to its parent experiment. :class:`RunMeta` extends
that provenance chain to *runs*: one schema-versioned row per campaign
execution recording the tool version, the RNG seed, a content hash of
the campaign configuration, the worker count, and — once the run ends —
the final state and metrics snapshot. Re-running an analysis months
later, the RunMeta row answers "was this the same code, the same
config, the same seeds?" without trusting the filesystem.

Storage lives in :mod:`repro.db` (the ``RunMeta`` table,
``record_run_start`` / ``record_run_end`` / ``list_runs``); this module
owns the value object, the config hash, and the text rendering used by
``goofi-metrics runs`` / ``goofi-metrics show``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "RUNMETA_SCHEMA_VERSION",
    "RunMeta",
    "campaign_config_hash",
    "render_run",
    "render_runs",
    "tool_version",
]

#: Version of the RunMeta row contract (bumped when fields change).
#: v2 adds the campaign-fabric provenance tags ``job_id`` / ``tenant``;
#: the fabric is retired, so rows written since leave them ``None``.
RUNMETA_SCHEMA_VERSION = 2


def tool_version() -> str:
    """The version of this GOOFI reproduction, for provenance rows."""
    try:
        import repro

        return str(getattr(repro, "__version__", "unknown"))
    except ImportError:  # pragma: no cover - repro is always importable here
        return "unknown"


def campaign_config_hash(campaign: Any) -> str:
    """Content hash of a campaign definition: sha256 over its canonical
    JSON form, so two runs hash equal iff every knob (workload,
    locations, fault model, trigger, seeds, …) was identical."""
    text = campaign.to_json()
    # Canonicalise: parse and re-dump with sorted keys, so the hash does
    # not depend on dataclass field order across versions.
    canonical = json.dumps(json.loads(text), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunMeta:
    """One campaign execution's provenance row."""

    campaign_name: str
    seed: int
    config_hash: str
    n_workers: int = 1
    n_experiments: int = 0
    tool_version: str = field(default_factory=tool_version)
    state: str = "running"
    started_at: str = ""
    finished_at: Optional[str] = None
    meta_version: int = RUNMETA_SCHEMA_VERSION
    metrics_snapshot: Optional[Dict[str, Any]] = None
    run_id: Optional[int] = None
    #: Campaign-fabric provenance: the job this run executed for, and
    #: the tenant that submitted it. Only rows the retired fabric
    #: (``goofi serve``) wrote carry them; ``None`` everywhere else.
    job_id: Optional[str] = None
    tenant: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "campaign_name": self.campaign_name,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "n_workers": self.n_workers,
            "n_experiments": self.n_experiments,
            "tool_version": self.tool_version,
            "state": self.state,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "meta_version": self.meta_version,
            "metrics_snapshot": self.metrics_snapshot,
            "job_id": self.job_id,
            "tenant": self.tenant,
        }


def render_runs(runs: List[RunMeta]) -> str:
    """The ``goofi-metrics runs`` table."""
    lines = [
        f"{'run':>5s} {'campaign':24s} {'state':10s} {'seed':>10s} "
        f"{'workers':>7s} {'exps':>6s} {'config':12s} {'started':19s}"
    ]
    for run in runs:
        lines.append(
            f"{run.run_id if run.run_id is not None else '-':>5} "
            f"{run.campaign_name:24s} {run.state:10s} {run.seed:>10d} "
            f"{run.n_workers:>7d} {run.n_experiments:>6d} "
            f"{run.config_hash[:12]:12s} {run.started_at[:19]:19s}"
        )
    if len(lines) == 1:
        lines.append("(no runs recorded)")
    return "\n".join(lines)


def render_run(run: RunMeta) -> str:
    """The ``goofi-metrics show`` detail block for one run."""
    lines = [
        f"run:          {run.run_id}",
        f"campaign:     {run.campaign_name}",
        f"state:        {run.state}",
        f"tool version: {run.tool_version}",
        f"seed:         {run.seed}",
        f"config hash:  {run.config_hash}",
        f"workers:      {run.n_workers}",
        f"experiments:  {run.n_experiments}",
        f"started:      {run.started_at}",
        f"finished:     {run.finished_at or '-'}",
        f"meta version: {run.meta_version}",
    ]
    if run.job_id is not None:
        lines.append(f"fabric job:   {run.job_id}")
        lines.append(f"tenant:       {run.tenant or '-'}")
    snapshot = run.metrics_snapshot
    if snapshot:
        from repro.observability.report import render_metrics

        lines.append("final metrics snapshot:")
        for line in render_metrics(snapshot).splitlines():
            lines.append("  " + line)
    return "\n".join(lines)
