"""Campaign data: everything needed to conduct a fault-injection campaign.

This mirrors the paper's ``CampaignData`` database table: target system,
workload, fault locations, fault model, number of experiments, injection
trigger, termination conditions, logging mode and environment-simulator
binding. The set-up phase (Section 3.2) creates these records; the
fault-injection phase replays them. Campaign data is a plain declarative
value object — (de)serializable to JSON for storage in the database.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.preinjection import PREINJECTION_MODES
from repro.core.triggers import TriggerSpec
from repro.util.errors import ConfigurationError


@dataclass
class FaultModelSpec:
    """Declarative fault-model description (see repro.core.faultmodels)."""

    kind: str = "transient"  # "transient" | "intermittent" | "permanent"
    multiplicity: int = 1
    burst_length: int = 3
    burst_spacing: int = 50
    stuck_value: int = 0
    reassert_interval: int = 200

    VALID_KINDS = ("transient", "intermittent", "permanent")

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ConfigurationError(f"unknown fault model kind {self.kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "FaultModelSpec":
        return FaultModelSpec(**data)


@dataclass
class EnvironmentSpec:
    """Binding to a user-provided environment simulator (Section 3.2):
    which simulator program to use and the memory windows for the data
    exchange at each loop iteration."""

    name: str = ""
    params: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "EnvironmentSpec":
        return EnvironmentSpec(**data)


@dataclass
class CampaignData:
    """One row of the CampaignData table, as a typed object."""

    campaign_name: str
    target_name: str = "thor-rd"
    technique: str = "scifi"
    workload_name: str = "bubblesort"
    workload_params: Dict[str, int] = field(default_factory=dict)
    location_patterns: List[str] = field(
        default_factory=lambda: ["scan:internal/cpu.regfile.*"]
    )
    fault_model: FaultModelSpec = field(default_factory=FaultModelSpec)
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    n_experiments: int = 100
    seed: int = 1
    # Termination conditions: cycle budget (None = derived from the
    # reference run) and, for infinite-loop workloads, the maximum number
    # of loop iterations before the experiment is terminated.
    timeout_cycles: Optional[int] = None
    timeout_factor: float = 3.0
    max_iterations: Optional[int] = None
    logging_mode: str = "normal"  # "normal" | "detail"
    observe_patterns: List[str] = field(
        default_factory=lambda: [
            "scan:internal/cpu.regfile.*",
            "scan:internal/cpu.pc",
            "scan:internal/cpu.psr",
        ]
    )
    environment: Optional[EnvironmentSpec] = None
    use_preinjection: bool = False
    # How the pre-injection liveness oracle is built when
    # use_preinjection is set: from the reference trace ("dynamic"), from
    # static CFG/liveness analysis of the program image ("static" — no
    # trace needed), the intersection of both ("hybrid"), or static
    # analysis plus def-use equivalence collapsing ("equivalence": plans
    # exactly like "static" but executes one experiment per provable
    # equivalence class and derives the rest).
    preinjection_mode: str = "dynamic"
    # Optional software EDM: write-protect the workload's code image so
    # fault-induced wild stores into code are detected instead of
    # silently corrupting instructions.
    protect_code: bool = False
    # Golden-run warm starts: capture checkpoints along the reference
    # run and restore the nearest one at or before the first injection
    # time instead of re-simulating the pre-injection prefix. Applies to
    # scifi/simfi/pinlevel on ports implementing the checkpoint blocks;
    # detail-mode runs and the SWIFI techniques always take the cold
    # path. Warm and cold runs are byte-identical (property-tested), so
    # this is on by default.
    warm_start: bool = True
    # Capture cadence along the reference run, in target cycles; None
    # uses repro.core.checkpoint.DEFAULT_CHECKPOINT_INTERVAL.
    checkpoint_interval: Optional[int] = None
    # Fidelity knob for SCIFI scan access: shift *all* scan chains on
    # every injection action (the paper's literal read-modify-write of
    # the whole serialized state) instead of only the chains the action
    # touches. Outcomes are identical either way — untouched chains
    # round-trip unchanged — only the scan-cycle accounting differs.
    full_scan_shift: bool = False

    VALID_TECHNIQUES = (
        "scifi", "swifi-pre", "swifi-runtime", "simfi", "pinlevel"
    )
    VALID_LOGGING = ("normal", "detail")

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.campaign_name:
            raise ConfigurationError("campaign_name must not be empty")
        if self.technique not in self.VALID_TECHNIQUES:
            raise ConfigurationError(f"unknown technique {self.technique!r}")
        if self.logging_mode not in self.VALID_LOGGING:
            raise ConfigurationError(
                f"unknown logging mode {self.logging_mode!r}"
            )
        if self.n_experiments < 1:
            raise ConfigurationError(
                f"n_experiments must be >= 1, got {self.n_experiments}"
            )
        if not self.location_patterns:
            raise ConfigurationError("campaign selects no fault locations")
        if self.timeout_cycles is not None and self.timeout_cycles <= 0:
            raise ConfigurationError("timeout_cycles must be positive")
        if self.timeout_factor <= 1.0:
            raise ConfigurationError("timeout_factor must exceed 1.0")
        if self.preinjection_mode not in PREINJECTION_MODES:
            raise ConfigurationError(
                f"unknown pre-injection mode {self.preinjection_mode!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "campaign_name": self.campaign_name,
            "target_name": self.target_name,
            "technique": self.technique,
            "workload_name": self.workload_name,
            "workload_params": self.workload_params,
            "location_patterns": self.location_patterns,
            "fault_model": self.fault_model.to_dict(),
            "trigger": self.trigger.to_dict(),
            "n_experiments": self.n_experiments,
            "seed": self.seed,
            "timeout_cycles": self.timeout_cycles,
            "timeout_factor": self.timeout_factor,
            "max_iterations": self.max_iterations,
            "logging_mode": self.logging_mode,
            "observe_patterns": self.observe_patterns,
            "environment": self.environment.to_dict() if self.environment else None,
            "use_preinjection": self.use_preinjection,
            "preinjection_mode": self.preinjection_mode,
            "protect_code": self.protect_code,
            "warm_start": self.warm_start,
            "checkpoint_interval": self.checkpoint_interval,
            "full_scan_shift": self.full_scan_shift,
        }

    @staticmethod
    def from_dict(data: dict) -> "CampaignData":
        data = dict(data)
        data["fault_model"] = FaultModelSpec.from_dict(data["fault_model"])
        data["trigger"] = TriggerSpec.from_dict(data["trigger"])
        env = data.get("environment")
        data["environment"] = EnvironmentSpec.from_dict(env) if env else None
        return CampaignData(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CampaignData":
        return CampaignData.from_dict(json.loads(text))

    # -- set-up phase operations (Section 3.2) ---------------------------------

    def modified(self, **changes) -> "CampaignData":
        """A copy with fields replaced — the set-up window's "modify
        already stored campaign data" operation."""
        data = self.to_dict()
        for key, value in changes.items():
            if key not in data:
                raise ConfigurationError(f"unknown campaign field {key!r}")
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            data[key] = value
        result = CampaignData.from_dict(data)
        return result

    @staticmethod
    def merge(
        new_name: str, campaigns: Sequence["CampaignData"]
    ) -> "CampaignData":
        """Merge several campaigns into a new one (set-up window feature).

        All source campaigns must share target, technique and workload;
        the merge unions their fault-location selections and sums their
        experiment counts.
        """
        if not campaigns:
            raise ConfigurationError("merge needs at least one campaign")
        first = campaigns[0]
        for other in campaigns[1:]:
            if (
                other.target_name != first.target_name
                or other.technique != first.technique
                or other.workload_name != first.workload_name
            ):
                raise ConfigurationError(
                    "merged campaigns must share target, technique and workload"
                )
        patterns: List[str] = []
        for campaign in campaigns:
            for pattern in campaign.location_patterns:
                if pattern not in patterns:
                    patterns.append(pattern)
        merged = first.modified(
            campaign_name=new_name,
            location_patterns=patterns,
            n_experiments=sum(c.n_experiments for c in campaigns),
        )
        return merged
