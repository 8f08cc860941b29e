"""Sequential stopping advice for running campaigns.

ZOFI-style campaign sizing (PAPERS.md): a campaign should stop as soon
as the confidence interval around the figure it exists to measure is
tight enough, not after an a-priori experiment count. The advisor folds
the current sample into a simple rule —

    stop when the CI half-width ≤ ε at confidence c

— and, while the target is not yet met, estimates how many more trials
the normal-approximation sample-size formula says are needed. The
streaming analytics engine recomputes this per batch and exports the
half-width as the live ``analysis.ci_half_width`` gauge, so the health
monitor can show "how close to done is the *statistics*" next to "how
close to done is the *row count*".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.analysis.coverage import wilson_interval
from repro.analysis.faultspace import required_experiments

__all__ = ["StoppingAdvice", "stopping_advice"]


@dataclass(frozen=True)
class StoppingAdvice:
    """Whether a campaign's interval is tight enough to stop."""

    metric: str
    successes: int
    trials: int
    estimate: float
    half_width: float
    target_half_width: float
    confidence: float
    satisfied: bool
    #: Estimated further trials (of the same denominator) needed to
    #: reach the target half-width; 0 once satisfied.
    additional_trials: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "successes": self.successes,
            "trials": self.trials,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "target_half_width": self.target_half_width,
            "confidence": self.confidence,
            "satisfied": self.satisfied,
            "additional_trials": self.additional_trials,
        }

    def describe(self) -> str:
        verdict = (
            "stop: interval is tight enough"
            if self.satisfied
            else f"continue: ~{self.additional_trials} more trials needed"
        )
        return (
            f"{self.metric}: half-width {self.half_width:.4f} vs target "
            f"{self.target_half_width:.4f} @{self.confidence:.0%} "
            f"({self.successes}/{self.trials}) -> {verdict}"
        )


def stopping_advice(
    successes: int,
    trials: int,
    target_half_width: float = 0.05,
    confidence: float = 0.95,
    metric: str = "detection_coverage",
) -> StoppingAdvice:
    """Evaluate the sequential stopping rule for one proportion.

    The half-width is taken from the Wilson interval (the same interval
    the reports quote), so the advice and the displayed interval can
    never disagree. With no trials yet the half-width is the vacuous
    0.5 and the advisor asks for the worst-case ``p = 0.5`` sample size.
    """
    if not 0.0 < target_half_width < 1.0:
        raise ValueError(
            f"target half-width must be in (0, 1): {target_half_width}"
        )
    lo, hi = wilson_interval(successes, trials, confidence)
    half_width = (hi - lo) / 2.0
    estimate = successes / trials if trials else 0.0
    satisfied = trials > 0 and half_width <= target_half_width
    if satisfied:
        additional = 0
    else:
        # Planning estimate: clamp p away from the boundary so a lucky
        # early 0/5 never claims one more experiment will do.
        p = estimate if trials else 0.5
        p = min(max(p, 0.05), 0.95)
        needed = required_experiments(p, target_half_width, confidence)
        additional = max(1, needed - trials)
    return StoppingAdvice(
        metric=metric,
        successes=successes,
        trials=trials,
        estimate=estimate,
        half_width=half_width,
        target_half_width=target_half_width,
        confidence=confidence,
        satisfied=satisfied,
        additional_trials=additional,
    )
