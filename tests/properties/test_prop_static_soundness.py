"""Soundness of the static liveness oracle against the dynamic one.

The static analysis contract (DESIGN.md): for every (location, time)
pair, ``dynamic.is_live`` implies ``static.is_live`` — the trace-free
over-approximation may keep dead pairs, but must never prune a live one.
Violations would make static/hybrid pre-injection pruning skip faults
that *can* propagate, silently biasing campaign statistics.

Exercised for **every bundled workload** over a deterministic sample of
the interesting location classes: register-file bits, the PSR, PC, IR
and the workload's memory words.
"""

import pytest

from repro.core.campaign import CampaignData, EnvironmentSpec
from repro.core.framework import create_target
from repro.core.locations import FaultLocation
from repro.core.preinjection import (
    HybridPreInjectionAnalysis,
    PreInjectionAnalysis,
)
from repro.staticanalysis import StaticPreInjectionAnalysis
from repro.util.sampling import iter_pairs
from repro.workloads import available_workloads

MAX_PAIRS = 1500


def _campaign(workload):
    kwargs = dict(
        campaign_name=f"soundness-{workload}",
        technique="scifi",
        workload_name=workload,
        location_patterns=["scan:internal/cpu.regfile.*"],
        n_experiments=1,
        seed=7,
    )
    if workload == "pid-control":
        kwargs["environment"] = EnvironmentSpec(
            name="inverted-pendulum", params={"initial": 0.2}
        )
        kwargs["max_iterations"] = 50
    return CampaignData(**kwargs)


def _oracles(workload):
    target = create_target("thor-rd")
    target.read_campaign_data(_campaign(workload))
    reference = target.make_reference_run()
    space = target.location_space()
    dynamic = PreInjectionAnalysis.from_trace(reference.trace, space)
    static = StaticPreInjectionAnalysis(
        target.workload_program(), duration=reference.duration_cycles
    )
    return target, reference, dynamic, static


def _sample_locations(target):
    """Register bits, every PSR bit, PC, IR, and memory words of the
    workload (code words first: the dynamic oracle reads each fetch)."""
    space = target.location_space()
    locations = [
        FaultLocation("scan:internal", f"cpu.regfile.r{n}", bit)
        for n in range(16)
        for bit in (0, 15)
    ]
    locations += [
        FaultLocation("scan:internal", "cpu.psr", bit) for bit in range(5)
    ]
    locations += [
        FaultLocation("scan:internal", "cpu.pc", 0),
        FaultLocation("scan:internal", "cpu.pipeline.ir", 0),
    ]
    memory_cells = [
        cell
        for cell in space.cells()
        if cell.space.startswith("memory:")
    ]
    for cell in memory_cells[:40]:
        locations.append(FaultLocation(cell.space, cell.path, 0))
    return locations


@pytest.mark.parametrize("workload", available_workloads())
def test_static_overapproximates_dynamic(workload):
    target, reference, dynamic, static = _oracles(workload)
    locations = _sample_locations(target)
    duration = reference.duration_cycles
    step = max(1, duration // 60)
    times = list(range(1, duration + 1, step)) + [duration]

    violations = [
        (location.key(), t)
        for location, t in iter_pairs(locations, times, MAX_PAIRS)
        if dynamic.is_live(location, t) and not static.is_live(location, t)
    ]
    assert violations == [], (
        f"static oracle pruned live pairs for {workload}: {violations[:10]}"
    )


@pytest.mark.parametrize("workload", ["vecsum", "bubblesort"])
def test_hybrid_equals_dynamic(workload):
    """Given soundness, static AND dynamic == dynamic."""
    target, reference, dynamic, static = _oracles(workload)
    hybrid = HybridPreInjectionAnalysis(static, dynamic)
    locations = _sample_locations(target)
    times = list(range(1, reference.duration_cycles + 1, 13))
    for location, t in iter_pairs(locations, times, 600):
        assert hybrid.is_live(location, t) == dynamic.is_live(location, t)
    assert hybrid.disagreements(locations, times, max_samples=600) == []
