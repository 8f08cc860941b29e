"""Property test: warm-started experiments are byte-identical to cold.

The warm-start correctness gate (E13): for any campaign shape, running
with ``warm_start=True`` (checkpoint restore at the latest capture
strictly before the first injection time) must produce exactly the results of
``warm_start=False`` (the paper's cold start-from-reset path) — same
injections, same terminations, same outputs, same observed state — for
every technique, seed and workload. The only tolerated difference is
the wall-clock field, which is nondeterministic in both modes.

Hypothesis drives technique, seed, campaign size and checkpoint
cadence; the invariant is exact equality of the canonicalised results.
The same gate covers the acceleration stacked on top of warm starts:
rows derived at the liveness exit must be byte-identical to the plain
run-to-termination tail, over location sets that reach every cell kind
the liveness exit judges.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import create_target
from repro.core.campaign import FaultModelSpec
from tests.conftest import make_campaign

#: Warm-eligible techniques plus swifi-runtime (always cold by design —
#: included to pin down that the flag is a no-op there, not a crash).
_TECHNIQUE_PATTERNS = {
    "scifi": ["scan:internal/cpu.regfile.*"],
    "simfi": ["scan:internal/cpu.regfile.*", "memory:data/*"],
    "pinlevel": ["scan:boundary/pins.data_bus"],
    "swifi-runtime": ["memory:data/*"],
}

#: The location sets the early-exit gate draws from: every cell kind the
#: liveness exit judges (registers, PSR bits, cache arrays) and the ones
#: it must leave live (memory words, code included; pins).
_EXIT_PATTERNS = {
    "scifi": [
        ["scan:internal/cpu.regfile.*"],
        ["scan:internal/cpu.regfile.*", "scan:internal/cpu.psr"],
        ["scan:internal/cpu.psr"],
        ["scan:internal/dcache.*"],
        ["scan:internal/icache.*"],
    ],
    "simfi": [
        ["scan:internal/cpu.regfile.*", "memory:data/*"],
        ["memory:code/*"],
    ],
    "pinlevel": [_TECHNIQUE_PATTERNS["pinlevel"]],
    "swifi-runtime": [_TECHNIQUE_PATTERNS["swifi-runtime"]],
}

campaign_shapes = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(sorted(_TECHNIQUE_PATTERNS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_experiments": st.integers(min_value=1, max_value=6),
        "workload_name": st.sampled_from(["vecsum", "bubblesort"]),
        "checkpoint_interval": st.sampled_from([None, 64, 1000]),
    }
)

#: The fault models a plan-time derivation must follow: one or two bits
#: at one instant, a burst re-injecting one bit (each burst bit takes
#: the value the previous flip left, unless the run wrote it in
#: between) and a stuck-at fault re-asserted over the whole run.
_FAULT_MODELS = [
    FaultModelSpec(kind="transient"),
    FaultModelSpec(kind="transient", multiplicity=2),
    FaultModelSpec(kind="intermittent", burst_length=3, burst_spacing=40),
    FaultModelSpec(kind="permanent", stuck_value=1, reassert_interval=300),
]

#: quicksort's PUSH and POP reach the dcache outside the trace.
exit_shapes = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(sorted(_EXIT_PATTERNS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_experiments": st.integers(min_value=1, max_value=6),
        "workload_name": st.sampled_from(["vecsum", "bubblesort", "quicksort"]),
        "checkpoint_interval": st.sampled_from([None, 64, 1000]),
        "fault_model": st.sampled_from(_FAULT_MODELS),
    }
).flatmap(
    lambda shape: st.sampled_from(_EXIT_PATTERNS[shape["technique"]]).map(
        lambda patterns: dict(shape, location_patterns=patterns)
    )
)


def _canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        rows.append(data)
    return rows


def _run(shape, warm, plain=False):
    campaign = make_campaign(
        campaign_name="warm-prop",
        technique=shape["technique"],
        location_patterns=shape.get(
            "location_patterns", _TECHNIQUE_PATTERNS[shape["technique"]]
        ),
        seed=shape["seed"],
        n_experiments=shape["n_experiments"],
        workload_name=shape["workload_name"],
        checkpoint_interval=shape["checkpoint_interval"],
        warm_start=warm,
        fault_model=shape.get("fault_model", FaultModelSpec()),
    )
    target = create_target("thor-rd")
    if plain:
        # The paper's unaccelerated Figure-2 tail: no liveness exits
        # (goofi run --no-early-exit).
        target.early_exit = False
    sink = target.run_campaign(campaign)
    return _canonical(sink), target


class TestWarmColdEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=campaign_shapes)
    def test_warm_equals_cold(self, shape):
        cold, _ = _run(shape, warm=False)
        warm, target = _run(shape, warm=True)
        assert warm == cold
        if shape["technique"] in ("scifi", "simfi", "pinlevel"):
            # Warm eligibility: the reference run captured checkpoints.
            assert target._checkpoints is not None
            assert len(target._checkpoints) >= 1
        else:
            assert target._checkpoints is None

    @settings(
        max_examples=24,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=exit_shapes)
    def test_early_exit_equals_plain_tail(self, shape):
        """Liveness exits must be invisible in the logged rows: the
        default accelerated path is byte-identical to the plain
        run-to-termination tail for every technique, location set, seed,
        workload, checkpoint cadence and fault model."""
        accelerated, _ = _run(shape, warm=True)
        plain, _ = _run(shape, warm=True, plain=True)
        assert accelerated == plain

    def test_fixed_campaign_takes_liveness_exits(self):
        """One fixed shape must really exit at injection, so the gate
        above cannot pass by never taking the exit."""
        from repro.observability import configure, disable, get_observability

        shape = {
            "technique": "scifi",
            "seed": 11,
            "n_experiments": 6,
            "workload_name": "bubblesort",
            "checkpoint_interval": 64,
            "location_patterns": [
                "scan:internal/cpu.regfile.*",
                "scan:internal/cpu.psr",
                "scan:internal/dcache.*",
            ],
        }
        configure(metrics=True)
        try:
            accelerated, _ = _run(shape, warm=True)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        plain, _ = _run(shape, warm=True, plain=True)
        assert accelerated == plain
        assert counters.get("divergence.liveness_exits", 0) >= 1

    def test_warm_saves_simulated_cycles(self):
        """The restore really skips prefix simulation (counter check)."""
        from repro.observability import configure, disable, get_observability

        configure(metrics=True)
        try:
            campaign = make_campaign(
                campaign_name="warm-cycles",
                n_experiments=4,
                workload_name="bubblesort",
                warm_start=True,
            )
            create_target("thor-rd").run_campaign(campaign)
            snapshot = get_observability().metrics.snapshot()
            counters = snapshot.get("counters", snapshot)
            hits = counters.get("checkpoint.hits", 0)
            saved = counters.get("checkpoint.cycles_saved", 0)
            assert hits >= 1
            assert saved > 0
        finally:
            disable()
