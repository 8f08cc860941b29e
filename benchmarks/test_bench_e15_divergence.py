"""E15 — divergence-window early exit + outcome memoization wall time.

Regenerates: the acceleration study for the divergence-window subsystem
(``repro.core.divergence``). One SCIFI campaign in the regime the
window targets — an *early* fixed-time trigger into frequently
overwritten scratch registers, so the fault's architectural effect is
usually erased within a checkpoint interval and the run re-converges
with the golden execution for the long remaining tail — is executed
twice on fresh targets, both with ``warm_start=True``: once with the
divergence window and the outcome memo enabled (the default) and once
with both disabled (``goofi run --no-early-exit``; the plain warm-start
tail of E13). Results are compared field-for-field (modulo wall clock)
and the ``divergence.*`` counter family is captured from the
observability layer.

Shapes asserted:

* both legs classify every experiment identically (termination kind,
  injections, outputs, observed state) — the correctness gate: early
  exits synthesize the golden outcome and memo hits replay a recorded
  one, and neither may be distinguishable from full-tail execution;
* the accelerated leg takes a nonzero number of early exits and skips a
  nonzero number of simulated tail cycles (a liveness exit is a row
  derived from the golden run at plan time; repeated live plans replay
  from the memo, repeated dead ones are derived too);
* at full scale, the accelerated leg delivers >= 2x wall-clock speedup
  over the plain tail (the acceptance number; reduced-scale CI runs
  report the ratio without gating it on noisy shared runners —
  check_regression gates the recorded ``early_exit_speedup`` against
  the committed baseline instead).

Environment knobs:

* ``E15_TRIGGER_FRAC``  injection point as a fraction of the reference
                        duration (default 0.25 — early, so the skipped
                        tail dominates an experiment).

Emits ``BENCH_e15_divergence.json`` next to the repo root.
"""

import os
import time

from benchmarks.conftest import FULL_SCALE, scaled, write_bench_json
from repro.core import CampaignData, create_target
from repro.core.triggers import TriggerSpec
from repro.observability import configure, disable, get_observability

N_EXPERIMENTS = scaled(64)
TRIGGER_FRAC = float(os.environ.get("E15_TRIGGER_FRAC", "0.25"))

#: Large enough that the post-injection tail dominates an experiment.
WORKLOAD = "bubblesort"
WORKLOAD_PARAMS = {"n": 32}

#: Hot scratch registers of the bubblesort inner loop: every flip is
#: overwritten within about one checkpoint interval, which is exactly
#: the fault population the divergence window accelerates (flips into
#: rarely written registers never re-converge and keep the plain tail).
LOCATION_PATTERNS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r7",
]


def _campaign(name, trigger_time):
    return CampaignData(
        campaign_name=name,
        target_name="thor-rd",
        technique="scifi",
        workload_name=WORKLOAD,
        workload_params=dict(WORKLOAD_PARAMS),
        location_patterns=list(LOCATION_PATTERNS),
        n_experiments=N_EXPERIMENTS,
        seed=1515,
        trigger=TriggerSpec(kind="time-fixed", time=trigger_time),
        warm_start=True,
    )


def _reference_duration():
    target = create_target("thor-rd")
    probe = _campaign("e15-probe", trigger_time=1)
    probe.n_experiments = 1
    reference = target.prepare_run(probe)
    return reference.duration_cycles


def _canonical(sink):
    return [
        (
            result.termination.kind,
            tuple(
                (inj.location.key(), inj.time, inj.bit_after)
                for inj in result.injections
            ),
            tuple(sorted(result.outputs.items())),
            tuple(sorted(result.state_vector.items())),
        )
        for result in sink.results
    ]


def _run_leg(name, accelerated, trigger_time):
    campaign = _campaign(name, trigger_time)
    target = create_target("thor-rd")
    if not accelerated:
        # The plain warm-start tail (goofi run --no-early-exit): every
        # experiment simulates to termination, nothing is memoized.
        target.early_exit = False
    t0 = time.perf_counter()
    sink = target.run_campaign(campaign)
    seconds = time.perf_counter() - t0
    return _canonical(sink), seconds


def test_bench_e15_divergence(benchmark):
    duration = _reference_duration()
    trigger_time = max(1, int(duration * TRIGGER_FRAC))

    def body():
        plain_rows, plain_seconds = _run_leg(
            "e15-plain", accelerated=False, trigger_time=trigger_time
        )
        configure(metrics=True)
        try:
            fast_rows, fast_seconds = _run_leg(
                "e15-fast", accelerated=True, trigger_time=trigger_time
            )
            snapshot = get_observability().metrics.snapshot()
            counters = snapshot.get("counters", snapshot)
        finally:
            disable()
        return plain_rows, plain_seconds, fast_rows, fast_seconds, counters

    plain_rows, plain_seconds, fast_rows, fast_seconds, counters = (
        benchmark.pedantic(body, rounds=1, iterations=1)
    )

    exits = counters.get("divergence.early_exits", 0)
    memo_hits = counters.get("divergence.memo_hits", 0)
    probes = counters.get("divergence.probes", 0)
    skipped = counters.get("divergence.cycles_skipped", 0)
    speedup = plain_seconds / max(fast_seconds, 1e-9)

    print()
    print(
        f"E15: divergence window on vs off ({N_EXPERIMENTS} experiments, "
        f"{WORKLOAD} n={WORKLOAD_PARAMS['n']}, trigger at cycle "
        f"{trigger_time}/{duration})"
    )
    print(f"  plain: {plain_seconds:8.3f} s")
    print(f"  fast:  {fast_seconds:8.3f} s   speedup {speedup:.2f}x")
    print(
        f"  early exits {exits}, memo hits {memo_hits}, probes {probes}, "
        f"cycles skipped {skipped}"
    )

    write_bench_json(
        "e15_divergence",
        {
            "n_experiments": N_EXPERIMENTS,
            "workload": WORKLOAD,
            "trigger_cycle": trigger_time,
            "reference_cycles": duration,
            "plain_seconds": plain_seconds,
            "fast_seconds": fast_seconds,
            "early_exit_speedup": speedup,
            "early_exits": exits,
            "memo_hits": memo_hits,
            "cycles_skipped_total": skipped,
            "outcomes_identical": plain_rows == fast_rows,
        },
    )

    # Correctness gate: early exits and memo replays must be invisible
    # in the logged rows, and the accelerated leg must really have
    # exited early on this fault population.
    assert len(plain_rows) == N_EXPERIMENTS
    assert plain_rows == fast_rows
    assert exits > 0
    assert skipped > 0
    assert exits + memo_hits <= N_EXPERIMENTS

    # Wall-clock acceptance number — only meaningful at paper scale,
    # where the reference run and per-experiment fixed costs amortise.
    if FULL_SCALE:
        assert speedup >= 2.0, (
            f"divergence window delivered only {speedup:.2f}x over the "
            f"plain tail (expected >= 2x with the trigger at "
            f"{TRIGGER_FRAC:.0%} of the reference run)"
        )
