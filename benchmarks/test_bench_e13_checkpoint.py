"""E13 — golden-run checkpointing (cold vs warm-start wall time).

Regenerates: the companion acceleration study for the warm-start
subsystem (``repro.core.checkpoint``). One SCIFI campaign with a *late*
fixed-time trigger — the regime checkpointing targets, where every
experiment would otherwise re-simulate a long fault-free prefix — is
executed twice on fresh targets: once with ``warm_start=False`` (the
paper's cold start-from-reset path of Figure 2, with early exit off)
and once with ``warm_start=True`` and the ``goofi run`` defaults
(restore the last reference-run checkpoint strictly before the
injection time and run forward; the liveness exit stays on, so an
experiment whose faults the reference trace proves dead is derived
from the golden run without executing). Results are compared
field-for-field (modulo wall clock) and the warm leg's
``checkpoint.cycles_saved`` counter is captured from the observability
layer.

Shapes asserted:

* warm and cold campaigns classify every experiment identically
  (termination kind, outputs, observed state) — the correctness gate;
* every warm-leg experiment is restored from a checkpoint or derived
  from the golden run (liveness exit), and the restores skip a nonzero
  number of simulated prefix cycles;
* at full scale, warm start delivers >= 2x wall-clock speedup (the
  acceptance number; reduced-scale CI runs report the ratio without
  gating it on noisy shared runners — check_regression gates the
  recorded ``warm_speedup`` against the committed baseline instead).

Environment knobs:

* ``E13_FULL=1``          run the 64-experiment acceptance campaign
                          (default 16, scaled by ``GOOFI_BENCH_SCALE``);
* ``E13_TRIGGER_FRAC``    injection point as a fraction of the
                          reference duration (default 0.85).

Emits ``BENCH_e13_checkpoint.json`` next to the repo root.
"""

import os
import time

from benchmarks.conftest import FULL_SCALE, scaled, write_bench_json
from repro.core import CampaignData, create_target
from repro.core.triggers import TriggerSpec
from repro.observability import configure, disable, get_observability

N_EXPERIMENTS = 64 if os.environ.get("E13_FULL") == "1" else scaled(16)
TRIGGER_FRAC = float(os.environ.get("E13_TRIGGER_FRAC", "0.85"))

#: Large enough that the fault-free prefix dominates an experiment.
WORKLOAD = "bubblesort"
WORKLOAD_PARAMS = {"n": 32}


def _campaign(name, warm, trigger_time):
    return CampaignData(
        campaign_name=name,
        target_name="thor-rd",
        technique="scifi",
        workload_name=WORKLOAD,
        workload_params=dict(WORKLOAD_PARAMS),
        location_patterns=["scan:internal/cpu.regfile.*"],
        n_experiments=N_EXPERIMENTS,
        seed=1313,
        trigger=TriggerSpec(kind="time-fixed", time=trigger_time),
        warm_start=warm,
    )


def _reference_duration():
    """Fault-free duration of the workload (cycles) — the trigger time
    is placed late in this window."""
    target = create_target("thor-rd")
    probe = _campaign("e13-probe", warm=False, trigger_time=1)
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


def _run_leg(name, warm, trigger_time):
    campaign = _campaign(name, warm, trigger_time)
    target = create_target("thor-rd")
    if not warm:
        # The cold leg is the paper's plain Figure-2 baseline: no warm
        # starts, no liveness exits.
        target.early_exit = False
    t0 = time.perf_counter()
    sink = target.run_campaign(campaign)
    seconds = time.perf_counter() - t0
    return _canonical(sink), seconds


def test_bench_e13_checkpoint(benchmark):
    duration = _reference_duration()
    trigger_time = max(1, int(duration * TRIGGER_FRAC))

    def body():
        cold_rows, cold_seconds = _run_leg(
            "e13-cold", warm=False, trigger_time=trigger_time
        )
        configure(metrics=True)
        try:
            warm_rows, warm_seconds = _run_leg(
                "e13-warm", warm=True, trigger_time=trigger_time
            )
            snapshot = get_observability().metrics.snapshot()
            counters = snapshot.get("counters", snapshot)
        finally:
            disable()
        return cold_rows, cold_seconds, warm_rows, warm_seconds, counters

    cold_rows, cold_seconds, warm_rows, warm_seconds, counters = (
        benchmark.pedantic(body, rounds=1, iterations=1)
    )

    hits = counters.get("checkpoint.hits", 0)
    liveness_exits = counters.get("divergence.liveness_exits", 0)
    cycles_saved = counters.get("checkpoint.cycles_saved", 0)
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    print()
    print(
        f"E13: cold vs warm-start SCIFI campaign ({N_EXPERIMENTS} "
        f"experiments, {WORKLOAD} n={WORKLOAD_PARAMS['n']}, trigger at "
        f"cycle {trigger_time}/{duration})"
    )
    print(f"  cold: {cold_seconds:8.3f} s")
    print(f"  warm: {warm_seconds:8.3f} s   speedup {speedup:.2f}x")
    print(
        f"  checkpoint hits {hits}, liveness exits {liveness_exits}, "
        f"cycles saved {cycles_saved}"
    )

    write_bench_json(
        "e13_checkpoint",
        {
            "n_experiments": N_EXPERIMENTS,
            "workload": WORKLOAD,
            "trigger_cycle": trigger_time,
            "reference_cycles": duration,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": speedup,
            "checkpoint_hits": hits,
            "liveness_exits": liveness_exits,
            "cycles_saved_total": cycles_saved,
            "outcomes_identical": cold_rows == warm_rows,
        },
    )

    # Correctness gate: classifications must be identical, every
    # experiment either restored from a checkpoint or derived from the
    # golden run at plan time (a liveness exit: its faults are dead, so
    # it never executes), real cycles skipped.
    assert len(cold_rows) == N_EXPERIMENTS
    assert cold_rows == warm_rows
    assert hits + liveness_exits == N_EXPERIMENTS
    assert cycles_saved > 0

    # Wall-clock acceptance number — only meaningful at paper scale,
    # where per-campaign fixed costs amortise away.
    if FULL_SCALE:
        assert speedup >= 2.0, (
            f"warm start delivered only {speedup:.2f}x over cold "
            f"(expected >= 2x with the trigger at "
            f"{TRIGGER_FRAC:.0%} of the reference run)"
        )
