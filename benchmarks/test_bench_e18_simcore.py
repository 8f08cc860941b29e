"""E18 — simulator-core throughput (shipped vs seed core).

Regenerates: the acceleration study for the vectorized Thor execution
core (array-backed memory, shared decode memo, fused per-opcode handler
dispatch, batched scan shifts, zero-copy checkpoint digests). The same
chip is driven twice — once on the shipped :meth:`repro.thor.cpu.Cpu.step`
and once on the seed's straight-line decode/if-chain core, kept as a
test oracle in ``tests/reference_core.py`` — at two granularities:

* **micro** — raw simulated cycles per host second on a set of
  compute-shaped workloads, stepping the card directly with no campaign
  machinery. This isolates the fetch/decode/execute loop the tentpole
  rewrote;
* **campaign** — an E1-shaped SCIFI campaign (reference run, scan reads,
  injection, termination classification, logging) run end-to-end on
  both cores, reporting experiments per second and the wall-clock
  ratio. The campaign legs also serve as a correctness gate: the logged
  rows must be byte-identical across cores (the property suite in
  ``tests/properties/test_prop_core_equivalence.py`` pins the same
  invariant across random shapes).

Shapes asserted:

* fast and reference campaigns produce identical canonical rows;
* the fast micro path delivers >= 3x cycles/second (geometric mean over
  the micro workloads) — asserted at full scale, reported and
  baseline-gated (``check_regression.py``) at CI scale;
* the campaign leg delivers >= 1.5x throughput — same gating split.

Emits ``BENCH_e18_simcore.json`` next to the repo root.
"""

import contextlib
import math
import time

from benchmarks.conftest import FULL_SCALE, scaled, write_bench_json
from repro.core import CampaignData, create_target
from repro.thor.testcard import TestCard
from repro.workloads.library import get_workload
from tests.reference_core import reference_core

#: Compute-shaped workloads whose inner loops exercise the arithmetic,
#: shift/logic, branch and memory handler families.
MICRO_WORKLOADS = ("countprimes", "quicksort", "crc32", "matmul")

#: Host-seconds of stepping per micro leg (kept small: 2 cores x
#: len(MICRO_WORKLOADS) legs run inside the benchmarks CI job).
MICRO_WINDOW_SECONDS = 0.4

#: Per-run simulated-cycle budget for the micro legs.
MICRO_CYCLE_BUDGET = 200_000

N_EXPERIMENTS = scaled(40)


def _core(fast):
    """The shipped core, or the seed core for the duration of the block."""
    return contextlib.nullcontext() if fast else reference_core()


def _micro_leg(workload_name, fast):
    """Simulated cycles per host second for one (workload, core)."""
    definition = get_workload(workload_name)
    with _core(fast):
        card = TestCard()
        total_cycles = 0
        t0 = time.perf_counter()
        while True:
            card.init()
            card.load_program(definition.program)
            card.run(timeout_cycles=MICRO_CYCLE_BUDGET, max_iterations=8)
            total_cycles += card.cpu.cycles
            elapsed = time.perf_counter() - t0
            if elapsed >= MICRO_WINDOW_SECONDS:
                return total_cycles / elapsed


def _campaign():
    return CampaignData(
        campaign_name="e18-simcore",
        target_name="thor-rd",
        technique="scifi",
        workload_name="bubblesort",
        workload_params={"n": 12, "seed": 7},
        location_patterns=[
            "scan:internal/cpu.regfile.*",
            "scan:internal/cpu.psr",
            "scan:internal/dcache.*",
        ],
        n_experiments=N_EXPERIMENTS,
        seed=101,
    )


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


def _campaign_leg(fast):
    with _core(fast):
        target = create_target("thor-rd")
        t0 = time.perf_counter()
        sink = target.run_campaign(_campaign())
        seconds = time.perf_counter() - t0
    return _canonical(sink), seconds


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_bench_e18_simcore(benchmark):
    def body():
        micro = {}
        for name in MICRO_WORKLOADS:
            fast_cps = _micro_leg(name, fast=True)
            ref_cps = _micro_leg(name, fast=False)
            micro[name] = (fast_cps, ref_cps)
        fast_rows, fast_seconds = _campaign_leg(fast=True)
        ref_rows, ref_seconds = _campaign_leg(fast=False)
        return micro, fast_rows, fast_seconds, ref_rows, ref_seconds

    micro, fast_rows, fast_seconds, ref_rows, ref_seconds = (
        benchmark.pedantic(body, rounds=1, iterations=1)
    )

    micro_metrics = {
        name: {
            "fast_cycles_per_second": fast_cps,
            "reference_cycles_per_second": ref_cps,
            "speedup": fast_cps / ref_cps,
        }
        for name, (fast_cps, ref_cps) in micro.items()
    }
    micro_speedup = _geomean(
        [m["speedup"] for m in micro_metrics.values()]
    )
    campaign_speedup = ref_seconds / max(fast_seconds, 1e-9)
    rows_identical = fast_rows == ref_rows

    print()
    print("E18: simulator-core throughput (shipped vs seed core)")
    for name, metrics in micro_metrics.items():
        print(
            f"  micro {name:12s} fast "
            f"{metrics['fast_cycles_per_second']:>12,.0f} cyc/s, "
            f"reference {metrics['reference_cycles_per_second']:>12,.0f} "
            f"cyc/s ({metrics['speedup']:.2f}x)"
        )
    print(f"  micro geomean speedup:  {micro_speedup:.2f}x")
    print(
        f"  campaign ({N_EXPERIMENTS} experiments): fast "
        f"{fast_seconds:.2f} s, reference {ref_seconds:.2f} s "
        f"({campaign_speedup:.2f}x, "
        f"{N_EXPERIMENTS / fast_seconds:.1f} exp/s)"
    )

    write_bench_json(
        "e18_simcore",
        {
            "n_experiments": N_EXPERIMENTS,
            "micro": micro_metrics,
            "micro_speedup": micro_speedup,
            "campaign_seconds_fast": fast_seconds,
            "campaign_seconds_reference": ref_seconds,
            "campaign_experiments_per_second": N_EXPERIMENTS / fast_seconds,
            "campaign_speedup": campaign_speedup,
            "rows_identical": rows_identical,
        },
    )

    # Correctness gate at every scale: the two cores are
    # indistinguishable in the logged rows.
    assert len(fast_rows) == N_EXPERIMENTS
    assert rows_identical

    # Acceptance numbers — asserted where the sample is big enough to be
    # stable; at reduced CI scale check_regression.py gates the recorded
    # ratios against the committed baseline instead.
    if FULL_SCALE:
        assert micro_speedup >= 3.0, (
            f"vectorized core delivered only {micro_speedup:.2f}x "
            f"cycles/second over the reference core (expected >= 3x)"
        )
        assert campaign_speedup >= 1.5, (
            f"campaign throughput gained only {campaign_speedup:.2f}x "
            f"(expected >= 1.5x)"
        )
