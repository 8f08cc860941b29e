"""E14 — static fault-equivalence collapsing of campaign execution.

Regenerates: the headroom of the def-use equivalence engine
(``preinjection_mode="equivalence"``) over plain static pruning (E11's
``static`` mode). Both modes plan *identical* fault lists; equivalence
mode partitions the planned experiments into provably outcome-identical
classes and executes one representative per class, deriving the rest
statically.

Shapes asserted:

* outcome fidelity — the campaign results are byte-identical to static
  mode at every scale (the equivalence theorem, end to end);
* real collapse — a narrow selection of rarely-accessed registers
  collapses by at least 2x executed experiments at full scale;
* the saved executions show up as wall-clock — the equivalence campaign
  runs faster than the static campaign it reproduces;
* spot-check soundness — re-executing a 25% sample of the derived
  members (``verify_equivalence=0.25``) reports zero divergences.

Each mode runs :data:`EQUIVALENCE_LEGS` times back to back and its time
is the fastest leg: at reduced scale one leg takes 0.05–0.17 s, so a
single timed leg per mode swings the ratio from 0.9x to 3x between runs
of unchanged code. Every leg's rows are checked.
"""

import dataclasses
import time

from benchmarks.conftest import FULL_SCALE, scaled, write_bench_json
from repro.core import CampaignData, create_target

WORKLOAD = "vecsum"
#: r5/r10 hold rarely-accessed vecsum state — few access windows, so the
#: per-(bit, window) classes each absorb many sampled experiments.
PATTERNS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r10",
]
VERIFY_FRACTION = 0.25
#: Timed legs per mode; each mode's time is its fastest leg.
EQUIVALENCE_LEGS = 5


def _campaign(mode):
    return CampaignData(
        campaign_name="e14",
        technique="scifi",
        workload_name=WORKLOAD,
        location_patterns=PATTERNS,
        n_experiments=scaled(600, minimum=40),
        seed=1414,
        use_preinjection=True,
        preinjection_mode=mode,
    )


def _canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        data["derived_from"] = None
        rows.append(data)
    return rows


def _run(mode, verify=0.0):
    campaign = _campaign(mode)
    target = create_target("thor-rd")
    target.verify_equivalence = verify
    t0 = time.perf_counter()
    sink = target.run_campaign(campaign)
    seconds = time.perf_counter() - t0
    return sink, seconds


def _legs(mode, expected=None):
    """:data:`EQUIVALENCE_LEGS` back-to-back runs of ``mode``: the first
    leg's sink and the fastest leg's seconds. Every leg logs the first
    leg's rows, which must equal ``expected`` when given."""
    sink, fastest = _run(mode)
    rows = _canonical(sink)
    assert expected is None or rows == expected
    for _ in range(EQUIVALENCE_LEGS - 1):
        leg, seconds = _run(mode)
        assert _canonical(leg) == rows
        fastest = min(fastest, seconds)
    return sink, fastest


def test_bench_e14_equivalence(benchmark):
    def body():
        static_sink, static_seconds = _legs("static")
        equiv_sink, equiv_seconds = _legs(
            "equivalence", _canonical(static_sink)
        )
        # Soundness spot-check: re-execute a sample of derived members;
        # any divergence raises and fails the bench.
        _run("equivalence", verify=VERIFY_FRACTION)
        return static_sink, static_seconds, equiv_sink, equiv_seconds

    static_sink, static_seconds, equiv_sink, equiv_seconds = (
        benchmark.pedantic(body, rounds=1, iterations=1)
    )

    n = len(equiv_sink.results)
    derived = sum(
        1 for r in equiv_sink.results if r.derived_from is not None
    )
    executed = n - derived
    collapse_ratio = n / executed
    speedup = static_seconds / max(equiv_seconds, 1e-9)

    print()
    print("E14: equivalence collapsing vs static pruning")
    print(f"  campaign: {WORKLOAD}, {n} experiments over {PATTERNS}")
    print(
        f"  executed {executed}, derived {derived} "
        f"({collapse_ratio:.2f}x collapse)"
    )
    print(
        f"  wall-clock, fastest of {EQUIVALENCE_LEGS} legs: static "
        f"{static_seconds:.2f}s vs equivalence {equiv_seconds:.2f}s "
        f"({speedup:.2f}x)"
    )
    print(
        f"  verify_equivalence={VERIFY_FRACTION}: zero divergences "
        "(campaign would have aborted otherwise)"
    )

    # Outcome fidelity at every scale and on every leg (_legs):
    # derived results are byte-identical to the executed ones of static
    # mode.
    assert _canonical(equiv_sink) == _canonical(static_sink)
    # The collapse must be real at every scale...
    assert derived > 0
    assert executed + derived == n
    if FULL_SCALE:
        # ...and substantial at paper scale: the E14 acceptance bar.
        assert collapse_ratio >= 2.0
        # Fewer executions must buy wall-clock time.
        assert equiv_seconds < static_seconds

    write_bench_json(
        "e14_equivalence",
        {
            "workload": WORKLOAD,
            "patterns": PATTERNS,
            "n_experiments": n,
            "n_executed": executed,
            "n_derived": derived,
            "collapse_ratio": collapse_ratio,
            "static_seconds": static_seconds,
            "equivalence_seconds": equiv_seconds,
            "speedup": speedup,
            "verify_fraction": VERIFY_FRACTION,
            "verify_divergences": 0,
        },
    )
