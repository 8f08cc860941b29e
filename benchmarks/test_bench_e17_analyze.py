"""E17 — streaming campaign analytics over a live database.

Regenerates: the analytics-throughput study for ``goofi analyze``
(``repro.analysis.engine``). A synthetic campaign of 50k experiment
rows (deterministic outcome mix, no simulator in the loop) is landed in
a file database, then :func:`~repro.analysis.engine.analyze_campaign`
streams the full report — outcome mix with both interval families,
coverage breakdowns, heatmaps, equivalence accounting and the
sequential-stopping advisor — over a *read-only* WAL connection while a
concurrent writer keeps committing batches to a second campaign in the
same file. That is the tool's operational contract: analytics over a
live ``goofi run`` database must neither stall the campaign writer nor
be stalled by it.

Shapes asserted:

* the streamed report classifies every synthetic row and its outcome
  counts equal the closed-form mix (the classifier is exercised at
  bulk, not sampled);
* the analysis pass finishes inside the wall-clock budget;
* the concurrent writer commits batches *during* the analysis pass and
  every row it wrote is present afterwards (nothing lost or blocked);
* equivalence accounting sees exactly the derived rows the synthesiser
  planted.

Environment knobs:

* ``E17_BUDGET_SECONDS``  analysis wall-clock budget (default 120);
* ``E17_WRITER_BATCH``    rows per concurrent-writer commit (default 100).

Emits ``BENCH_e17_analyze.json`` next to the repo root.
"""

import os
import threading
import time

from benchmarks.conftest import scaled, write_bench_json
from repro.analysis import Outcome
from repro.analysis.engine import analyze_campaign
from repro.core import CampaignData
from repro.core.experiment import (
    ExperimentResult,
    Injection,
    ReferenceRun,
    Termination,
)
from repro.core.locations import FaultLocation
from repro.db import GoofiDatabase

N_ROWS = scaled(50_000)
BUDGET_SECONDS = float(os.environ.get("E17_BUDGET_SECONDS", "120"))
WRITER_BATCH = int(os.environ.get("E17_WRITER_BATCH", "100"))
SYNTH_CHUNK = 5_000

ANALYZED = "e17-analyze"
LIVE = "e17-live"


def _campaign(name, n):
    return CampaignData(
        campaign_name=name,
        target_name="thor-rd",
        technique="scifi",
        workload_name="vecsum",
        location_patterns=["scan:internal/cpu.regfile.*"],
        n_experiments=n,
        seed=1700,
    )


def _reference():
    return ReferenceRun(
        duration_cycles=100,
        duration_instructions=50,
        termination=Termination(kind="halt", pc=0x110, cycle=100),
        state_vector={"scan:internal/cpu.pc": 0x110},
        outputs={"total": 55},
    )


def _synthetic_result(campaign_name, i):
    """Row ``i`` of the deterministic five-way outcome mix."""
    kw = {}
    if i % 5 == 0:
        kw["termination"] = Termination(
            kind="trap", pc=1, cycle=50, trap_name="wdog"
        )
    elif i % 5 == 1:
        kw["termination"] = Termination(kind="timeout", pc=2, cycle=999)
    elif i % 5 == 2:
        kw["outputs"] = {"total": 99}
    elif i % 5 == 3:
        kw["state_vector"] = {"scan:internal/cpu.pc": 0x114}
    if i % 11 == 0 and i > 0:
        kw["derived_from"] = f"{campaign_name}-exp00000"
    defaults = dict(
        name=f"{campaign_name}-exp{i:05d}",
        index=i,
        campaign_name=campaign_name,
        injections=[
            Injection(
                time=(i * 13) % 100,
                location=FaultLocation(
                    "scan:internal", f"cpu.regfile.r{i % 8}", i % 8
                ),
                op="flip" if i % 2 else "stuck0",
                bit_before=0,
                bit_after=1,
            )
        ],
        termination=Termination(kind="halt", pc=0x110, cycle=101),
        state_vector={"scan:internal/cpu.pc": 0x110},
        outputs={"total": 55},
        wall_seconds=0.02,
    )
    defaults.update(kw)
    return ExperimentResult(**defaults)


def _mix_count(n, residue):
    """How many of ``range(n)`` satisfy ``i % 5 == residue``."""
    return n // 5 + (1 if n % 5 > residue else 0)


class _LiveWriter(threading.Thread):
    """Commits batches to a second campaign until told to stop."""

    def __init__(self, db_path, campaign):
        super().__init__(daemon=True)
        self.db_path = db_path
        self.campaign = campaign
        self.stop_event = threading.Event()
        self.first_commit = threading.Event()
        self.commits = 0
        self.rows = 0
        self.error = None

    def run(self):
        try:
            with GoofiDatabase(self.db_path) as db:
                while not self.stop_event.is_set():
                    batch = [
                        _synthetic_result(LIVE, self.rows + j)
                        for j in range(WRITER_BATCH)
                    ]
                    db.log_experiments(self.campaign, batch)
                    self.rows += len(batch)
                    self.commits += 1
                    self.first_commit.set()
        except Exception as exc:  # surfaced by the main thread
            self.error = exc
            self.first_commit.set()


def test_bench_e17_analyze(benchmark, tmp_path):
    db_path = str(tmp_path / "e17.db")
    analyzed = _campaign(ANALYZED, N_ROWS)
    live = _campaign(LIVE, N_ROWS)

    t0 = time.perf_counter()
    with GoofiDatabase(db_path) as db:
        db.save_campaign(analyzed)
        db.log_reference(analyzed, _reference())
        db.save_campaign(live)
        db.log_reference(live, _reference())
        for start in range(0, N_ROWS, SYNTH_CHUNK):
            db.log_experiments(
                analyzed,
                [
                    _synthetic_result(ANALYZED, i)
                    for i in range(start, min(start + SYNTH_CHUNK, N_ROWS))
                ],
            )
    synth_seconds = time.perf_counter() - t0

    def analysis_leg():
        writer = _LiveWriter(db_path, live)
        writer.start()
        assert writer.first_commit.wait(timeout=60)
        commits_before = writer.commits
        with GoofiDatabase(db_path, readonly=True) as ro:
            t_start = time.perf_counter()
            report = analyze_campaign(ro, ANALYZED, batch_size=1024)
            seconds = time.perf_counter() - t_start
        commits_during = writer.commits - commits_before
        writer.stop_event.set()
        writer.join(timeout=60)
        assert writer.error is None, writer.error
        return report, seconds, commits_during, writer.rows

    report, analyze_seconds, commits_during, writer_rows = benchmark.pedantic(
        analysis_leg, rounds=1, iterations=1
    )

    rows_per_second = N_ROWS / max(analyze_seconds, 1e-9)
    half_width = report.stopping.half_width

    print()
    print(
        f"E17: streamed report over {N_ROWS} rows with a live writer "
        f"({WRITER_BATCH} rows/commit) in the same database"
    )
    print(f"  synthesis: {synth_seconds:8.3f} s")
    print(f"  analysis:  {analyze_seconds:8.3f} s "
          f"({rows_per_second:.0f} rows/s, budget {BUDGET_SECONDS:.0f} s)")
    print(f"  writer commits during analysis: {commits_during} "
          f"({writer_rows} rows total)")
    print(f"  detection-coverage CI half-width: {half_width:.4f}")

    write_bench_json(
        "e17_analyze",
        {
            "n_experiments": N_ROWS,
            "synth_seconds": synth_seconds,
            "analyze_seconds": analyze_seconds,
            "analyze_rows_per_second": rows_per_second,
            "writer_commits_during_analysis": commits_during,
            "writer_made_progress": commits_during > 0,
            "detected_fraction": report.summary.fraction(Outcome.DETECTED),
            "ci_half_width": half_width,
            "budget_seconds": BUDGET_SECONDS,
        },
    )

    # Correctness gates: the streamed report saw every row and agrees
    # with the closed-form outcome mix of the synthesiser.
    assert report.summary.total == N_ROWS
    counts = report.summary.counts
    assert counts[Outcome.DETECTED] == _mix_count(N_ROWS, 0)
    assert counts[Outcome.ESCAPED_TIMING] == _mix_count(N_ROWS, 1)
    assert counts[Outcome.ESCAPED_VALUE] == _mix_count(N_ROWS, 2)
    assert counts[Outcome.LATENT] == _mix_count(N_ROWS, 3)
    assert counts[Outcome.OVERWRITTEN] == _mix_count(N_ROWS, 4)
    expected_derived = len(
        [i for i in range(N_ROWS) if i % 11 == 0 and i > 0]
    )
    assert report.n_derived == expected_derived

    # The wall-clock budget (generous; the regression gate tracks the
    # throughput trend, this guards against collapse).
    assert analyze_seconds <= BUDGET_SECONDS

    # The live writer was never stalled: it kept committing while the
    # analysis pass streamed (skip the overlap assert only when the
    # pass was too quick for the check to be meaningful).
    if analyze_seconds > 0.2:
        assert commits_during > 0
    # ... and every row it committed is durable in the same file.
    with GoofiDatabase(db_path, readonly=True) as ro:
        assert ro.count_experiments(LIVE) == writer_rows
