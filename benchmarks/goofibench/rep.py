"""One goofibench rep: a campaign into a file-backed database, then analysis.

A rep does what a user does with ``goofi run`` followed by ``goofi
analyze``. It drives one campaign through :class:`CampaignController`
into a :class:`GoofiDatabase` file, then runs :func:`analyze_campaign`
over a read-only connection. Around that it times five set-up calls
(``prepare_run`` on fresh targets) and a fixed pure-Python calibration
loop before and after, so a slow host phase is visible in the record.

``run.py`` starts every rep as a fresh interpreter::

    python3 benchmarks/goofibench/rep.py WORKLOAD SEED WORKDIR [--trace PATH]
    python3 benchmarks/goofibench/rep.py WORKLOAD SEED WORKDIR --oracle

The last line of standard output is the rep's JSON record. ``--trace``
adds the per-layer spans of :mod:`spans`; ``--oracle`` instead prints the
canonical-row digest of the workload's plain oracle campaign.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro.analysis import analyze_campaign  # noqa: E402
from repro.core import CampaignData, create_target  # noqa: E402
from repro.core.controller import CampaignController  # noqa: E402
from repro.db import GoofiDatabase  # noqa: E402
from repro.observability import configure, disable  # noqa: E402
from spans import SpanRecorder, layer_metrics  # noqa: E402

#: Set-up calls timed per rep.
SETUP_CALLS = 5

#: ``analyze_campaign`` passes repeat until this much time has accumulated
#: (a run makes at least five reps, so at least 1 s of passes).
ANALYSIS_MIN_S = 0.25

#: Iterations of the calibration loop (about 0.05 s on a 2020s x86 core).
CALIBRATION_ITERATIONS = 500_000

SCIFI_LOCATIONS = [
    "scan:internal/cpu.regfile.*",
    "scan:internal/cpu.psr",
    "scan:internal/dcache.*",
]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign shape and how it is run.

    ``fast_paths`` is what ``goofi run`` does by default (early exit and
    the outcome memo); False is ``goofi run --no-early-exit``.
    ``oracle`` holds the campaign fields that turn this workload into
    its plain oracle, whose canonical rows must equal this workload's;
    None when the workload is itself the plain path."""

    fields: Dict[str, object]
    fast_paths: bool
    oracle: Optional[Dict[str, object]]


_BUBBLESORT_SCIFI = {
    "workload_name": "bubblesort",
    "workload_params": {"n": 24, "seed": 7},
    "location_patterns": SCIFI_LOCATIONS,
    "n_experiments": 200,
}

# Why each workload is in the benchmark is recorded in README.md.
WORKLOADS: Dict[str, Workload] = {
    "cold-scifi": Workload(
        fields={**_BUBBLESORT_SCIFI, "warm_start": False},
        fast_paths=False,
        oracle=None,
    ),
    "warm-scifi": Workload(
        fields=dict(_BUBBLESORT_SCIFI),
        fast_paths=True,
        oracle={"warm_start": False},
    ),
    "equivalence": Workload(
        fields={
            "workload_name": "vecsum",
            "location_patterns": [
                "scan:internal/cpu.regfile.r5",
                "scan:internal/cpu.regfile.r10",
            ],
            "n_experiments": 10000,
            "use_preinjection": True,
            "preinjection_mode": "equivalence",
        },
        fast_paths=True,
        oracle={"preinjection_mode": "static", "warm_start": False},
    ),
    "detail-rerun": Workload(
        fields={
            "workload_name": "bubblesort",
            "workload_params": {"n": 2, "seed": 7},
            "location_patterns": SCIFI_LOCATIONS,
            "n_experiments": 200,
            "logging_mode": "detail",
        },
        fast_paths=True,
        oracle={"logging_mode": "normal", "warm_start": False},
    ),
}


def make_campaign(
    workload: str,
    seed: int,
    n_experiments: Optional[int] = None,
    oracle: bool = False,
) -> CampaignData:
    """The campaign a workload runs for ``seed`` (its oracle's when
    ``oracle``). The seed becomes ``CampaignData.seed``: the program
    sees only the generated campaign."""
    spec = WORKLOADS[workload]
    fields = dict(spec.fields)
    if oracle and spec.oracle is not None:
        fields.update(spec.oracle)
    if n_experiments is not None:
        fields["n_experiments"] = n_experiments
    return CampaignData(campaign_name=workload, seed=seed, **fields)


def canonical_row(result) -> Dict[str, object]:
    """The part of a logged row that must not depend on how it was
    produced: name, wall time and ``derivedFrom`` are left out."""
    termination = result.termination
    return {
        "index": result.index,
        "termination": termination.to_dict() if termination else None,
        "injections": [injection.to_dict() for injection in result.injections],
        "outputs": result.outputs,
        "state_vector": result.state_vector,
    }


def rows_digest(results: Iterable) -> Dict[str, object]:
    """sha256 over the canonical rows in index order, plus the row count
    and the number of ``worker-failure`` rows."""
    digest = hashlib.sha256()
    rows = failures = 0
    for result in results:
        row = canonical_row(result)
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
        rows += 1
        if result.termination is not None and (
            result.termination.kind == "worker-failure"
        ):
            failures += 1
    return {"digest": digest.hexdigest(), "rows": rows, "worker_failures": failures}


def db_digest(db_path: Path, campaign_name: str) -> Dict[str, object]:
    with GoofiDatabase(str(db_path), readonly=True) as db:
        return rows_digest(db.iter_experiments(campaign_name))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


def time_setup(campaign: CampaignData) -> float:
    """One ``prepare_run`` on a fresh target with no golden cache: the
    reference run, checkpoint capture and the oracle build."""
    target = create_target(campaign.target_name)
    started = time.perf_counter()
    target.prepare_run(campaign)
    return time.perf_counter() - started


def drive_campaign(
    campaign: CampaignData,
    fast_paths: bool,
    db_path: Path,
    recorder=None,
) -> Dict[str, object]:
    """Run ``campaign`` as ``goofi run`` does: stored in and reloaded
    from a database file, driven by a :class:`CampaignController` with
    the database as sink.

    Two clocks wrap the target and the sink from outside: one stamps
    the end of ``prepare_run`` (throughput excludes the campaign's own
    set-up), the other each row as ``log_experiment`` returns."""
    prepare_ends: List[float] = []
    row_stamps: List[float] = []
    with GoofiDatabase(str(db_path)) as db:
        db.save_campaign(campaign)
        campaign = db.load_campaign(campaign.campaign_name)
        target = create_target(campaign.target_name)
        target.early_exit = fast_paths
        target.memoize = fast_paths
        prepare_run = target.prepare_run
        log_experiment = db.log_experiment

        def timed_prepare_run(*args, **kwargs):
            reference = prepare_run(*args, **kwargs)
            prepare_ends.append(time.perf_counter())
            return reference

        def stamped_log_experiment(*args, **kwargs):
            log_experiment(*args, **kwargs)
            row_stamps.append(time.perf_counter())

        target.prepare_run = timed_prepare_run
        db.log_experiment = stamped_log_experiment
        if recorder is not None:
            recorder.install(target, db)
        controller = CampaignController(target, sink=db)
        run = controller.run
        if recorder is not None:
            run = recorder.wrap("campaign", run)
        started = time.perf_counter()
        run(campaign)
        wall = time.perf_counter() - started
        bytes_per_row = db.query(
            "SELECT AVG(LENGTH(experimentData) + LENGTH(stateVector)) AS b "
            "FROM LoggedSystemState WHERE campaignName = ? AND isReference = 0",
            (campaign.campaign_name,),
        )[0]["b"]
    marks = [prepare_ends[-1]] + row_stamps
    return {
        "campaign_s": wall,
        "gaps_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
        "logged": len(row_stamps),
        "bytes_per_row": bytes_per_row or 0.0,
    }


def time_analysis(db_path: Path, campaign_name: str) -> Dict[str, object]:
    """``goofi analyze`` over a read-only connection, repeated until
    :data:`ANALYSIS_MIN_S` has accumulated."""
    passes: List[float] = []
    with GoofiDatabase(str(db_path), readonly=True) as db:
        while not passes or sum(passes) < ANALYSIS_MIN_S:
            started = time.perf_counter()
            report = analyze_campaign(db, campaign_name)
            passes.append(time.perf_counter() - started)
    return {"analysis_s": passes, "analysis_rows": report.total}


def run_rep(
    workload: str,
    seed: int,
    workdir: Path,
    trace_path: Optional[Path] = None,
    n_experiments: Optional[int] = None,
    setup_calls: int = SETUP_CALLS,
) -> Dict[str, object]:
    """One rep; returns its JSON-ready record. With ``trace_path`` the
    campaign runs under the span recorder and with the program's metrics
    on, the spans are written there and the record carries the layer
    metrics. Traced reps time set-up too, so both kinds of rep reach the
    campaign with the same warm caches."""
    spec = WORKLOADS[workload]
    record: Dict[str, object] = {"workload": workload, "seed": seed}
    calibration = [calibrate()]
    record["setup_s"] = [
        time_setup(make_campaign(workload, seed, n_experiments))
        for _ in range(setup_calls)
    ]
    campaign = make_campaign(workload, seed, n_experiments)
    db_path = workdir / f"{workload}-{seed}.db"
    for stale in workdir.glob(db_path.name + "*"):
        stale.unlink()
    recorder = SpanRecorder() if trace_path is not None else None
    if recorder is not None:
        obs = configure(metrics=True)
        try:
            record.update(drive_campaign(campaign, spec.fast_paths, db_path, recorder))
            counters = obs.metrics.snapshot()["counters"]
        finally:
            recorder.uninstall()
            disable()
    else:
        record.update(drive_campaign(campaign, spec.fast_paths, db_path))
    analysis = time_analysis(db_path, campaign.campaign_name)
    record.update(analysis)
    calibration.append(calibrate())
    record["calibration_s"] = calibration
    record.update(db_digest(db_path, campaign.campaign_name))
    record["attempted"] = campaign.n_experiments
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        record["layers"] = layer_metrics(
            recorder.spans,
            counters=counters,
            n_experiments=campaign.n_experiments,
            bytes_per_row=record["bytes_per_row"],
            analysis_s=min(analysis["analysis_s"]),
            analysis_rows=analysis["analysis_rows"],
        )
        record["span_self_sum_s"] = record["layers"].pop("_self_sum_s")
        recorder.write(trace_path)
    return record


def oracle_digest(
    workload: str,
    seed: int,
    workdir: Path,
    n_experiments: Optional[int] = None,
) -> Dict[str, object]:
    """Canonical-row digest of the workload's plain oracle: the same
    campaign with every fast path off (cold starts, no early exit, no
    memo; static mode for the equivalence workload; normal logging for
    the detail re-run)."""
    campaign = make_campaign(workload, seed, n_experiments, oracle=True)
    db_path = workdir / f"{workload}-{seed}-oracle.db"
    for stale in workdir.glob(db_path.name + "*"):
        stale.unlink()
    drive_campaign(campaign, False, db_path)
    return db_digest(db_path, campaign.campaign_name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", type=Path, default=None)
    mode.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)
    if args.oracle:
        record = oracle_digest(args.workload, args.seed, args.workdir)
    else:
        record = run_rep(args.workload, args.seed, args.workdir, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
