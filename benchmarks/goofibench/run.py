"""goofibench: end-to-end and per-layer campaign benchmark for GOOFI.

Usage, from the root of a checkout::

    python3 benchmarks/goofibench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/goofibench/run.py --workload all --seed S --seconds N
    python3 benchmarks/goofibench/run.py verify [--seeds 1 2 3] [--write]

A run starts reps (see ``rep.py``) one at a time, each in a fresh
interpreter, until ``--seconds`` have passed and every selected workload
has :data:`MIN_REPS` reps. With ``--workload all`` the reps go
round-robin over the workloads, so a slow host phase hits every workload
alike. ``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics instead of the end-to-end ones.

All reps of a run execute the same campaign, so experiment ``i`` does
the same work in every rep. Host interference only ever adds time, so
each experiment's time is taken as its fastest over the reps, and each
set-up call and analysis pass likewise as the fastest of its kind. See
README.md for the measurements behind this choice.

Every rep's canonical-row digest must equal the expected one: the
committed digest in ``expected.json`` for the seeds it lists, otherwise
the digest of the workload's plain oracle, computed after the timed
reps. The second-to-last line of standard output is a report with
units, ``rows_ok`` and ``_meta`` noise diagnostics (calibration-loop
times and the IQR of each metric over single reps); the last line is
``{"correct", "attempted", "failed", "metrics"}``. A run whose rows do
not match exits with code 1.

``verify`` computes the oracle digests for the given seeds and compares
them with ``expected.json`` (``--write`` stores them there instead).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED_PATH = HERE / "expected.json"
WORKLOAD_NAMES = ("cold-scifi", "warm-scifi", "equivalence", "detail-rerun")

#: Untraced reps a run makes at least, per workload. Each experiment is
#: then timed this often; the fastest time is kept.
MIN_REPS = 5

#: Untraced and traced reps a ``--trace 1`` run makes at least.
MIN_TRACE_REPS = 2

#: A rep that has not finished by then is killed and counted as failed.
REP_TIMEOUT_S = 150

UNITS = {
    "exp_per_s": "exp/s",
    "exp_p95_ms": "ms",
    "setup_s": "s",
    "analyze_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "sink.bytes_per_row": "B",
    "simulate.cycles": "cycles",
    "simulate.cycles_per_s": "cycles/s",
    "analysis.rows_per_s": "rows/s",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def _rep_env() -> Dict[str, str]:
    """The reps' environment: no ``GOOFI_*`` switches, so a rep never
    traces, exports metrics or records flights behind the bench's back."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GOOFI_")}


def _child(args: List[str]) -> Dict[str, object]:
    """Run ``rep.py`` with ``args``; its last stdout line as a dict, or
    ``{"error": ...}`` when it failed or overran :data:`REP_TIMEOUT_S`."""
    command = [sys.executable, str(HERE / "rep.py"), *args]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
            env=_rep_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s: {' '.join(args)}"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-4000:] or f"exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p95(values: List[float]) -> float:
    """95th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20)[18]


def _fastest_gaps(reps: List[Dict[str, object]]) -> List[float]:
    """Each experiment's row-to-row gap, fastest over ``reps``."""
    return [min(gaps) for gaps in zip(*(rep["gaps_ms"] for rep in reps))]


def _exp_per_s(reps: List[Dict[str, object]]) -> float:
    """Experiments per second from set-up end to the last row, with each
    experiment timed as its fastest over ``reps``."""
    return len(reps[0]["gaps_ms"]) / (sum(_fastest_gaps(reps)) / 1e3)


def end_to_end(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics of one workload's complete untraced reps."""
    return {
        "exp_per_s": _exp_per_s(reps),
        "exp_p95_ms": _p95(_fastest_gaps(reps)),
        "setup_s": min(s for rep in reps for s in rep["setup_s"]),
        "analyze_rows_per_s": reps[0]["analysis_rows"]
        / min(s for rep in reps for s in rep["analysis_s"]),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(
    untraced: List[Dict[str, object]], traced: List[Dict[str, object]]
) -> Dict[str, float]:
    """The layer metrics of the fastest traced rep, plus the tracing
    overhead: traced against untraced throughput of the same run."""
    fastest = min(traced, key=lambda rep: rep["campaign_s"])
    metrics = dict(fastest["layers"])
    metrics["trace.overhead_frac"] = 1.0 - _exp_per_s(traced) / _exp_per_s(untraced)
    return metrics


def _single_rep_iqr(reps: List[Dict[str, object]]) -> Dict[str, Optional[float]]:
    """IQR of each end-to-end metric over single reps (noise diagnostic)."""
    if len(reps) < 2:
        return {}
    singles = [end_to_end([rep]) for rep in reps]
    iqr = {}
    for name in singles[0]:
        q1, _, q3 = statistics.quantiles([single[name] for single in singles], n=4)
        iqr[name] = q3 - q1
    return iqr


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def expected_digest(workload: str, seed: int, workdir: Path) -> Dict[str, object]:
    """The digest every rep must reproduce, and where it came from."""
    stored = load_expected().get(workload, {}).get(str(seed))
    if stored is not None:
        return {"digest": stored, "source": "expected.json"}
    oracle = _child([workload, str(seed), str(workdir), "--oracle"])
    if "error" in oracle:
        return {"digest": None, "source": "oracle", "error": oracle["error"]}
    return {"digest": oracle["digest"], "source": "oracle"}


def run(
    workloads: List[str], seed: int, seconds: float, trace: bool
) -> Dict[str, Dict[str, object]]:
    """Reps round-robin over ``workloads`` until ``seconds`` have passed
    and every workload has its minimum; then the digest checks."""
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACE_REPS if trace else MIN_REPS
    reps: Dict[str, Dict[bool, List[Dict[str, object]]]] = {
        w: {kind: [] for kind in kinds} for w in workloads
    }
    workdir = Path(tempfile.mkdtemp(prefix=".goofibench-", dir=ROOT))
    try:
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            for workload in workloads:
                for traced in kinds:
                    args = [workload, str(seed), str(workdir)]
                    if traced:
                        trace_path = ROOT / f"goofibench-trace-{workload}.jsonl"
                        args += ["--trace", str(trace_path)]
                    reps[workload][traced].append(_child(args))
            rounds += 1
        return {
            w: _report(w, seed, reps[w], expected_digest(w, seed, workdir), trace)
            for w in workloads
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(
    workload: str,
    seed: int,
    reps: Dict[bool, List[Dict[str, object]]],
    expected: Dict[str, object],
    trace: bool,
) -> Dict[str, object]:
    """Check a workload's reps against ``expected`` and compute metrics.

    A rep that raised counts all its experiments as failed; so do the
    experiments a rep did not log and rows ended by ``worker-failure``.
    Metrics come from complete reps only."""
    every = [rep for kind in reps.values() for rep in kind]
    done = [rep for rep in every if "error" not in rep]
    errors = [rep["error"] for rep in every if "error" in rep]
    n = max((rep["attempted"] for rep in done), default=1)
    attempted = n * len(every)
    failed = n * len(errors) + sum(
        rep["attempted"] - rep["logged"] + rep["worker_failures"] for rep in done
    )
    digests = sorted({rep["digest"] for rep in done})
    rows_ok = (
        not errors
        and expected["digest"] is not None
        and digests == [expected["digest"]]
        and all(rep["rows"] == rep["logged"] == rep["attempted"] for rep in done)
    )
    complete = {
        kind: [r for r in kind_reps if "error" not in r and r["logged"] == n]
        for kind, kind_reps in reps.items()
    }
    untraced = complete[False]
    metrics: Dict[str, float] = {}
    if trace and untraced and complete[True]:
        metrics = per_layer(untraced, complete[True])
    elif not trace and untraced:
        metrics = end_to_end(untraced)
    return {
        "workload": workload,
        "seed": seed,
        "rows_ok": rows_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()
        },
        "_meta": {
            "reps": {
                "traced" if kind else "untraced": len(kind_reps)
                for kind, kind_reps in reps.items()
            },
            "failed_frac": failed / attempted,
            "p95_samples": n,
            "digest": digests,
            "expected": expected,
            "calibration_s": [rep["calibration_s"] for rep in done],
            "single_rep_iqr": _single_rep_iqr(untraced),
            "errors": errors,
        },
    }


def verify(seeds: List[int], write: bool) -> int:
    """Oracle digests for ``seeds``: compare with or add to expected.json."""
    from rep import oracle_digest

    digests: Dict[str, Dict[str, str]] = {}
    workdir = Path(tempfile.mkdtemp(prefix=".goofibench-", dir=ROOT))
    try:
        for workload in WORKLOAD_NAMES:
            digests[workload] = {
                str(seed): oracle_digest(workload, seed, workdir)["digest"]
                for seed in seeds
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = load_expected() if EXPECTED_PATH.exists() else {}
    if write:
        for workload, by_seed in digests.items():
            expected.setdefault(workload, {}).update(by_seed)
        document = {
            "about": "sha256 of the canonical rows (index, termination, injections, "
            "outputs, state vector) of each workload's plain oracle, by seed",
            "digests": expected,
        }
        EXPECTED_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED_PATH.name} for seeds {seeds}")
        return 0
    bad = [
        f"{workload} seed {seed}"
        for workload, by_seed in digests.items()
        for seed, digest in by_seed.items()
        if expected.get(workload, {}).get(seed) != digest
    ]
    for item in bad:
        print(f"mismatch: {item}")
    print("verify: ok" if not bad else f"verify: {len(bad)} mismatch(es)")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", nargs="?", choices=("run", "verify"), default="run")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"goofibench: no GOOFI sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.mode == "verify":
        sys.path.insert(0, str(HERE))
        return verify(args.seeds, args.write)
    workloads = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    reports = run(workloads, args.seed, args.seconds, bool(args.trace))
    for report in reports.values():
        print(json.dumps(report))
    results = {
        workload: {
            "correct": report["rows_ok"] and report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
        for workload, report in reports.items()
    }
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
