"""Self-tests of goofibench at tiny campaign sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/goofibench -q
"""

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import rep
import run
from spans import SELF_TIME_LAYERS

BENCHMARK_JSON = rep.ROOT / "BENCHMARK.json"

#: Experiments per workload: enough rows for every path to run once.
TINY = {"cold-scifi": 8, "warm-scifi": 8, "equivalence": 80, "detail-rerun": 3}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One untraced and one traced tiny rep per workload, the workload's
    oracle digest at the same size, and the directory they wrote to."""
    workdir = tmp_path_factory.mktemp("goofibench")
    records = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rep, "ANALYSIS_MIN_S", 0.0)
        for workload, n in TINY.items():
            plain = rep.run_rep(workload, 1, workdir, n_experiments=n, setup_calls=1)
            traced = rep.run_rep(
                workload,
                1,
                workdir,
                trace_path=workdir / f"{workload}.jsonl",
                n_experiments=n,
            )
            oracle = rep.oracle_digest(workload, 1, workdir, n_experiments=n)
            records[workload] = (plain, traced, oracle["digest"])
    return workdir, records


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tracing_leaves_rows_identical(tiny, workload):
    plain, traced, oracle = tiny[1][workload]
    assert plain["rows"] == traced["rows"] == TINY[workload]
    assert plain["digest"] == traced["digest"] == oracle


@pytest.mark.parametrize("workload", sorted(TINY))
def test_span_self_times_sum_to_campaign_wall(tiny, workload):
    _, traced, _ = tiny[1][workload]
    wall = traced["campaign_s"]
    assert abs(traced["span_self_sum_s"] - wall) <= 0.05 * wall
    charged = sum(traced["layers"][f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
    assert charged == pytest.approx(traced["span_self_sum_s"], rel=1e-6)


def test_trace_file_spans_nest(tiny):
    workdir, _ = tiny
    lines = (workdir / "warm-scifi.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans[0]["name"] == "campaign" and spans[0]["parent"] is None
    for span in spans[1:]:
        parent = spans[span["parent"]]
        assert parent["start_ns"] <= span["start_ns"]
        assert span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def _tamper(db_path: Path, expression: str) -> None:
    with sqlite3.connect(db_path) as conn:
        conn.execute(
            f"UPDATE LoggedSystemState SET experimentData = {expression} "
            "WHERE experimentName = 'warm-scifi-exp00003'"
        )


def test_tampered_row_fails_digest_check(tiny, tmp_path):
    workdir, records = tiny
    plain = records["warm-scifi"][0]
    db_path = tmp_path / "warm-scifi.db"
    shutil.copy(workdir / "warm-scifi-1.db", db_path)
    honest = rep.db_digest(db_path, "warm-scifi")
    assert honest["digest"] == plain["digest"]
    # Wall time is not part of the canonical row...
    _tamper(db_path, "json_set(experimentData, '$.wall_seconds', 99.0)")
    assert rep.db_digest(db_path, "warm-scifi") == honest
    # ...but every outcome field is.
    _tamper(
        db_path,
        "json_set(experimentData, '$.termination.cycle', "
        "json_extract(experimentData, '$.termination.cycle') + 1)",
    )
    tampered = dict(plain, **rep.db_digest(db_path, "warm-scifi"))
    assert tampered["digest"] != honest["digest"]
    expected = {"digest": honest["digest"], "source": "test"}
    for record, ok in ((plain, True), (tampered, False)):
        report = run._report("warm-scifi", 1, {False: [record]}, expected, False)
        assert report["rows_ok"] is ok


def test_metric_names_match_benchmark_json(tiny):
    bench = json.loads(BENCHMARK_JSON.read_text())
    plain, traced, _ = tiny[1]["warm-scifi"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(rep.WORKLOADS)
    assert list(run.end_to_end([plain])) == [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert sorted(run.per_layer([plain], [traced])) == sorted(layer_names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"])


def test_expected_warm_rows_equal_cold_rows():
    digests = run.load_expected()
    assert set(digests) == set(run.WORKLOAD_NAMES)
    assert digests["warm-scifi"] == digests["cold-scifi"]


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "goofibench"
    shutil.copytree(Path(run.__file__).parent, bench_dir)
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "cold-scifi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
