"""Parallel campaigns under observability: the acceptance scenario.

Runs an E12-style campaign serially and through the multiprocessing pool
with tracing + metrics enabled, and checks the tentpole claims: per-worker
experiment counts sum to the serial totals, every trace file on disk is
schema-valid JSONL, and the DB batch counters see every row.
"""

import multiprocessing

import pytest

from repro import observability
from repro.core import create_target, worker_factory
from repro.core.parallel import ParallelConfig, run_parallel_campaign
from repro.db import GoofiDatabase
from repro.observability.report import sum_counters, summarize_trace
from repro.observability.tracer import read_trace
from repro.observability import worker_trace_path
from tests.conftest import make_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel observability tests need the fork start method",
)

N_EXPERIMENTS = 24
N_WORKERS = 2


def _parallel_config(**overrides):
    defaults = dict(
        n_workers=N_WORKERS,
        shard_size=3,
        timeout_seconds=60.0,
        max_retries=1,
        start_method="fork",
    )
    defaults.update(overrides)
    return ParallelConfig(**defaults)


def test_worker_counts_sum_to_serial_totals(tmp_path):
    campaign = make_campaign(n_experiments=N_EXPERIMENTS, seed=7)

    # Serial leg.
    observability.configure(metrics=True)
    create_target("thor-rd").run_campaign(campaign)
    serial_total = observability.get_observability().metrics.snapshot()[
        "counters"
    ]["experiments_total"]
    observability.disable()
    assert serial_total == N_EXPERIMENTS

    # Parallel leg.
    trace_path = str(tmp_path / "trace.jsonl")
    obs = observability.configure(trace_path=trace_path, metrics=True)
    sink = run_parallel_campaign(
        campaign, worker_factory("thor-rd"), config=_parallel_config()
    )
    obs.flush()
    snapshot = obs.metrics.snapshot()
    observability.disable()

    assert len(sink.results) == N_EXPERIMENTS
    # The tentpole acceptance criterion: per-worker experiment counts
    # sum to the serial total.
    assert sum_counters(snapshot, "experiments_total") == serial_total
    per_worker = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.endswith("experiments_total")
    }
    assert len(per_worker) >= 1
    assert all(name.startswith("worker") for name in per_worker)
    assert all(value > 0 for value in per_worker.values())


def test_parallel_trace_files_are_valid_jsonl(tmp_path):
    campaign = make_campaign(n_experiments=12, seed=9)
    trace_path = str(tmp_path / "trace.jsonl")
    obs = observability.configure(trace_path=trace_path, metrics=True)
    run_parallel_campaign(
        campaign, worker_factory("thor-rd"), config=_parallel_config()
    )
    obs.flush()
    observability.disable()

    # Parent file: the campaign span plus worker lifecycle events.
    parent_records = read_trace(trace_path)
    assert parent_records, "parent trace is empty"
    summary = summarize_trace(parent_records)
    assert "campaign" in summary["spans"]
    assert summary["events"].get("worker-spawn", 0) >= 1

    # Every worker wrote a schema-valid sibling file with experiments.
    worker_experiments = 0
    worker_files = 0
    for worker_id in range(N_WORKERS * 2):  # respawns get fresh ids
        sibling = worker_trace_path(trace_path, worker_id)
        try:
            records = read_trace(sibling)
        except FileNotFoundError:
            continue
        worker_files += 1
        worker_summary = summarize_trace(records)
        worker_experiments += (
            worker_summary["spans"].get("experiment", {}).get("count", 0)
        )
    assert worker_files >= 1
    assert worker_experiments == 12


def test_db_batch_counters_cover_every_row(tmp_path):
    campaign = make_campaign(n_experiments=12, seed=3)
    obs = observability.configure(metrics=True)
    db = GoofiDatabase(str(tmp_path / "campaign.db"))
    run_parallel_campaign(
        campaign, worker_factory("thor-rd"), sink=db,
        config=_parallel_config(),
    )
    snapshot = obs.metrics.snapshot()
    observability.disable()

    assert db.count_experiments(campaign.campaign_name) == 12
    counters = snapshot["counters"]
    assert counters.get("db.rows_total", 0) == 12
    assert counters.get("db.batches_total", 0) >= 1
    batch = snapshot["histograms"].get("db.batch_seconds")
    assert batch is not None and batch["count"] == counters["db.batches_total"]
    db.close()


def test_parallel_results_unchanged_by_observability(tmp_path):
    """Instrumentation must not perturb campaign results: the parallel
    run with observability on logs exactly the serial rows."""
    from repro.core.parallel import canonical_experiment_rows

    campaign = make_campaign(n_experiments=10, seed=21)
    serial_db = GoofiDatabase(str(tmp_path / "serial.db"))
    create_target("thor-rd").run_campaign(campaign, sink=serial_db)

    observability.configure(
        trace_path=str(tmp_path / "trace.jsonl"), metrics=True
    )
    parallel_db = GoofiDatabase(str(tmp_path / "parallel.db"))
    run_parallel_campaign(
        campaign, worker_factory("thor-rd"), sink=parallel_db,
        config=_parallel_config(),
    )
    observability.disable()

    assert canonical_experiment_rows(
        serial_db, campaign.campaign_name
    ) == canonical_experiment_rows(parallel_db, campaign.campaign_name)
    serial_db.close()
    parallel_db.close()
