"""Tests for the parallel campaign execution engine (repro.core.parallel).

The failure-injection ports below are registered as extra targets so the
worker factory can rebuild them inside worker processes. They force the
start method to ``fork`` (the registrations and environment travel with
the fork); on platforms without fork the whole module is skipped.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import (
    CampaignController,
    ParallelCampaignController,
    ParallelConfig,
    create_target,
    worker_factory,
)
from repro.core.algorithms import _ListSink, _NullControl
from repro.core.framework import register_target, unregister_target
from repro.core.parallel import (
    _ParallelRun,
    _Worker,
    canonical_experiment_rows,
    run_parallel_campaign,
)
from repro.db import GoofiDatabase
from repro.observability import configure, disable, get_observability
from repro.scifi.interface import ThorRDInterface
from repro.util.errors import CampaignError
from tests.conftest import make_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)

#: Environment variable naming a flag file for the crash-once port.
_CRASH_FLAG_ENV = "GOOFI_TEST_CRASH_FLAG"


class HangingPort(ThorRDInterface):
    """A port whose experiment #2 hangs forever (watchdog fodder)."""

    def run_single_experiment(self, index, plan=None, reference=None):
        if index == 2:
            time.sleep(3600)
        return super().run_single_experiment(index, plan, reference)


class CrashOncePort(ThorRDInterface):
    """A port whose experiment #1 kills its process on the first attempt
    only (flag file marks the attempt) — exercises bounded retry."""

    def run_single_experiment(self, index, plan=None, reference=None):
        if index == 1:
            flag = os.environ.get(_CRASH_FLAG_ENV, "")
            if flag and not os.path.exists(flag):
                with open(flag, "w"):
                    pass
                os._exit(3)
        return super().run_single_experiment(index, plan, reference)


@pytest.fixture(scope="module", autouse=True)
def _extra_targets():
    register_target("thor-rd-hang")(HangingPort)
    register_target("thor-rd-crash")(CrashOncePort)
    yield
    unregister_target("thor-rd-hang")
    unregister_target("thor-rd-crash")


def fast_config(**overrides):
    defaults = dict(
        n_workers=2,
        shard_size=3,
        timeout_seconds=30.0,
        max_retries=1,
        start_method="fork",
    )
    defaults.update(overrides)
    return ParallelConfig(**defaults)


class TestParallelMatchesSerial:
    def test_results_identical_to_serial(self, db):
        campaign = make_campaign(n_experiments=10, seed=77)
        create_target("thor-rd").run_campaign(campaign, sink=db)
        par_db = GoofiDatabase(":memory:")
        run_parallel_campaign(
            campaign, worker_factory("thor-rd"), sink=par_db,
            config=fast_config(),
        )
        serial = canonical_experiment_rows(db, campaign.campaign_name)
        parallel = canonical_experiment_rows(par_db, campaign.campaign_name)
        assert len(parallel) == 10
        assert serial == parallel
        par_db.close()

    def test_dynamic_pruning_rows_identical_to_serial(self, db):
        """Workers prune with their own dynamic pre-injection oracle (a
        worker builds no liveness-exit oracle to reuse) and log the
        serial rows."""
        campaign = make_campaign(
            campaign_name="parallel-dynamic",
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=[
                "scan:internal/cpu.regfile.*",
                "scan:internal/dcache.*",
            ],
            n_experiments=16,
            seed=3,
            use_preinjection=True,
            preinjection_mode="dynamic",
        )
        create_target("thor-rd").run_campaign(campaign, sink=db)
        par_db = GoofiDatabase(":memory:")
        configure(metrics=True)
        try:
            run_parallel_campaign(
                campaign, worker_factory("thor-rd"), sink=par_db,
                config=fast_config(),
            )
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert sum(
            counters.get(f"worker{n}.preinjection.rejected_total", 0)
            for n in range(2)
        ) > 0
        serial = canonical_experiment_rows(db, campaign.campaign_name)
        parallel = canonical_experiment_rows(par_db, campaign.campaign_name)
        assert len(parallel) == 16
        assert serial == parallel
        par_db.close()

    def test_list_sink_results_arrive_in_index_order(self):
        campaign = make_campaign(n_experiments=9, seed=5)
        sink = run_parallel_campaign(
            campaign, worker_factory("thor-rd"), config=fast_config()
        )
        assert [r.index for r in sink.results] == list(range(9))
        assert all(r.termination is not None for r in sink.results)

    def test_single_worker_pool(self):
        campaign = make_campaign(n_experiments=4)
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=fast_config(n_workers=1, shard_size=2),
        )
        assert len(sink.results) == 4


class TestEarlyExitOff:
    def test_parent_derives_nothing(self, db):
        """``ParallelConfig(early_exit=False)`` reaches the parent's
        schedule: no row is derived from the golden run, the one worker
        executes every index, and the rows equal a serial run with early
        exit off."""
        # Every dcache flip here is dead: with early exit on, the parent
        # would derive each row from the golden run.
        campaign = make_campaign(
            campaign_name="parallel-no-early-exit",
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=["scan:internal/dcache.*"],
            n_experiments=8,
            seed=20,
        )
        serial = create_target("thor-rd")
        serial.early_exit = False
        serial.run_campaign(campaign, sink=db)
        par_db = GoofiDatabase(":memory:")
        configure(metrics=True)
        try:
            run_parallel_campaign(
                campaign,
                worker_factory("thor-rd"),
                sink=par_db,
                config=fast_config(n_workers=1, early_exit=False),
            )
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert counters.get("divergence.liveness_exits", 0) == 0
        assert counters.get("worker0.experiments_total") == 8
        assert canonical_experiment_rows(
            par_db, campaign.campaign_name
        ) == canonical_experiment_rows(db, campaign.campaign_name)
        par_db.close()


class TestParallelController:
    def test_progress_and_state(self):
        controller = ParallelCampaignController(
            worker_factory("thor-rd"), config=fast_config()
        )
        campaign = make_campaign(n_experiments=8)
        snapshots = []
        controller.add_listener(lambda p: snapshots.append(p.n_done))
        controller.run(campaign)
        assert controller.progress.state == "finished"
        assert controller.progress.n_done == 8
        assert controller.progress.n_workers == 2
        # Ordered progress snapshots: n_done climbs monotonically.
        assert snapshots == sorted(snapshots)
        assert sum(controller.progress.terminations.values()) == 8

    def test_stop_from_listener(self):
        controller = ParallelCampaignController(
            worker_factory("thor-rd"), config=fast_config()
        )
        campaign = make_campaign(n_experiments=40)
        controller.add_listener(
            lambda p: controller.stop() if p.n_done >= 3 else None
        )
        sink = controller.run(campaign)
        assert controller.progress.state == "stopped"
        assert 3 <= len(sink.results) < 40
        assert all(r.termination is not None for r in sink.results)

    def test_stop_leaves_derived_rows_to_the_resume(self, db):
        """Rows derived from the golden run are ready from the start; a
        stop must not log every one of them, and a resume derives the
        rest to the serial rows."""
        campaign = make_campaign(
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=[
                "scan:internal/cpu.regfile.*",
                "scan:internal/cpu.psr",
                "scan:internal/dcache.*",
            ],
            checkpoint_interval=64,
            n_experiments=40,
            seed=3,
        )
        first = ParallelCampaignController(
            worker_factory("thor-rd"), sink=db, config=fast_config()
        )
        first.add_listener(lambda p: first.stop() if p.n_done >= 3 else None)
        first.run(campaign)
        assert first.progress.state == "stopped"
        # 35 of the 40 rows are derived; the ready prefix at the stop
        # holds at most a few executed rows and the derived runs between.
        assert 3 <= db.count_experiments(campaign.campaign_name) <= 25
        second = ParallelCampaignController(
            worker_factory("thor-rd"), sink=db, config=fast_config()
        )
        second.run(campaign, resume=True)
        serial_db = GoofiDatabase(":memory:")
        create_target("thor-rd").run_campaign(campaign, sink=serial_db)
        assert canonical_experiment_rows(
            db, campaign.campaign_name
        ) == canonical_experiment_rows(serial_db, campaign.campaign_name)
        serial_db.close()

    def test_pause_resume(self):
        controller = ParallelCampaignController(
            worker_factory("thor-rd"), config=fast_config()
        )
        campaign = make_campaign(n_experiments=12)
        paused_once = []

        def listener(progress):
            if progress.n_done == 2 and not paused_once:
                paused_once.append(True)
                controller.pause()

        controller.add_listener(listener)

        import threading

        def resumer():
            while not controller.paused:
                time.sleep(0.01)
            time.sleep(0.2)
            controller.resume()

        thread = threading.Thread(target=resumer)
        thread.start()
        sink = controller.run(campaign)
        thread.join()
        assert controller.progress.state == "finished"
        assert len(sink.results) == 12

    def test_resume_from_sink(self, db):
        campaign = make_campaign(n_experiments=12, seed=21)
        first = ParallelCampaignController(
            worker_factory("thor-rd"), sink=db, config=fast_config()
        )
        first.add_listener(
            lambda p: first.stop() if p.n_done >= 4 else None
        )
        first.run(campaign)
        done_before = db.count_experiments(campaign.campaign_name)
        assert 0 < done_before < 12
        second = ParallelCampaignController(
            worker_factory("thor-rd"), sink=db, config=fast_config()
        )
        second.run(campaign, resume=True)
        assert second.progress.state == "finished"
        assert second.progress.n_done == 12
        assert sum(second.progress.terminations.values()) == 12
        # The resumed-and-completed campaign matches a pure serial run.
        serial_db = GoofiDatabase(":memory:")
        create_target("thor-rd").run_campaign(campaign, sink=serial_db)
        assert canonical_experiment_rows(
            db, campaign.campaign_name
        ) == canonical_experiment_rows(serial_db, campaign.campaign_name)
        serial_db.close()


class TestDrainAfterStop:
    """After End, messages already in a worker's pipe are read by
    ``_drain_after_stop``. Fed through an in-process pipe, no worker
    process runs."""

    def _drain(self, *messages):
        parent_conn, child_conn = multiprocessing.Pipe()
        configure(metrics=True)
        try:
            run = _ParallelRun(
                make_campaign(n_experiments=2),
                worker_factory("thor-rd"),
                _ListSink(),
                _NullControl(),
                fast_config(),
                None,
            )
            worker = _Worker(0, parent_conn, process=None)
            worker.dispatch([0, 1], timeout=None)
            run.workers = [worker]
            for message in messages:
                child_conn.send(message)
            run._drain_after_stop()
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
            parent_conn.close()
            child_conn.close()
        return run, worker, counters

    def test_drained_done_merges_the_metrics_delta(self):
        delta = {
            "counters": {"experiments_total": 2},
            "gauges": {},
            "histograms": {},
        }
        _, worker, counters = self._drain(("done", delta))
        assert counters.get("worker0.experiments_total") == 2
        assert not worker.busy
        assert not worker.shard

    def test_drained_error_only_leaves_the_shard(self):
        run, worker, _ = self._drain(("error", 1, "boom"))
        # Not retried and not logged as a failure: a resume re-runs it.
        assert list(worker.shard) == [0]
        assert not run.retry_queue and run.failures == 0


class TestFailureHandling:
    def test_watchdog_logs_worker_failure(self):
        campaign = make_campaign(n_experiments=5, seed=3)
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd-hang"),
            config=fast_config(
                n_workers=2, shard_size=1, timeout_seconds=1.5, max_retries=0
            ),
        )
        by_index = {r.index: r for r in sink.results}
        assert sorted(by_index) == [0, 1, 2, 3, 4]
        assert by_index[2].termination.kind == "worker-failure"
        assert "watchdog" in by_index[2].termination.trap_detail
        others = [by_index[i].termination.kind for i in (0, 1, 3, 4)]
        assert all(kind != "worker-failure" for kind in others)

    def test_watchdog_failure_counted_in_progress(self):
        controller = ParallelCampaignController(
            worker_factory("thor-rd-hang"),
            config=fast_config(
                n_workers=2, shard_size=1, timeout_seconds=1.5, max_retries=0
            ),
        )
        controller.run(make_campaign(n_experiments=5, seed=3))
        assert controller.progress.n_worker_failures == 1
        assert controller.progress.terminations.get("worker-failure") == 1

    def test_crashed_worker_retried_to_success(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-once.flag"
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        campaign = make_campaign(n_experiments=6, seed=9)
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd-crash"),
            config=fast_config(n_workers=2, shard_size=2, max_retries=1),
        )
        assert flag.exists()  # the crash really happened
        by_index = {r.index: r for r in sink.results}
        assert sorted(by_index) == list(range(6))
        # The retried experiment completed normally on a fresh worker.
        assert by_index[1].termination.kind != "worker-failure"
        # And the result set still matches a plain serial run.
        serial = create_target("thor-rd").run_campaign(campaign)
        assert {
            (r.index, r.termination.kind) for r in serial.results
        } == {(r.index, r.termination.kind) for r in sink.results}

    def test_crash_without_retry_budget_is_logged(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-hard.flag"
        monkeypatch.setenv(_CRASH_FLAG_ENV, str(flag))
        campaign = make_campaign(n_experiments=4, seed=9)
        # max_retries=0 and the crash flag cleared each attempt would
        # still only crash once; with zero retries the first crash is
        # already terminal for the experiment.
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd-crash"),
            config=fast_config(n_workers=2, shard_size=1, max_retries=0),
        )
        by_index = {r.index: r for r in sink.results}
        assert by_index[1].termination.kind == "worker-failure"
        assert len(sink.results) == 4


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_workers=0),
            dict(shard_size=0),
            dict(max_retries=-1),
            dict(timeout_seconds=0.0),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        config = ParallelConfig(**kwargs)
        with pytest.raises(CampaignError):
            config.validate()

    def test_worker_factory_rejects_unknown_target(self):
        with pytest.raises(Exception):
            worker_factory("no-such-target")


class TestBatchedSink:
    def test_log_experiments_batch(self, db):
        campaign = make_campaign(n_experiments=5)
        sink = create_target("thor-rd").run_campaign(campaign)
        db.save_campaign(campaign)
        db.log_experiments(campaign, sink.results)
        assert db.count_experiments(campaign.campaign_name) == 5
        loaded = db.load_experiments(campaign.campaign_name)
        assert {r.name for r in loaded} == {r.name for r in sink.results}

    def test_log_experiments_empty_batch_is_noop(self, db):
        campaign = make_campaign(n_experiments=1)
        db.save_campaign(campaign)
        db.log_experiments(campaign, [])
        assert db.count_experiments(campaign.campaign_name) == 0

    def test_file_database_uses_wal(self, tmp_path):
        db = GoofiDatabase(str(tmp_path / "campaign.db"))
        mode = db.query("PRAGMA journal_mode")[0][0]
        assert str(mode).lower() == "wal"
        db.close()

    def test_memory_database_skips_wal(self, db):
        mode = db.query("PRAGMA journal_mode")[0][0]
        assert str(mode).lower() != "wal"


class TestSerialControllerStillWorks:
    """The executor refactor must leave the serial controller intact."""

    def test_serial_controller_unchanged(self, thor_target):
        controller = CampaignController(thor_target)
        sink = controller.run(make_campaign(n_experiments=3))
        assert len(sink.results) == 3
        assert controller.progress.n_workers == 1
