"""The database sink's flush policy.

``GoofiDatabase.log_experiment`` queues encoded rows; one
``executemany`` and one commit land the queue at ``FLUSH_ROWS`` rows,
``FLUSH_SECONDS`` after the last flush, before any other statement on
the connection, on ``flush()`` and on ``close()``. Both runners flush
when a campaign ends, stops, raises or pauses. Rows derived from an
equivalence-class representative reuse the class's encoded state.
"""

import json
import multiprocessing
import sys
import threading
import time

import pytest

from repro import observability
from repro.core import (
    CampaignController,
    ParallelCampaignController,
    ParallelConfig,
    create_target,
    worker_factory,
)
from repro.core.algorithms import StopCampaign
from repro.core.framework import register_target, unregister_target
from repro.db import GoofiDatabase, database
from repro.db.statevector import decode_state_payload, encode_state_payload
from repro.scifi.interface import ThorRDInterface
from tests.conftest import make_campaign
from tests.db.test_database import make_reference, make_result

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel runs need the fork start method",
)

#: Joins and polls in these tests give up after this long.
TIMEOUT_S = 60.0


@pytest.fixture
def no_age_flush(monkeypatch):
    """Only the trigger under test lands rows: the age trigger waits an
    hour."""
    monkeypatch.setattr(database, "FLUSH_SECONDS", 3600.0)


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "sink.db")


def committed(path, campaign_name="test-campaign"):
    """Rows a second, read-only connection sees."""
    with GoofiDatabase(path, readonly=True) as reader:
        return reader.count_experiments(campaign_name)


def open_with_reference(path, campaign):
    db = GoofiDatabase(path)
    db.log_reference(campaign, make_reference())
    return db


class TestFlushPolicy:
    def test_own_reads_see_pending_rows_others_see_commits(
        self, path, no_age_flush
    ):
        campaign = make_campaign()
        with open_with_reference(path, campaign) as db:
            for index in range(5):
                db.log_experiment(campaign, make_result(index))
            assert committed(path) == 0
            assert db.count_experiments(campaign.campaign_name) == 5
            assert committed(path) == 5
            db.log_experiment(campaign, make_result(5))
            assert committed(path) == 5
            db.flush()
            assert committed(path) == 6

    def test_other_writes_land_pending_rows_first(self, path, no_age_flush):
        campaign = make_campaign()
        with open_with_reference(path, campaign) as db:
            db.log_experiment(campaign, make_result(0))
            db.save_target("thor-rd", {"memory_size": 65536})
            assert committed(path) == 1

    def test_rows_land_at_the_flush_row_count(
        self, path, no_age_flush, monkeypatch
    ):
        monkeypatch.setattr(database, "FLUSH_ROWS", 3)
        campaign = make_campaign()
        with open_with_reference(path, campaign) as db:
            for index in range(7):
                db.log_experiment(campaign, make_result(index))
            assert committed(path) == 6

    def test_a_slow_campaign_commits_each_row(self, path, monkeypatch):
        monkeypatch.setattr(database, "FLUSH_SECONDS", 0.0)
        campaign = make_campaign()
        with open_with_reference(path, campaign) as db:
            for index in range(3):
                db.log_experiment(campaign, make_result(index))
                assert committed(path) == index + 1

    def test_close_lands_pending_rows(self, path, no_age_flush):
        campaign = make_campaign()
        db = open_with_reference(path, campaign)
        db.log_experiment(campaign, make_result(0))
        db.close()
        assert committed(path) == 1

    def test_a_failed_flush_lands_no_row_of_its_batch(
        self, path, no_age_flush
    ):
        import sqlite3

        campaign = make_campaign()
        with open_with_reference(path, campaign) as db:
            db.log_experiment(campaign, make_result(0))
            # No CampaignData row: the foreign key rejects this one.
            ghost = make_campaign(campaign_name="ghost")
            db.log_experiment(ghost, make_result(0, campaign="ghost"))
            with pytest.raises(sqlite3.IntegrityError):
                db.flush()
            assert committed(path) == 0
            db.log_experiment(campaign, make_result(1))
            db.flush()
            assert committed(path) == 1

    def test_every_flush_is_one_counted_batch(self, path, monkeypatch):
        monkeypatch.setattr(database, "FLUSH_ROWS", 4)
        campaign = make_campaign()
        obs = observability.configure(metrics=True)
        try:
            with open_with_reference(path, campaign) as db:
                db.log_experiments(
                    campaign, [make_result(i) for i in range(10)]
                )
            snapshot = obs.metrics.snapshot()
        finally:
            observability.disable()
        counters = snapshot["counters"]
        # The reference row, two full batches, and the last two rows.
        assert counters["db.batches_total"] == 4
        assert counters["db.rows_total"] == 10
        assert snapshot["histograms"]["db.batch_seconds"]["count"] == 4


class _StopAt:
    """Control hooks: the End button pressed before experiment
    ``stop_at``."""

    def __init__(self, stop_at):
        self.stop_at = stop_at

    def checkpoint(self, index):
        if index == self.stop_at:
            raise StopCampaign()

    def report(self, index, result):
        pass


class _Boom(Exception):
    pass


class _RaiseAt:
    """Control hooks whose report of experiment ``raise_at`` raises."""

    def __init__(self, raise_at):
        self.raise_at = raise_at

    def checkpoint(self, index):
        pass

    def report(self, index, result):
        if index == self.raise_at:
            raise _Boom()


def _parallel_config():
    return ParallelConfig(
        n_workers=2, shard_size=1, timeout_seconds=30.0, start_method="fork"
    )


class _SlowPort(ThorRDInterface):
    """A port whose experiments take at least 5 ms, so a pause lands
    well before a parallel campaign's workers finish."""

    def run_single_experiment(self, *args, **kwargs):
        time.sleep(0.005)
        return super().run_single_experiment(*args, **kwargs)


@pytest.fixture
def slow_target():
    register_target("thor-rd-slow")(_SlowPort)
    yield "thor-rd-slow"
    unregister_target("thor-rd-slow")


class TestRunnersLeaveNothingPending:
    """Each case is checked from a read-only connection, with the age
    trigger out of the way."""

    def test_end(self, path, no_age_flush):
        campaign = make_campaign(n_experiments=6, seed=3)
        with GoofiDatabase(path) as db:
            create_target("thor-rd").run_campaign(campaign, sink=db)
            assert committed(path) == 6

    @needs_fork
    def test_parallel_end(self, path, no_age_flush):
        from repro.core.parallel import run_parallel_campaign

        campaign = make_campaign(n_experiments=6, seed=3)
        with GoofiDatabase(path) as db:
            run_parallel_campaign(
                campaign, worker_factory("thor-rd"), sink=db,
                config=_parallel_config(),
            )
            assert committed(path) == 6

    def test_stop(self, path, no_age_flush):
        campaign = make_campaign(n_experiments=6, seed=3)
        with GoofiDatabase(path) as db:
            create_target("thor-rd").run_campaign(
                campaign, sink=db, control=_StopAt(3)
            )
            assert committed(path) == 3

    def test_exception_is_raised_after_the_flush(self, path, no_age_flush):
        campaign = make_campaign(n_experiments=6, seed=3)
        with GoofiDatabase(path) as db:
            with pytest.raises(_Boom):
                create_target("thor-rd").run_campaign(
                    campaign, sink=db, control=_RaiseAt(2)
                )
            assert committed(path) == 3

    def test_rerun(self, path, no_age_flush):
        campaign = make_campaign(n_experiments=3, seed=3)
        with GoofiDatabase(path) as db:
            target = create_target("thor-rd")
            target.run_campaign(campaign, sink=db)
            target.rerun_experiment(campaign, 1, sink=db)
            assert committed(path) == 4

    @pytest.mark.parametrize(
        "parallel", [False, pytest.param(True, marks=needs_fork)]
    )
    def test_pause(self, path, no_age_flush, slow_target, parallel):
        n_experiments = 40
        campaign = make_campaign(n_experiments=n_experiments, seed=3)
        with GoofiDatabase(path) as db:
            if parallel:
                controller = ParallelCampaignController(
                    worker_factory(slow_target), sink=db,
                    config=_parallel_config(),
                )
            else:
                controller = CampaignController(
                    create_target(slow_target), sink=db
                )
            controller.add_listener(
                lambda progress: controller.pause()
                if progress.n_done == 4 else None
            )
            thread = controller.run_in_thread(campaign)
            try:
                # The runner lands what it reported before it waits.
                deadline = time.monotonic() + TIMEOUT_S
                while True:
                    n_done = controller.progress.n_done
                    if n_done >= 4 and committed(path) == n_done:
                        break
                    assert time.monotonic() < deadline, "no flush on pause"
                    time.sleep(0.01)
                assert controller.paused
                assert n_done < n_experiments
            finally:
                controller.resume()
                thread.join(timeout=TIMEOUT_S)
            assert not thread.is_alive()
            assert controller.progress.state == "finished"
            assert committed(path) == n_experiments


class _Tee:
    """A sink that logs into ``db`` and keeps every result it logged."""

    def __init__(self, db):
        self.db = db
        self.results = []

    def log_reference(self, campaign, reference):
        self.db.log_reference(campaign, reference)

    def log_experiment(self, campaign, result):
        self.results.append(result)
        self.db.log_experiment(campaign, result)

    def flush(self):
        self.db.flush()


class _CountingEncoder:
    def __init__(self):
        self.calls = 0

    def __call__(self, final, detail=None):
        self.calls += 1
        return encode_state_payload(final, detail)


class TestDerivedRowReuse:
    def test_equivalence_rows_equal_rows_encoded_one_by_one(
        self, db, monkeypatch
    ):
        encoder = _CountingEncoder()
        monkeypatch.setattr(database, "encode_state_payload", encoder)
        campaign = make_campaign(
            campaign_name="equiv",
            location_patterns=[
                "scan:internal/cpu.regfile.r5",
                "scan:internal/cpu.regfile.r10",
            ],
            use_preinjection=True,
            preinjection_mode="equivalence",
            n_experiments=300,
            seed=5,
        )
        sink = _Tee(db)
        create_target("thor-rd").run_campaign(campaign, sink=sink)
        derived = [r for r in sink.results if r.derived_from is not None]
        assert len(derived) > len(sink.results) // 2
        for result in sink.results:
            row = db.query(
                "SELECT experimentData, stateVector FROM LoggedSystemState "
                "WHERE experimentName = ?",
                (result.name,),
            )[0]
            assert bytes(row["stateVector"]) == encode_state_payload(
                result.state_vector, result.detail_states
            )
            assert row["experimentData"] == json.dumps(
                result.experiment_data(), sort_keys=True
            )
        # One encode per executed row, one per class with derived
        # members, and the reference.
        classes = {r.derived_from for r in derived}
        executed = len(sink.results) - len(derived)
        assert encoder.calls <= executed + len(classes) + 1

    @staticmethod
    def _log_representative(db):
        """Log a reference and the representative row (index 0) that
        hand-built derived rows point at; returns the campaign and the
        representative's name."""
        campaign = make_campaign()
        db.log_reference(campaign, make_reference())
        representative = make_result(0)
        db.log_experiment(campaign, representative)
        return campaign, representative.name

    def test_a_derived_row_with_other_state_is_encoded_fresh(self, db):
        campaign, rep = self._log_representative(db)
        states = {
            1: {"a": 1},
            2: {"a": 2},
            3: {"a": 2},
            4: {"a": 1, "b": 0},
        }
        for index, state in states.items():
            db.log_experiment(
                campaign,
                make_result(index, state_vector=state, derived_from=rep),
            )
        for index, state in states.items():
            row = db.query(
                "SELECT stateVector FROM LoggedSystemState "
                "WHERE experimentName = ?",
                (make_result(index).name,),
            )[0]
            assert bytes(row["stateVector"]) == encode_state_payload(state)
            assert decode_state_payload(row["stateVector"])["final"] == state

    def test_detail_rows_are_never_reused(self, db):
        campaign, rep = self._log_representative(db)
        details = [[{"a": 1}], [{"a": 2}]]
        for index, detail in enumerate(details, start=1):
            db.log_experiment(
                campaign,
                make_result(index, derived_from=rep, detail_states=detail),
            )
        loaded = db.load_experiments("test-campaign")
        assert [r.detail_states for r in loaded[1:]] == details

    def test_a_reference_empties_the_class_cache(self, db, monkeypatch):
        campaign, rep = self._log_representative(db)
        encoder = _CountingEncoder()
        monkeypatch.setattr(database, "encode_state_payload", encoder)
        db.log_experiment(campaign, make_result(1, derived_from=rep))
        db.log_experiment(campaign, make_result(2, derived_from=rep))
        assert encoder.calls == 1
        db.log_reference(campaign, make_reference())
        db.log_experiment(campaign, make_result(3, derived_from=rep))
        assert encoder.calls == 3  # the reference and a fresh class blob


class TestConcurrentReadsAndWrites:
    def test_reader_thread_sees_every_row_once_and_counts_never_drop(
        self, path, monkeypatch
    ):
        monkeypatch.setattr(database, "FLUSH_ROWS", 7)
        n_rows = 600
        campaign = make_campaign()
        db = open_with_reference(path, campaign)
        writer_done = threading.Event()
        counts = []
        errors = []

        def write():
            try:
                for index in range(n_rows):
                    db.log_experiment(campaign, make_result(index))
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                writer_done.set()

        def read():
            try:
                while not writer_done.is_set():
                    counts.append(db.count_experiments("test-campaign"))
                    counts.append(len(db.completed_indices("test-campaign")))
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write),
                threading.Thread(target=read),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            assert counts == sorted(counts)
            assert db.completed_indices("test-campaign") == list(range(n_rows))
            assert committed(path) == n_rows
        finally:
            db.close()
