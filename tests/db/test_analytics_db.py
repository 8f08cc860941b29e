"""Tests for the analytics DB surface: batched cursors, read-only
connections and the v4 → v5 index migration."""

import sqlite3

import pytest

from repro.db import GoofiDatabase
from repro.db.schema import SCHEMA_VERSION
from repro.util.errors import DatabaseError
from tests.conftest import make_campaign
from tests.db.test_database import make_reference, make_result

V5_INDICES = (
    "idx_logged_campaign_outcome",
    "idx_logged_campaign_location_time",
)


def _index_names(path):
    conn = sqlite3.connect(path)
    names = {
        row[0]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }
    conn.close()
    return names


def _populate(db, n=10):
    campaign = make_campaign(n_experiments=n)
    db.save_campaign(campaign)
    db.log_reference(campaign, make_reference())
    db.log_experiments(campaign, [make_result(i) for i in range(n)])
    return campaign


class TestIterExperiments:
    def test_matches_load_experiments(self, db):
        _populate(db, n=23)
        loaded = db.load_experiments("test-campaign")
        streamed = list(db.iter_experiments("test-campaign", batch_size=7))
        assert [r.name for r in streamed] == [r.name for r in loaded]
        assert [r.to_dict() if hasattr(r, "to_dict") else r.experiment_data()
                for r in streamed] == [
            r.to_dict() if hasattr(r, "to_dict") else r.experiment_data()
            for r in loaded
        ]

    def test_excludes_the_reference_row(self, db):
        _populate(db, n=5)
        names = [r.name for r in db.iter_experiments("test-campaign")]
        assert all("reference" not in name for name in names)
        assert len(names) == 5

    def test_empty_campaign_yields_nothing(self, db):
        assert list(db.iter_experiments("ghost")) == []

    def test_batch_size_one(self, db):
        _populate(db, n=4)
        assert len(list(db.iter_experiments("test-campaign", 1))) == 4

    def test_invalid_batch_size(self, db):
        with pytest.raises(DatabaseError):
            next(db.iter_experiments("test-campaign", batch_size=0))


class TestReadonlyConnections:
    def test_reads_committed_rows(self, tmp_path):
        path = str(tmp_path / "ro.db")
        with GoofiDatabase(path) as db:
            _populate(db, n=6)
        with GoofiDatabase(path, readonly=True) as ro:
            assert ro.count_experiments("test-campaign") == 6
            assert len(list(ro.iter_experiments("test-campaign"))) == 6
            ro.load_reference("test-campaign")

    def test_rejects_writes(self, tmp_path):
        path = str(tmp_path / "ro.db")
        campaign = make_campaign()
        with GoofiDatabase(path) as db:
            db.save_campaign(campaign)
            db.log_reference(campaign, make_reference())
        with GoofiDatabase(path, readonly=True) as ro:
            with pytest.raises(sqlite3.OperationalError):
                ro.log_experiment(campaign, make_result(0))

    def test_memory_path_rejected(self):
        with pytest.raises(DatabaseError):
            GoofiDatabase(":memory:", readonly=True)

    def test_missing_file_is_an_error_not_a_creation(self, tmp_path):
        path = str(tmp_path / "nothing.db")
        with pytest.raises(DatabaseError):
            GoofiDatabase(path, readonly=True)
        assert not (tmp_path / "nothing.db").exists()

    def test_reader_does_not_block_writer(self, tmp_path):
        path = str(tmp_path / "wal.db")
        writer = GoofiDatabase(path)
        campaign = _populate(writer, n=8)
        reader = GoofiDatabase(path, readonly=True)
        # Hold a cursor mid-iteration while the writer keeps committing.
        iterator = reader.iter_experiments("test-campaign", batch_size=2)
        next(iterator)
        writer.log_experiment(campaign, make_result(100))
        writer.flush()
        remaining = list(iterator)
        assert len(remaining) >= 7
        # A fresh reader connection sees the newly committed row.
        with GoofiDatabase(path, readonly=True) as fresh:
            assert fresh.count_experiments("test-campaign") == 9
        reader.close()
        writer.close()

    def test_accepts_older_migratable_version(self, tmp_path):
        path = str(tmp_path / "v4.db")
        with GoofiDatabase(path):
            pass
        conn = sqlite3.connect(path)
        for name in V5_INDICES:
            conn.execute(f"DROP INDEX {name}")
        conn.execute("UPDATE SchemaInfo SET version = 4")
        conn.commit()
        conn.close()
        with GoofiDatabase(path, readonly=True) as ro:
            assert ro.count_experiments("anything") == 0
        # Read-only never migrates: the file stays v4 untouched.
        conn = sqlite3.connect(path)
        assert conn.execute(
            "SELECT version FROM SchemaInfo"
        ).fetchone()[0] == 4
        conn.close()

    def test_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "weird.db")
        with GoofiDatabase(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE SchemaInfo SET version = 999")
        conn.commit()
        conn.close()
        with pytest.raises(DatabaseError):
            GoofiDatabase(path, readonly=True)


class TestV5Migration:
    @staticmethod
    def _downgrade_to_v4(path):
        conn = sqlite3.connect(path)
        for name in V5_INDICES:
            conn.execute(f"DROP INDEX {name}")
        conn.execute("UPDATE SchemaInfo SET version = 4")
        conn.commit()
        conn.close()

    def test_fresh_db_has_the_v5_indices(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        with GoofiDatabase(path):
            pass
        names = _index_names(path)
        for index in V5_INDICES:
            assert index in names

    def test_v4_database_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "v4.db")
        with GoofiDatabase(path) as db:
            _populate(db, n=3)
        self._downgrade_to_v4(path)
        assert not (set(V5_INDICES) & _index_names(path))
        with GoofiDatabase(path) as db:
            # Data survives and the indices are back.
            assert db.count_experiments("test-campaign") == 3
        names = _index_names(path)
        for index in V5_INDICES:
            assert index in names
        conn = sqlite3.connect(path)
        assert conn.execute(
            "SELECT version FROM SchemaInfo"
        ).fetchone()[0] == SCHEMA_VERSION
        conn.close()

    def test_migration_round_trips_experiment_rows(self, tmp_path):
        path = str(tmp_path / "v4rt.db")
        with GoofiDatabase(path) as db:
            campaign = _populate(db, n=5)
            before = [r.name for r in db.load_experiments("test-campaign")]
        self._downgrade_to_v4(path)
        with GoofiDatabase(path) as db:
            after = [r.name for r in db.load_experiments("test-campaign")]
            db.log_experiment(campaign, make_result(50))
            assert db.count_experiments("test-campaign") == 6
        assert before == after

    def test_indexed_outcome_query_agrees_with_python(self, tmp_path):
        from repro.core.experiment import Termination

        path = str(tmp_path / "q.db")
        with GoofiDatabase(path) as db:
            campaign = make_campaign()
            db.save_campaign(campaign)
            db.log_reference(campaign, make_reference())
            results = []
            for i in range(12):
                kw = {}
                if i % 3 == 0:
                    kw["termination"] = Termination(
                        kind="trap", pc=1, cycle=5, trap_name="wdog"
                    )
                results.append(make_result(i, **kw))
            db.log_experiments(campaign, results)
            rows = db.query(
                "SELECT json_extract(experimentData, '$.termination.kind') "
                "AS kind, COUNT(*) AS n FROM LoggedSystemState "
                "WHERE campaignName = ? AND isReference = 0 GROUP BY kind",
                ("test-campaign",),
            )
        counts = {row["kind"]: row["n"] for row in rows}
        assert counts == {"trap": 4, "halt": 8}
