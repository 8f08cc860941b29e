"""Edge-case tests for the database layer."""

import sqlite3

import pytest

from repro.db import GoofiDatabase
from repro.db.schema import SCHEMA_VERSION
from repro.util.errors import DatabaseError


class TestSchemaVersioning:
    def test_fresh_db_stamps_version(self, tmp_path):
        path = str(tmp_path / "v.db")
        with GoofiDatabase(path):
            pass
        conn = sqlite3.connect(path)
        row = conn.execute("SELECT version FROM SchemaInfo").fetchone()
        conn.close()
        assert row[0] == SCHEMA_VERSION

    def test_reopening_same_version_ok(self, tmp_path):
        path = str(tmp_path / "v.db")
        with GoofiDatabase(path):
            pass
        with GoofiDatabase(path):
            pass

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "v.db")
        with GoofiDatabase(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE SchemaInfo SET version = 999")
        conn.commit()
        conn.close()
        with pytest.raises(DatabaseError):
            GoofiDatabase(path)


class TestBlobIntegrity:
    def test_corrupted_state_vector_surfaces_as_database_error(self, db):
        from tests.conftest import make_campaign
        from tests.db.test_database import make_reference, make_result

        campaign = make_campaign()
        db.log_reference(campaign, make_reference())
        db.log_experiment(campaign, make_result(0))
        db._conn.execute(
            "UPDATE LoggedSystemState SET stateVector = X'DEADBEEF' "
            "WHERE isReference = 0"
        )
        db._conn.commit()
        with pytest.raises(DatabaseError):
            db.load_experiments(campaign.campaign_name)

    def test_upsert_overwrites_experiment(self, db):
        from tests.conftest import make_campaign
        from tests.db.test_database import make_reference, make_result

        campaign = make_campaign()
        db.log_reference(campaign, make_reference())
        db.log_experiment(campaign, make_result(0, outputs={"total": 1}))
        db.log_experiment(campaign, make_result(0, outputs={"total": 2}))
        assert db.count_experiments(campaign.campaign_name) == 1
        assert db.load_experiments(campaign.campaign_name)[0].outputs == {
            "total": 2
        }


class TestCompletedIndicesEdges:
    def test_empty_campaign(self, db):
        assert db.completed_indices("nothing") == []

    def test_out_of_order_logging(self, db):
        from tests.conftest import make_campaign
        from tests.db.test_database import make_reference, make_result

        campaign = make_campaign()
        db.log_reference(campaign, make_reference())
        for index in (4, 0, 2):
            db.log_experiment(campaign, make_result(index))
        assert db.completed_indices(campaign.campaign_name) == [0, 2, 4]


class TestSchemaMigration:
    @staticmethod
    def _downgrade_to_v2(path):
        """Rewrite a fresh DB into v2 shape: no derivedFrom column."""
        conn = sqlite3.connect(path)
        columns = [
            row[1]
            for row in conn.execute(
                "PRAGMA table_info(LoggedSystemState)"
            )
        ]
        assert "derivedFrom" in columns
        if sqlite3.sqlite_version_info >= (3, 35, 0):
            conn.execute(
                "ALTER TABLE LoggedSystemState DROP COLUMN derivedFrom"
            )
        else:  # pragma: no cover - old sqlite fallback
            keep = ", ".join(c for c in columns if c != "derivedFrom")
            conn.executescript(
                "CREATE TABLE _old AS SELECT {0} FROM LoggedSystemState;"
                "DROP TABLE LoggedSystemState;"
                "ALTER TABLE _old RENAME TO LoggedSystemState;".format(keep)
            )
        conn.execute("UPDATE SchemaInfo SET version = 2")
        conn.commit()
        conn.close()

    def test_v2_database_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "v2.db")
        with GoofiDatabase(path):
            pass
        self._downgrade_to_v2(path)
        with GoofiDatabase(path):
            pass
        conn = sqlite3.connect(path)
        version = conn.execute(
            "SELECT version FROM SchemaInfo"
        ).fetchone()[0]
        columns = [
            row[1]
            for row in conn.execute(
                "PRAGMA table_info(LoggedSystemState)"
            )
        ]
        conn.close()
        assert version == SCHEMA_VERSION
        assert "derivedFrom" in columns

    def test_migrated_database_round_trips_derived_from(self, tmp_path):
        from tests.conftest import make_campaign
        from tests.db.test_database import make_reference, make_result

        path = str(tmp_path / "v2rt.db")
        with GoofiDatabase(path):
            pass
        self._downgrade_to_v2(path)
        campaign = make_campaign()
        with GoofiDatabase(path) as db:
            db.log_reference(campaign, make_reference())
            rep = make_result(0)
            member = make_result(1)
            member.derived_from = rep.name
            db.log_experiment(campaign, rep)
            db.log_experiment(campaign, member)
            loaded = db.load_experiments(campaign.campaign_name)
        by_index = {r.index: r for r in loaded}
        assert by_index[0].derived_from is None
        assert by_index[1].derived_from == rep.name


class TestFabricEraDatabase:
    """The retired campaign fabric (``goofi serve``) tagged each RunMeta
    row with its job and tenant and kept one FabricJob row per job, in
    schema v4. Nothing writes either any more; a database it wrote still
    opens read-only and read-write, its tags stay readable and its job
    rows stay as they were."""

    @staticmethod
    def _fabric_db(path):
        """A v4 database holding one campaign run as the fabric logged
        it; returns the run's id."""
        import json

        from repro.observability.runmeta import campaign_config_hash
        from tests.conftest import make_campaign
        from tests.db.test_database import make_reference, make_result

        campaign = make_campaign(n_experiments=4)
        with GoofiDatabase(path) as db:
            db.log_reference(campaign, make_reference())
            db.log_experiments(campaign, [make_result(i) for i in range(4)])
        conn = sqlite3.connect(path)
        conn.executescript(
            "DROP INDEX idx_logged_campaign_outcome;"
            "DROP INDEX idx_logged_campaign_location_time;"
            "UPDATE SchemaInfo SET version = 4;"
        )
        run_id = conn.execute(
            "INSERT INTO RunMeta(campaignName, toolVersion, seed, "
            "configHash, nWorkers, nExperiments, state, finishedAt, "
            "metaVersion, jobId, tenant) "
            "VALUES (?, '0.1.0', ?, ?, 2, 4, 'finished', "
            "CURRENT_TIMESTAMP, 2, 'job-000001', 'carol')",
            (
                campaign.campaign_name,
                campaign.seed,
                campaign_config_hash(campaign),
            ),
        ).lastrowid
        spec = {
            "campaign": campaign.to_dict(),
            "tenant": "carol",
            "priority": 0,
            "n_workers": 2,
            "use_golden_cache": True,
        }
        result = {"state": "finished", "n_total": 4, "n_done": 4}
        conn.execute(
            "INSERT INTO FabricJob(jobId, tenant, state, priority, "
            "campaignName, spec, submittedAt, startedAt, finishedAt, "
            "allocatedWorkers, runId, error, result) "
            "VALUES ('job-000001', 'carol', 'finished', 0, ?, ?, "
            "1700000000.0, 1700000000.5, 1700000002.0, 2, ?, NULL, ?)",
            (
                campaign.campaign_name,
                json.dumps(spec, sort_keys=True),
                run_id,
                json.dumps(result, sort_keys=True),
            ),
        )
        conn.commit()
        conn.close()
        return run_id

    @staticmethod
    def _job_rows(path):
        conn = sqlite3.connect(path)
        try:
            return conn.execute("SELECT * FROM FabricJob").fetchall()
        finally:
            conn.close()

    def test_tags_and_jobs_survive_every_open(self, tmp_path, capsys):
        from repro.observability.cli import main as metrics_main
        from repro.ui.app import main as goofi_main

        path = str(tmp_path / "fabric.db")
        run_id = self._fabric_db(path)
        jobs = self._job_rows(path)
        assert len(jobs) == 1
        for readonly in (True, False):
            with GoofiDatabase(path, readonly=readonly) as db:
                run = db.load_run(run_id)
            assert (run.job_id, run.tenant) == ("job-000001", "carol")
        assert goofi_main(
            ["analyze", "--db", path, "--campaign", "test-campaign"]
        ) == 0
        assert "detection coverage" in capsys.readouterr().out
        assert metrics_main(["show", "--db", path, "test-campaign"]) == 0
        out = capsys.readouterr().out
        assert "fabric job:   job-000001" in out
        assert "tenant:       carol" in out
        assert self._job_rows(path) == jobs
        conn = sqlite3.connect(path)
        version = conn.execute("SELECT version FROM SchemaInfo").fetchone()
        conn.close()
        assert version == (SCHEMA_VERSION,)
