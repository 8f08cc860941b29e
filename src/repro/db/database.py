"""GoofiDatabase: connection management, CRUD and the result-sink protocol.

The database object doubles as the *sink* the fault-injection algorithms
log into (``log_reference`` / ``log_experiment`` / ``flush``), so a
campaign run with ``algorithm.run_campaign(campaign, sink=db)`` lands
directly in ``LoggedSystemState`` — the paper's fault-injection phase,
verbatim.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.campaign import CampaignData
from repro.core.experiment import ExperimentResult, ReferenceRun, Termination
from repro.db.schema import DDL, MIGRATABLE_VERSIONS, SCHEMA_VERSION
from repro.db.statevector import decode_state_payload, encode_state_payload
from repro.observability import get_observability
from repro.observability.runmeta import (
    RUNMETA_SCHEMA_VERSION,
    RunMeta,
    campaign_config_hash,
    tool_version,
)
from repro.util.errors import DatabaseError

#: Pending experiment rows at which ``log_experiment`` lands the batch.
FLUSH_ROWS = 256
#: Seconds since the last flush after which ``log_experiment`` lands the
#: batch, so a campaign slower than one row per second still commits
#: each row as it is logged.
FLUSH_SECONDS = 1.0

# Upsert for LoggedSystemState rows; every flush lands its batch with
# one executemany of it.
_LOGGED_UPSERT = (
    "INSERT INTO LoggedSystemState("
    "experimentName, parentExperiment, campaignName, experimentData, "
    "stateVector, isReference, derivedFrom) VALUES (?, ?, ?, ?, ?, ?, ?) "
    "ON CONFLICT(experimentName) DO UPDATE SET "
    "parentExperiment = excluded.parentExperiment, "
    "experimentData = excluded.experimentData, "
    "stateVector = excluded.stateVector, "
    "isReference = excluded.isReference, "
    "derivedFrom = excluded.derivedFrom"
)


class GoofiDatabase:
    """A GOOFI campaign database (sqlite3 file or in-memory)."""

    def __init__(self, path: str = ":memory:", readonly: bool = False):
        self.path = path
        self.readonly = readonly
        #: Encoded experiment rows not landed yet (see :meth:`flush`).
        self._pending: List[Tuple] = []
        #: Guards ``_pending`` and each flush: a campaign may log from
        #: ``run_in_thread`` while another thread reads this object.
        self._pending_lock = threading.Lock()
        self._last_flush = time.monotonic()
        #: Representative name -> (state vector, encoded blob) of the
        #: last row derived from it (cleared by :meth:`log_reference`).
        self._class_blobs: Dict[str, Tuple[dict, bytes]] = {}
        if readonly:
            # Analytics connections: a WAL *snapshot* reader that can
            # never take the write lock, so a mid-campaign
            # ``goofi analyze`` cannot stall the writer (and a crash of
            # the analysis can never corrupt the sink). ``mode=ro``
            # makes the failure mode an immediate error instead of a
            # blocking lock acquisition.
            if path == ":memory:":
                raise DatabaseError(
                    "read-only connections need a database file"
                )
            from urllib.parse import quote

            try:
                self._connection = sqlite3.connect(
                    f"file:{quote(path)}?mode=ro",
                    uri=True,
                    check_same_thread=False,
                )
            except sqlite3.OperationalError as exc:
                raise DatabaseError(
                    f"cannot open {path!r} read-only: {exc}"
                ) from exc
            self._connection.row_factory = sqlite3.Row
            # Belt and braces: refuse writes at the connection level too
            # (mode=ro already rejects them at the VFS layer).
            self._conn.execute("PRAGMA query_only = ON")
            row = self._conn.execute(
                "SELECT version FROM SchemaInfo"
            ).fetchone()
            version = row["version"] if row is not None else None
            # Older-but-migratable files are readable as-is: every v5
            # feature the reader relies on is additive (the new indices
            # only make queries faster, never change their results).
            if version not in MIGRATABLE_VERSIONS + (SCHEMA_VERSION,):
                raise DatabaseError(
                    f"database schema version {version} != {SCHEMA_VERSION}"
                )
            return
        # Campaigns may log from a worker thread (run_in_thread) while
        # another thread reads.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        if path != ":memory:":
            # WAL keeps readers (analysis queries, resume's
            # completed_indices) unblocked while a campaign streams
            # batches in, and makes the one-commit-per-batch path cheap.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(DDL)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._migrate_columns()
        row = self._conn.execute("SELECT version FROM SchemaInfo").fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO SchemaInfo(version) VALUES (?)", (SCHEMA_VERSION,)
            )
        elif row["version"] in MIGRATABLE_VERSIONS:
            # Additive upgrade: the DDL above already created any table
            # the old file was missing; stamping the version completes
            # the in-place migration (v1 → v2 added RunMeta only).
            self._conn.execute(
                "UPDATE SchemaInfo SET version = ?", (SCHEMA_VERSION,)
            )
        elif row["version"] != SCHEMA_VERSION:
            raise DatabaseError(
                f"database schema version {row['version']} != {SCHEMA_VERSION}"
            )
        self._conn.commit()

    def _migrate_columns(self) -> None:
        """Add columns newer schema versions grew on existing tables.

        ``CREATE TABLE IF NOT EXISTS`` is a no-op on a pre-existing
        table, so additive *column* migrations need an explicit
        ``ALTER TABLE`` (v2 → v3: ``LoggedSystemState.derivedFrom``;
        v3 → v4: ``RunMeta.jobId`` / ``RunMeta.tenant``). Nothing has
        written the v4 columns since the campaign fabric was retired;
        they are kept so rows an older fabric wrote stay readable."""
        columns = {
            row["name"]
            for row in self._conn.execute(
                "PRAGMA table_info(LoggedSystemState)"
            )
        }
        if "derivedFrom" not in columns:
            self._conn.execute(
                "ALTER TABLE LoggedSystemState ADD COLUMN derivedFrom TEXT "
                "REFERENCES LoggedSystemState(experimentName) "
                "ON DELETE SET NULL"
            )
        runmeta_columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(RunMeta)")
        }
        if "jobId" not in runmeta_columns:
            self._conn.execute("ALTER TABLE RunMeta ADD COLUMN jobId TEXT")
        if "tenant" not in runmeta_columns:
            self._conn.execute("ALTER TABLE RunMeta ADD COLUMN tenant TEXT")

    @property
    def _conn(self) -> sqlite3.Connection:
        """The connection, once pending experiment rows have landed.
        Every statement but the flush itself goes through here, so reads
        see every logged row and no other write shares a transaction
        with a half-landed batch."""
        with self._pending_lock:
            if self._pending:
                self._land()
        return self._connection

    def close(self) -> None:
        try:
            self.flush()
        finally:
            self._connection.close()

    def __enter__(self) -> "GoofiDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # TargetSystemData
    # ------------------------------------------------------------------

    def save_target(self, name: str, description: dict) -> None:
        self._conn.execute(
            "INSERT INTO TargetSystemData(targetName, description) VALUES (?, ?) "
            "ON CONFLICT(targetName) DO UPDATE SET description = excluded.description",
            (name, json.dumps(description, sort_keys=True)),
        )
        self._conn.commit()

    def load_target(self, name: str) -> dict:
        row = self._conn.execute(
            "SELECT description FROM TargetSystemData WHERE targetName = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no target {name!r} in database")
        return json.loads(row["description"])

    def list_targets(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT targetName FROM TargetSystemData ORDER BY targetName"
        ).fetchall()
        return [row["targetName"] for row in rows]

    def _ensure_target(self, name: str) -> None:
        self._conn.execute(
            "INSERT OR IGNORE INTO TargetSystemData(targetName, description) "
            "VALUES (?, '{}')",
            (name,),
        )

    # ------------------------------------------------------------------
    # CampaignData
    # ------------------------------------------------------------------

    def save_campaign(self, campaign: CampaignData) -> None:
        self._ensure_target(campaign.target_name)
        self._conn.execute(
            "INSERT INTO CampaignData(campaignName, targetName, data) "
            "VALUES (?, ?, ?) "
            "ON CONFLICT(campaignName) DO UPDATE SET "
            "targetName = excluded.targetName, data = excluded.data",
            (campaign.campaign_name, campaign.target_name, campaign.to_json()),
        )
        self._conn.commit()

    def load_campaign(self, name: str) -> CampaignData:
        row = self._conn.execute(
            "SELECT data FROM CampaignData WHERE campaignName = ?", (name,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no campaign {name!r} in database")
        return CampaignData.from_json(row["data"])

    def list_campaigns(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT campaignName FROM CampaignData ORDER BY campaignName"
        ).fetchall()
        return [row["campaignName"] for row in rows]

    def delete_campaign(self, name: str) -> None:
        self._conn.execute(
            "DELETE FROM CampaignData WHERE campaignName = ?", (name,)
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # LoggedSystemState — the sink protocol
    # ------------------------------------------------------------------

    @staticmethod
    def reference_name(campaign_name: str) -> str:
        return f"{campaign_name}-ref"

    def log_reference(self, campaign: CampaignData, ref: ReferenceRun) -> None:
        """Save ``campaign`` and land its reference row at once. A new
        reference starts a new campaign run, so the per-class blob cache
        starts empty."""
        self.save_campaign(campaign)
        experiment_data = {
            "reference": True,
            "duration_cycles": ref.duration_cycles,
            "duration_instructions": ref.duration_instructions,
            "termination": ref.termination.to_dict(),
            "outputs": ref.outputs,
        }
        row = self._logged_row(
            name=self.reference_name(campaign.campaign_name),
            parent=None,
            campaign_name=campaign.campaign_name,
            experiment_data=experiment_data,
            state_blob=encode_state_payload(ref.state_vector, ref.detail_states),
            is_reference=True,
            derived_from=None,
        )
        with self._pending_lock:
            self._class_blobs.clear()
            self._pending.append(row)
            self._land()

    def log_experiment(
        self, campaign: CampaignData, result: ExperimentResult
    ) -> None:
        """Encode one experiment row and queue it. The queue lands when
        it holds :data:`FLUSH_ROWS` rows or :data:`FLUSH_SECONDS` have
        passed since the last flush, before any other statement on this
        connection, and on :meth:`flush` and :meth:`close`."""
        get_observability().metrics.counter("db.rows_total").inc()
        row = self._logged_row(
            name=result.name,
            parent=result.parent_experiment,
            campaign_name=campaign.campaign_name,
            experiment_data=result.experiment_data(),
            state_blob=self._state_blob(result),
            is_reference=False,
            derived_from=result.derived_from,
        )
        with self._pending_lock:
            self._pending.append(row)
            if (
                len(self._pending) >= FLUSH_ROWS
                or time.monotonic() - self._last_flush >= FLUSH_SECONDS
                # Nothing to batch on a read-only connection: the write
                # fails where it is made.
                or self.readonly
            ):
                self._land()

    def log_experiments(
        self, campaign: CampaignData, results: List[ExperimentResult]
    ) -> None:
        """Log many experiment rows and land them."""
        for result in results:
            self.log_experiment(campaign, result)
        self.flush()

    def flush(self) -> None:
        """Land every pending experiment row: one ``executemany`` and one
        commit. Runners call it when a campaign ends, stops, raises or
        pauses."""
        with self._pending_lock:
            self._land()

    def _land(self) -> None:
        """Flush with ``_pending_lock`` held. A batch lands whole or not
        at all: if landing it raises, it is rolled back and dropped, so
        a resumed campaign re-runs its rows."""
        rows, self._pending = self._pending, []
        self._last_flush = time.monotonic()
        if not rows:
            return
        obs = get_observability()
        with obs.profile("db.batch", rows=len(rows)):
            try:
                self._connection.executemany(_LOGGED_UPSERT, rows)
                self._connection.commit()
            except BaseException:
                self._connection.rollback()
                raise
        if obs.metrics.enabled:
            obs.metrics.counter("db.batches_total").inc()

    def _state_blob(self, result: ExperimentResult) -> bytes:
        """``encode_state_payload`` of the row's states. A row derived
        from an equivalence-class representative, with no detail states,
        reuses the blob cached for that representative when its state
        vector equals the cached one (state vectors map names to ints,
        so equal dicts encode to equal bytes)."""
        rep = result.derived_from
        if rep is None or result.detail_states:
            return encode_state_payload(
                result.state_vector, result.detail_states
            )
        cached = self._class_blobs.get(rep)
        if cached is not None and cached[0] == result.state_vector:
            return cached[1]
        blob = encode_state_payload(result.state_vector)
        self._class_blobs[rep] = (dict(result.state_vector), blob)
        return blob

    @staticmethod
    def _logged_row(
        name: str,
        parent: Optional[str],
        campaign_name: str,
        experiment_data: dict,
        state_blob: bytes,
        is_reference: bool,
        derived_from: Optional[str] = None,
    ) -> Tuple:
        return (
            name,
            parent,
            campaign_name,
            json.dumps(experiment_data, sort_keys=True),
            state_blob,
            int(is_reference),
            derived_from,
        )

    # ------------------------------------------------------------------
    # RunMeta — per-execution provenance (schema v2)
    # ------------------------------------------------------------------

    def record_run_start(
        self,
        campaign: CampaignData,
        n_workers: int = 1,
    ) -> int:
        """Open a provenance row for one campaign execution; returns its
        ``runId``. Saves the campaign first so the foreign key holds
        (the same ordering ``log_reference`` uses)."""
        self.save_campaign(campaign)
        cursor = self._conn.execute(
            "INSERT INTO RunMeta(campaignName, toolVersion, seed, "
            "configHash, nWorkers, nExperiments, state, metaVersion) "
            "VALUES (?, ?, ?, ?, ?, ?, 'running', ?)",
            (
                campaign.campaign_name,
                tool_version(),
                campaign.seed,
                campaign_config_hash(campaign),
                n_workers,
                campaign.n_experiments,
                RUNMETA_SCHEMA_VERSION,
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid or 0)

    def record_run_end(
        self,
        run_id: int,
        state: str,
        metrics_snapshot: Optional[dict] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        """Close a provenance row: final state, finish timestamp, the
        final metrics snapshot, and (for parallel runs that only learn
        their effective pool size late) the realised worker count."""
        snapshot_text = (
            json.dumps(metrics_snapshot, sort_keys=True)
            if metrics_snapshot is not None
            else None
        )
        self._conn.execute(
            "UPDATE RunMeta SET state = ?, finishedAt = CURRENT_TIMESTAMP, "
            "metricsSnapshot = COALESCE(?, metricsSnapshot), "
            "nWorkers = COALESCE(?, nWorkers) WHERE runId = ?",
            (state, snapshot_text, n_workers, run_id),
        )
        self._conn.commit()

    def list_runs(self, campaign_name: Optional[str] = None) -> List[RunMeta]:
        """Provenance rows, newest first (optionally for one campaign)."""
        if campaign_name is None:
            rows = self._conn.execute(
                "SELECT * FROM RunMeta ORDER BY runId DESC"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM RunMeta WHERE campaignName = ? "
                "ORDER BY runId DESC",
                (campaign_name,),
            ).fetchall()
        return [self._row_to_runmeta(row) for row in rows]

    def load_run(self, run_id: int) -> RunMeta:
        row = self._conn.execute(
            "SELECT * FROM RunMeta WHERE runId = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no RunMeta row {run_id}")
        return self._row_to_runmeta(row)

    @staticmethod
    def _row_to_runmeta(row: sqlite3.Row) -> RunMeta:
        snapshot = row["metricsSnapshot"]
        return RunMeta(
            run_id=row["runId"],
            campaign_name=row["campaignName"],
            seed=row["seed"],
            config_hash=row["configHash"],
            n_workers=row["nWorkers"],
            n_experiments=row["nExperiments"],
            tool_version=row["toolVersion"],
            state=row["state"],
            started_at=row["startedAt"] or "",
            finished_at=row["finishedAt"],
            meta_version=row["metaVersion"],
            metrics_snapshot=json.loads(snapshot) if snapshot else None,
            job_id=row["jobId"],
            tenant=row["tenant"],
        )

    # ------------------------------------------------------------------
    # Retrieval for the analysis phase
    # ------------------------------------------------------------------

    def load_reference(self, campaign_name: str) -> ReferenceRun:
        row = self._fetch_logged(self.reference_name(campaign_name))
        data = json.loads(row["experimentData"])
        payload = decode_state_payload(row["stateVector"])
        return ReferenceRun(
            duration_cycles=data["duration_cycles"],
            duration_instructions=data["duration_instructions"],
            termination=Termination.from_dict(data["termination"]),
            state_vector=payload["final"],
            outputs=data["outputs"],
            detail_states=payload["detail"],
        )

    def load_experiment(self, name: str) -> ExperimentResult:
        row = self._fetch_logged(name)
        return self._row_to_result(row)

    def load_experiments(self, campaign_name: str) -> List[ExperimentResult]:
        rows = self._conn.execute(
            "SELECT * FROM LoggedSystemState "
            "WHERE campaignName = ? AND isReference = 0 "
            "ORDER BY experimentName",
            (campaign_name,),
        ).fetchall()
        return [self._row_to_result(row) for row in rows]

    def iter_experiments(
        self, campaign_name: str, batch_size: int = 1024
    ) -> Iterator[ExperimentResult]:
        """Server-side batched cursor over a campaign's experiment rows.

        Streams rows in ``experimentName`` order (the same order
        :meth:`load_experiments` returns) without ever materialising the
        whole campaign in memory — the streaming analytics engine walks
        million-row campaigns through this in ``batch_size`` windows.
        The cursor reads whatever rows are committed when each
        ``fetchmany`` executes, so it is safe to run against a live
        campaign (on a WAL file the reader never blocks the writer)."""
        if batch_size < 1:
            raise DatabaseError(f"batch_size must be >= 1: {batch_size}")
        cursor = self._conn.execute(
            "SELECT * FROM LoggedSystemState "
            "WHERE campaignName = ? AND isReference = 0 "
            "ORDER BY experimentName",
            (campaign_name,),
        )
        while True:
            rows = cursor.fetchmany(batch_size)
            if not rows:
                break
            for row in rows:
                yield self._row_to_result(row)

    def count_experiments(self, campaign_name: str) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM LoggedSystemState "
            "WHERE campaignName = ? AND isReference = 0",
            (campaign_name,),
        ).fetchone()
        return int(row["n"])

    def completed_indices(self, campaign_name: str) -> List[int]:
        """Indices of experiments already logged for this campaign —
        what a resumed campaign run can skip."""
        import json as _json

        rows = self._conn.execute(
            "SELECT experimentData FROM LoggedSystemState "
            "WHERE campaignName = ? AND isReference = 0 "
            "AND parentExperiment IS NULL",
            (campaign_name,),
        ).fetchall()
        indices = []
        for row in rows:
            data = _json.loads(row["experimentData"])
            index = data.get("index")
            if isinstance(index, int) and index >= 0:
                indices.append(index)
        return sorted(indices)

    def children_of(self, experiment_name: str) -> List[str]:
        """Experiments re-run from ``experiment_name`` (the
        parentExperiment provenance chain of Figure 4)."""
        rows = self._conn.execute(
            "SELECT experimentName FROM LoggedSystemState "
            "WHERE parentExperiment = ? ORDER BY experimentName",
            (experiment_name,),
        ).fetchall()
        return [row["experimentName"] for row in rows]

    def _fetch_logged(self, name: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM LoggedSystemState WHERE experimentName = ?", (name,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no logged experiment {name!r}")
        return row

    @staticmethod
    def _row_to_result(row: sqlite3.Row) -> ExperimentResult:
        from repro.core.experiment import Injection  # local to avoid cycle

        data = json.loads(row["experimentData"])
        payload = decode_state_payload(row["stateVector"])
        termination = data.get("termination")
        result = ExperimentResult(
            name=row["experimentName"],
            index=data.get("index", -1),
            campaign_name=row["campaignName"],
            parent_experiment=row["parentExperiment"],
            injections=[Injection.from_dict(i) for i in data.get("injections", [])],
            termination=Termination.from_dict(termination) if termination else None,
            state_vector=payload["final"],
            outputs=data.get("outputs", {}),
            detail_states=payload["detail"],
            wall_seconds=data.get("wall_seconds", 0.0),
            derived_from=row["derivedFrom"],
        )
        return result

    # ------------------------------------------------------------------
    # Raw SQL access for user analysis scripts (the paper's analysis
    # phase lets users run tailor-made queries).
    # ------------------------------------------------------------------

    def query(self, sql: str, params: Tuple = ()) -> List[sqlite3.Row]:
        return self._conn.execute(sql, params).fetchall()
