"""DDL for the GOOFI database (Figure 4, plus run provenance).

Schema history:

* **v1** — the paper's tables: ``TargetSystemData``, ``CampaignData``,
  ``LoggedSystemState`` (with the ``parentExperiment`` re-run chain)
  and ``SchemaInfo``.
* **v2** — adds ``RunMeta``: one row per campaign *execution* recording
  tool version, RNG seed, config hash, worker count, final state and
  the final metrics snapshot, keyed to ``CampaignData`` the same way
  ``parentExperiment`` keys re-runs. Upgrading from v1 is additive
  (every table is ``CREATE TABLE IF NOT EXISTS``), so
  :class:`~repro.db.database.GoofiDatabase` migrates v1 files in place
  by stamping the new version.
* **v3** — adds ``LoggedSystemState.derivedFrom``: for experiments whose
  outcome was statically derived by the equivalence engine
  (``preinjection_mode="equivalence"``), the experiment name of the
  executed class representative; NULL for executed experiments.
  Upgrading from v1/v2 is additive: ``CREATE TABLE IF NOT EXISTS``
  cannot grow an existing table, so the migration issues an
  ``ALTER TABLE ... ADD COLUMN`` before stamping the version.
* **v4** — the campaign fabric (``goofi serve``): adds the ``FabricJob``
  table (one row per submitted job: tenant, priority, lifecycle
  timestamps, terminal result) and ``RunMeta.jobId`` / ``RunMeta.tenant``
  so the provenance chain reaches from an experiment row through RunMeta
  to the submitting tenant. Additive like v3: new table via
  ``CREATE TABLE IF NOT EXISTS``, new columns via ``ALTER TABLE``. The
  fabric is retired: the table and both columns are kept, so databases
  it wrote open unchanged and their ``RunMeta`` tags stay readable, but
  nothing writes them any more.
* **v5** — the streaming analytics layer (``goofi analyze``): two
  covering expression indices over ``LoggedSystemState`` so per-campaign
  outcome mixes and location×time heatmaps come out of index scans
  instead of full-table JSON parses — ``(campaignName, termination
  kind)`` and ``(campaignName, first-injection location, first-injection
  time)``, both extracted from the ``experimentData`` JSON. Purely
  additive (``CREATE INDEX IF NOT EXISTS``), so v1–v4 files upgrade in
  place by stamping the version.
"""

SCHEMA_VERSION = 5

#: Prior versions that upgrade in place (purely additive DDL).
MIGRATABLE_VERSIONS = (1, 2, 3, 4)

DDL = """
PRAGMA foreign_keys = ON;

CREATE TABLE IF NOT EXISTS TargetSystemData (
    targetName   TEXT PRIMARY KEY,
    description  TEXT NOT NULL,
    createdAt    TEXT NOT NULL DEFAULT CURRENT_TIMESTAMP
);

CREATE TABLE IF NOT EXISTS CampaignData (
    campaignName TEXT PRIMARY KEY,
    targetName   TEXT NOT NULL
                 REFERENCES TargetSystemData(targetName)
                 ON DELETE RESTRICT,
    data         TEXT NOT NULL,
    createdAt    TEXT NOT NULL DEFAULT CURRENT_TIMESTAMP
);

CREATE TABLE IF NOT EXISTS LoggedSystemState (
    experimentName   TEXT PRIMARY KEY,
    parentExperiment TEXT
                     REFERENCES LoggedSystemState(experimentName)
                     ON DELETE SET NULL,
    campaignName     TEXT NOT NULL
                     REFERENCES CampaignData(campaignName)
                     ON DELETE CASCADE,
    experimentData   TEXT NOT NULL,
    stateVector      BLOB NOT NULL,
    isReference      INTEGER NOT NULL DEFAULT 0,
    derivedFrom      TEXT
                     REFERENCES LoggedSystemState(experimentName)
                     ON DELETE SET NULL,
    loggedAt         TEXT NOT NULL DEFAULT CURRENT_TIMESTAMP
);

CREATE INDEX IF NOT EXISTS idx_logged_campaign
    ON LoggedSystemState(campaignName);

CREATE INDEX IF NOT EXISTS idx_logged_campaign_outcome
    ON LoggedSystemState(
        campaignName,
        json_extract(experimentData, '$.termination.kind')
    );

CREATE INDEX IF NOT EXISTS idx_logged_campaign_location_time
    ON LoggedSystemState(
        campaignName,
        json_extract(experimentData, '$.injections[0].location'),
        json_extract(experimentData, '$.injections[0].time')
    );

CREATE TABLE IF NOT EXISTS RunMeta (
    runId           INTEGER PRIMARY KEY AUTOINCREMENT,
    campaignName    TEXT NOT NULL
                    REFERENCES CampaignData(campaignName)
                    ON DELETE CASCADE,
    startedAt       TEXT NOT NULL DEFAULT CURRENT_TIMESTAMP,
    finishedAt      TEXT,
    toolVersion     TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    configHash      TEXT NOT NULL,
    nWorkers        INTEGER NOT NULL DEFAULT 1,
    nExperiments    INTEGER NOT NULL DEFAULT 0,
    state           TEXT NOT NULL DEFAULT 'running',
    metaVersion     INTEGER NOT NULL,
    metricsSnapshot TEXT,
    jobId           TEXT,
    tenant          TEXT
);

CREATE INDEX IF NOT EXISTS idx_runmeta_campaign
    ON RunMeta(campaignName);

CREATE TABLE IF NOT EXISTS FabricJob (
    jobId            TEXT PRIMARY KEY,
    tenant           TEXT NOT NULL,
    state            TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    campaignName     TEXT NOT NULL,
    spec             TEXT NOT NULL,
    submittedAt      REAL NOT NULL,
    startedAt        REAL,
    finishedAt       REAL,
    allocatedWorkers INTEGER NOT NULL DEFAULT 0,
    runId            INTEGER
                     REFERENCES RunMeta(runId)
                     ON DELETE SET NULL,
    error            TEXT,
    result           TEXT
);

CREATE INDEX IF NOT EXISTS idx_fabricjob_tenant
    ON FabricJob(tenant);

CREATE TABLE IF NOT EXISTS SchemaInfo (
    version INTEGER NOT NULL
);
"""
