"""Live-telemetry integration tests: scraping a running parallel
campaign, stall alerts from a wedged worker, and RunMeta provenance.

These are the ISSUE acceptance scenarios: an HTTP scrape during a
running parallel campaign returns valid OpenMetrics whose experiment
counters sum to the controller totals; an artificially stalled worker
raises a stall alert and leaves a flight-recorder dump; and
``goofi-metrics runs`` lists the run with matching config hash and seed.
"""

import glob
import json
import multiprocessing
import os
import re
import threading
import time
import urllib.request

import pytest

from repro import observability
from repro.core import ParallelCampaignController, worker_factory
from repro.core.framework import register_target, unregister_target
from repro.db import GoofiDatabase
from repro.observability.cli import main as metrics_main
from repro.observability.flightrec import read_flight_dump
from repro.observability.runmeta import campaign_config_hash
from tests.conftest import make_campaign
from tests.core.test_parallel import HangingPort

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)


@pytest.fixture(scope="module", autouse=True)
def _hang_target():
    register_target("thor-rd-hang-live")(HangingPort)
    yield
    unregister_target("thor-rd-hang-live")


def _fast_config(**overrides):
    from repro.core import ParallelConfig

    defaults = dict(
        n_workers=2,
        shard_size=3,
        timeout_seconds=30.0,
        max_retries=1,
        start_method="fork",
    )
    defaults.update(overrides)
    return ParallelConfig(**defaults)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


_SAMPLE = re.compile(
    r'^goofi_experiments_total\{worker="(\d+)"\} (\d+)$', re.MULTILINE
)


class TestScrapeDuringParallelRun:
    def test_openmetrics_counters_sum_to_controller_totals(self, tmp_path):
        observability.configure(metrics=True)
        exporter = observability.start_exporter(port=0)
        try:
            campaign = make_campaign(n_experiments=24, seed=11)
            controller = ParallelCampaignController(
                worker_factory("thor-rd"), config=_fast_config()
            )
            mid_run = {}

            def scrape_while_running():
                deadline = time.perf_counter() + 60.0
                while time.perf_counter() < deadline:
                    status, body = _get(exporter.url("/snapshot"))
                    snapshot = json.loads(body)
                    n_done = snapshot.get("gauges", {}).get(
                        "campaign.n_done", 0
                    )
                    if 0 < n_done < 24:
                        mid_status, mid_body = _get(exporter.url("/metrics"))
                        mid_run["status"] = mid_status
                        mid_run["body"] = mid_body
                        return
                    if n_done >= 24:
                        return
                    time.sleep(0.005)

            scraper = threading.Thread(target=scrape_while_running)
            scraper.start()
            controller.run(campaign)
            scraper.join(timeout=60)
            assert controller.progress.state == "finished"

            # Mid-run scrape (when the poller caught one) is well-formed.
            if mid_run:
                assert mid_run["status"] == 200
                assert mid_run["body"].endswith("# EOF\n")

            # Final scrape: per-worker experiment counters carry the
            # worker label and sum to the controller's total.
            status, body = _get(exporter.url("/metrics"))
            assert status == 200
            assert body.endswith("# EOF\n")
            per_worker = {
                worker: int(count)
                for worker, count in _SAMPLE.findall(body)
            }
            assert len(per_worker) >= 2  # both workers did work
            assert sum(per_worker.values()) == controller.progress.n_done
            assert controller.progress.n_done == 24

            # /healthz agrees the campaign drained.
            status, body = _get(exporter.url("/healthz"))
            assert status == 200
            payload = json.loads(body)
            assert payload["n_done"] == 24
            assert payload["campaign"] == campaign.campaign_name
        finally:
            exporter.stop()
            observability.disable()


class TestStallAlertAndFlightDump:
    def test_wedged_worker_raises_stall_and_dumps_flight(self, tmp_path):
        """Experiment #2 hangs forever: the health monitor flags the
        stall from the event loop (floor 2s), then the watchdog kills
        the worker (4s) and the flight recorder dumps post-mortems."""
        observability.configure(
            metrics=True, flight_records=64, flight_dir=str(tmp_path)
        )
        try:
            campaign = make_campaign(
                campaign_name="stall-campaign", n_experiments=8, seed=2
            )
            controller = ParallelCampaignController(
                worker_factory("thor-rd-hang-live"),
                config=_fast_config(
                    n_workers=2,
                    shard_size=2,
                    timeout_seconds=4.0,
                    max_retries=0,
                ),
            )
            controller.run(campaign)
            assert controller.progress.state == "finished"
            # The hung experiment surfaced as a worker-failure, never
            # silently dropped.
            assert controller.progress.terminations.get("worker-failure") == 1

            # Stall alert fired before the watchdog (2s floor < 4s kill).
            kinds = [alert.kind for alert in controller.health.alerts]
            assert "stall" in kinds

            # The parent dumped its ring for the death and the failure.
            obs = observability.get_observability()
            assert "worker-death" in obs.flightrec.dump_reasons
            assert "worker-failure" in obs.flightrec.dump_reasons
            dumps = glob.glob(str(tmp_path / "flight-*.jsonl"))
            assert dumps
            parent_dump = str(tmp_path / f"flight-{os.getpid()}.jsonl")
            records = read_flight_dump(parent_dump)
            assert records[0]["fields"]["reason"] == "worker-failure"
            names = {record["name"] for record in records}
            assert "worker-death" in names

            # The stall alert is mirrored into metrics and the window.
            counters = obs.metrics.snapshot()["counters"]
            assert counters.get("health.stall_alerts_total", 0) >= 1
        finally:
            observability.disable()


class TestParallelRunProvenance:
    def test_runmeta_row_matches_campaign(self, tmp_path, capsys):
        db_path = str(tmp_path / "prov.db")
        campaign = make_campaign(
            campaign_name="prov-campaign", n_experiments=10, seed=42
        )
        observability.configure(metrics=True)
        try:
            with GoofiDatabase(db_path) as db:
                controller = ParallelCampaignController(
                    worker_factory("thor-rd"),
                    sink=db,
                    config=_fast_config(),
                )
                controller.run(campaign)
                runs = db.list_runs(campaign_name="prov-campaign")
            assert len(runs) == 1
            run = runs[0]
            assert run.state == "finished"
            assert run.seed == 42
            assert run.n_workers == 2
            assert run.config_hash == campaign_config_hash(campaign)
            snapshot = run.metrics_snapshot
            assert snapshot is not None
            total = sum(
                value
                for name, value in snapshot["counters"].items()
                if name.endswith("experiments_total")
            )
            assert total == 10
        finally:
            observability.disable()

        # The acceptance check: `goofi-metrics runs` lists the row with
        # the matching config hash prefix and seed.
        assert metrics_main(["runs", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "prov-campaign" in out
        assert "42" in out
        assert campaign_config_hash(campaign)[:12] in out
