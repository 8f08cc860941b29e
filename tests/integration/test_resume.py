"""Integration: resuming an interrupted campaign from the database.

The progress window's "restart" affordance, extended across process
boundaries: a campaign stopped mid-way is re-run with ``resume=True``;
previously completed experiments are skipped, and — because each
experiment draws its fault from an index-keyed RNG substream — the
resumed experiments inject exactly the faults an uninterrupted run would
have injected.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import (
    CampaignController,
    ParallelCampaignController,
    ParallelConfig,
    create_target,
    worker_factory,
)
from repro.core.parallel import canonical_experiment_rows
from repro.db import GoofiDatabase, database
from repro.util.errors import CampaignError
from tests.conftest import make_campaign


def _injection_map(db, campaign_name):
    return {
        result.index: [injection.to_dict() for injection in result.injections]
        for result in db.load_experiments(campaign_name)
    }


class TestResume:
    def test_resume_completes_the_campaign(self, db):
        campaign = make_campaign(n_experiments=20, seed=3)
        controller = CampaignController(create_target("thor-rd"), sink=db)
        controller.add_listener(
            lambda progress: controller.stop() if progress.n_done == 7 else None
        )
        controller.run(campaign)
        assert db.count_experiments(campaign.campaign_name) == 7

        resumed = CampaignController(create_target("thor-rd"), sink=db)
        resumed.run(campaign, resume=True)
        assert db.count_experiments(campaign.campaign_name) == 20
        assert db.completed_indices(campaign.campaign_name) == list(range(20))

    def test_resumed_faults_match_uninterrupted_run(self, db):
        campaign = make_campaign(n_experiments=12, seed=5)
        # Uninterrupted run into a second database for comparison.
        from repro.db import GoofiDatabase

        with GoofiDatabase(":memory:") as full_db:
            create_target("thor-rd").run_campaign(campaign, sink=full_db)
            full = _injection_map(full_db, campaign.campaign_name)

        controller = CampaignController(create_target("thor-rd"), sink=db)
        controller.add_listener(
            lambda progress: controller.stop() if progress.n_done == 5 else None
        )
        controller.run(campaign)
        CampaignController(create_target("thor-rd"), sink=db).run(
            campaign, resume=True
        )
        assert _injection_map(db, campaign.campaign_name) == full

    def test_resume_of_finished_campaign_runs_nothing_new(self, db):
        campaign = make_campaign(n_experiments=5, seed=7)
        CampaignController(create_target("thor-rd"), sink=db).run(campaign)
        before = _injection_map(db, campaign.campaign_name)
        controller = CampaignController(create_target("thor-rd"), sink=db)
        controller.run(campaign, resume=True)
        assert _injection_map(db, campaign.campaign_name) == before
        assert controller.progress.n_done == 5  # all pre-counted

    def test_resume_without_capable_sink_rejected(self):
        campaign = make_campaign(n_experiments=3)
        controller = CampaignController(create_target("thor-rd"))
        with pytest.raises(CampaignError):
            controller.run(campaign, resume=True)

    def test_reruns_do_not_confuse_resume(self, db, thor_target):
        """Detail-mode re-runs carry parentExperiment and must not count
        as completed campaign indices."""
        campaign = make_campaign(n_experiments=6, seed=9)
        thor_target.run_campaign(campaign, sink=db)
        thor_target.rerun_experiment(campaign, 2, sink=db)
        assert db.completed_indices(campaign.campaign_name) == list(range(6))

    def test_cli_resume(self, tmp_path, capsys):
        from repro.ui.app import main

        db_path = str(tmp_path / "resume.db")
        main(["campaign", "--db", db_path, "--name", "rc",
              "--workload", "vecsum", "--experiments", "6"])
        main(["run", "--db", db_path, "--campaign", "rc", "--quiet"])
        capsys.readouterr()
        assert main(["run", "--db", db_path, "--campaign", "rc",
                     "--quiet", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "6/6" in out


#: Runs a campaign into a database file and SIGKILLs its own process
#: group (itself and any workers) from a progress listener once
#: ``kill_at`` rows are logged. argv: path, campaign JSON, kill_at,
#: workers (0 = serial).
_KILLED_CAMPAIGN = """
import os, signal, sys
from repro.core import (
    CampaignController, CampaignData, ParallelCampaignController,
    ParallelConfig, create_target, worker_factory,
)
from repro.db import GoofiDatabase

path, spec, kill_at, workers = sys.argv[1:5]
campaign = CampaignData.from_json(spec)
db = GoofiDatabase(path)
if int(workers):
    controller = ParallelCampaignController(
        worker_factory("thor-rd"), sink=db,
        config=ParallelConfig(n_workers=int(workers), start_method="fork"),
    )
else:
    controller = CampaignController(create_target("thor-rd"), sink=db)

def kill(progress):
    if progress.n_done == int(kill_at):
        os.killpg(0, signal.SIGKILL)

controller.add_listener(kill)
controller.run(campaign)
"""


def _controller(workers, db):
    if workers:
        return ParallelCampaignController(
            worker_factory("thor-rd"), sink=db,
            config=ParallelConfig(n_workers=workers, start_method="fork"),
        )
    return CampaignController(create_target("thor-rd"), sink=db)


@pytest.mark.skipif(
    not hasattr(os, "killpg")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process groups and the fork start method",
)
class TestKilledMidBatch:
    """A campaign process killed between flushes loses at most one
    batch, and resume re-runs it to the rows of an uninterrupted run."""

    N_EXPERIMENTS = 400
    KILL_AT = 300  # past one flush, not a multiple of FLUSH_ROWS

    @pytest.mark.parametrize("workers", [0, 2])
    def test_kill_then_resume(self, tmp_path, workers):
        assert self.KILL_AT > database.FLUSH_ROWS
        assert self.KILL_AT % database.FLUSH_ROWS
        campaign = make_campaign(
            campaign_name="killed", n_experiments=self.N_EXPERIMENTS, seed=21
        )
        path = str(tmp_path / "killed.db")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _KILLED_CAMPAIGN, path,
             campaign.to_json(), str(self.KILL_AT), str(workers)],
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            _, stderr = process.communicate(timeout=120)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=10)
        assert process.returncode == -signal.SIGKILL, stderr.decode()

        with GoofiDatabase(path, readonly=True) as fresh:
            done = fresh.completed_indices("killed")
            assert fresh.count_experiments("killed") == len(done)
        # Rows land in index order: the committed ones are a prefix,
        # short of the logged ones by less than one batch.
        assert done == list(range(len(done)))
        assert self.KILL_AT - database.FLUSH_ROWS < len(done) <= self.KILL_AT

        with GoofiDatabase(path) as db:
            _controller(workers, db).run(campaign, resume=True)
            resumed = canonical_experiment_rows(db, "killed")
        with GoofiDatabase(":memory:") as full:
            create_target("thor-rd").run_campaign(campaign, sink=full)
            assert resumed == canonical_experiment_rows(full, "killed")
