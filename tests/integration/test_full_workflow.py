"""Integration: the paper's four-phase workflow, end to end through the
database, for every technique and fault model."""

import pytest

from repro.analysis import classify_campaign
from repro.core import CampaignData, CampaignController, create_target
from repro.core.campaign import FaultModelSpec
from repro.db.autoanalysis import run_auto_analysis
from repro.ui import (
    CampaignSetupWindow,
    ProgressWindow,
    TargetConfigurationWindow,
)
from tests.conftest import make_campaign


class TestFourPhases:
    def test_configuration_to_analysis(self, db):
        # Phase 1: configuration.
        target = create_target("thor-rd")
        TargetConfigurationWindow(target, db).save()
        # Phase 2: set-up.
        window = CampaignSetupWindow(db)
        window.select_target("thor-rd")
        window.set_name("four-phase")
        window.set_workload("bubblesort", n=10, seed=4)
        window.choose_locations(["scan:internal/cpu.regfile.*",
                                 "scan:internal/dcache.*"])
        window.set_experiments(30, seed=77)
        campaign = window.save()
        # Phase 3: fault injection with progress.
        controller = CampaignController(create_target("thor-rd"), sink=db)
        progress = ProgressWindow(controller)
        controller.run(campaign)
        assert progress.latest.n_done == 30
        # Phase 4: analysis.
        report = run_auto_analysis(db, "four-phase")
        assert "detection coverage" in report
        assert db.count_experiments("four-phase") == 30


class TestFaultModelsEndToEnd:
    @pytest.mark.parametrize("kind,extra", [
        ("transient", {"multiplicity": 1}),
        ("transient", {"multiplicity": 4}),
        ("intermittent", {"burst_length": 3, "burst_spacing": 20}),
        ("permanent", {"stuck_value": 1, "reassert_interval": 50}),
    ])
    def test_model_runs_and_logs(self, thor_target, kind, extra):
        campaign = make_campaign(
            n_experiments=6,
            fault_model=FaultModelSpec(kind=kind, **extra),
            seed=19,
        )
        sink = thor_target.run_campaign(campaign)
        assert len(sink.results) == 6
        for result in sink.results:
            assert result.termination is not None
            assert result.injections

    def test_permanent_fault_reasserts(self, thor_target):
        campaign = make_campaign(
            n_experiments=4,
            workload_name="bubblesort",
            fault_model=FaultModelSpec(
                kind="permanent", stuck_value=1, reassert_interval=100
            ),
            seed=23,
        )
        sink = thor_target.run_campaign(campaign)
        multi = [r for r in sink.results if len(r.injections) > 1]
        assert multi, "no experiment re-asserted its stuck-at fault"
        for result in multi:
            locations = {i.location for i in result.injections}
            assert len(locations) == 1  # same node every time
            assert all(i.op == "stuck1" for i in result.injections)

    def test_intermittent_hits_same_location(self, thor_target):
        campaign = make_campaign(
            n_experiments=4,
            workload_name="bubblesort",
            fault_model=FaultModelSpec(
                kind="intermittent", burst_length=3, burst_spacing=30
            ),
            seed=29,
        )
        sink = thor_target.run_campaign(campaign)
        for result in sink.results:
            locations = {i.location for i in result.injections}
            assert len(locations) == 1


class TestTriggersEndToEnd:
    @pytest.mark.parametrize("kind,params", [
        ("branch", {}),
        ("call", {}),
        ("clock", {"period": 50}),
        ("time-fixed", {"time": 40}),
    ])
    def test_trigger_kind_runs(self, thor_target, kind, params):
        from repro.core.triggers import TriggerSpec

        workload = "quicksort" if kind == "call" else "bubblesort"
        campaign = make_campaign(
            workload_name=workload,
            n_experiments=5,
            trigger=TriggerSpec(kind=kind, **params),
            seed=37,
        )
        sink = thor_target.run_campaign(campaign)
        assert len(sink.results) == 5
        if kind == "time-fixed":
            assert all(
                injection.time == 40
                for result in sink.results
                for injection in result.injections
            )

    def test_data_access_trigger_end_to_end(self, thor_target):
        from repro.core.triggers import TriggerSpec
        from repro.workloads import get_workload

        workload = get_workload("vecsum")
        target_address = workload.label("vec")
        campaign = make_campaign(
            n_experiments=4,
            trigger=TriggerSpec(kind="data-access", address=target_address),
            seed=41,
        )
        sink = thor_target.run_campaign(campaign)
        # Injection instants coincide with accesses to the vector.
        access_cycles = {
            step.cycle_before
            for step in sink.reference.trace.accesses_to(target_address)
        }
        for result in sink.results:
            for injection in result.injections:
                assert injection.time in access_cycles or injection.time >= 1


class TestDetailRerunThroughDatabase:
    def test_interesting_experiment_reanalysed(self, db, thor_target):
        """The paper's E1/E2 story: an interesting experiment is re-run in
        detail mode; the re-run links to its parent and yields a
        propagation trace."""
        from repro.analysis import analyse_propagation

        campaign = make_campaign(
            n_experiments=10, use_preinjection=True, seed=47
        )
        thor_target.run_campaign(campaign, sink=db)
        rerun = thor_target.rerun_experiment(campaign, 3, sink=db)
        stored = db.load_experiment(rerun.name)
        assert stored.parent_experiment == "test-campaign-exp00003"
        reference = db.load_reference(campaign.campaign_name + "")
        # The re-run is logged under the campaign as stored (its logging
        # mode unchanged); the re-run row carries the per-step states,
        # and the campaign's reference row gains the golden ones.
        assert stored.detail_states
        assert db.children_of("test-campaign-exp00003") == [rerun.name]

    def test_rerun_keeps_the_stored_campaign(self, tmp_path, capsys):
        """A detail re-run must not turn the stored campaign into its
        detail variant: ``goofi run --resume`` would continue it in
        detail mode, and its config hash would stop matching."""
        from repro.db import GoofiDatabase
        from repro.observability.runmeta import campaign_config_hash
        from repro.ui.app import main

        path = str(tmp_path / "rerun.db")
        main(["campaign", "--db", path, "--name", "rr", "--workload",
              "vecsum", "--experiments", "4"])
        main(["run", "--db", path, "--campaign", "rr", "--quiet"])

        def stored():
            with GoofiDatabase(path) as db:
                campaign = db.load_campaign("rr")
            return campaign.to_json(), campaign_config_hash(campaign)

        before = stored()
        assert main(["rerun", "--db", path, "--campaign", "rr",
                     "--index", "2"]) == 0
        assert stored() == before
        with GoofiDatabase(path) as db:
            assert db.load_campaign("rr").logging_mode == "normal"
            assert db.load_reference("rr").detail_states
            # The API path, with the object a run bound, keeps it too.
            campaign = db.load_campaign("rr")
            create_target("thor-rd").rerun_experiment(campaign, 1, sink=db)
        assert stored() == before
        capsys.readouterr()
        assert main(["propagate", "--db", path, "--experiment",
                     "rr-exp00002-rerun"]) == 0
        assert "rr-exp00002-rerun" in capsys.readouterr().out


class TestMergedCampaignRuns:
    def test_merge_then_run(self, db, thor_target):
        a = make_campaign(campaign_name="m-a", n_experiments=5)
        b = make_campaign(
            campaign_name="m-b",
            n_experiments=5,
            location_patterns=["scan:internal/cpu.psr"],
        )
        merged = CampaignData.merge("m-ab", [a, b])
        sink = thor_target.run_campaign(merged, sink=db)
        assert db.count_experiments("m-ab") == 10
        locations = {
            injection.location.path
            for result in db.load_experiments("m-ab")
            for injection in result.injections
        }
        # Faults drawn from the union of both selections.
        assert any(path.startswith("cpu.regfile") for path in locations)


class TestAllWorkloadsSmoke:
    @pytest.mark.parametrize(
        "workload", ["bubblesort", "quicksort", "matmul", "fibonacci",
                     "crc32", "vecsum"]
    )
    def test_small_campaign_on_each_workload(self, thor_target, workload):
        campaign = make_campaign(
            workload_name=workload, n_experiments=3, seed=53
        )
        sink = thor_target.run_campaign(campaign)
        summary = classify_campaign(sink.results, sink.reference)
        assert summary.total == 3
