"""Tests for the FaultInjectionAlgorithms layer (Figure 2).

Includes E1's functional half: the SCIFI experiment procedure performs the
Figure 2 building-block calls in the paper's exact order.
"""

import pytest

from repro.core.algorithms import FaultInjectionAlgorithms
from repro.core.campaign import FaultModelSpec
from repro.core.experiment import ReferenceRun
from repro.scifi.interface import ThorRDInterface
from repro.util.errors import CampaignError
from tests.conftest import make_campaign


class RecordingInterface(ThorRDInterface):
    """Thor port that records every building-block call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def _record(self, name):
        self.calls.append(name)


for _name in (
    "init_test_card",
    "load_workload",
    "write_memory",
    "read_memory",
    "run_workload",
    "wait_for_breakpoint",
    "read_scan_chain",
    "inject_fault",
    "write_scan_chain",
    "wait_for_termination",
    "inject_fault_preruntime",
    "instrument_workload",
    "inject_fault_direct",
):
    def _wrap(name=_name):
        original = getattr(ThorRDInterface, name)

        def method(self, *args, **kwargs):
            self._record(name)
            return original(self, *args, **kwargs)

        return method

    setattr(RecordingInterface, _name, _wrap())


class TestScifiCallOrder:
    def test_figure2_sequence(self):
        """The per-experiment block sequence of faultInjectorSCIFI.

        warm_start is disabled: the paper's Figure 2 sequence is the
        *cold* path (warm starts replace the prefix with a checkpoint
        restore; their equivalence is covered by test_checkpoint)."""
        target = RecordingInterface()
        campaign = make_campaign(n_experiments=1, warm_start=False)
        target.run_campaign(campaign)
        # Strip the reference run prefix (ends with its read_memory after
        # wait_for_termination).
        calls = target.calls
        first_init = calls.index("init_test_card", 1)
        experiment_calls = calls[first_init:]
        expected_prefix = [
            "init_test_card",
            "load_workload",
            "write_memory",
            "run_workload",
            "wait_for_breakpoint",
            "read_scan_chain",
            "inject_fault",
            "write_scan_chain",
        ]
        assert experiment_calls[: len(expected_prefix)] == expected_prefix
        # Termination wait and final readout follow.
        rest = experiment_calls[len(expected_prefix):]
        assert "wait_for_termination" in rest
        assert "read_memory" in rest

    def test_reference_run_comes_first(self):
        target = RecordingInterface()
        campaign = make_campaign(n_experiments=1)
        target.run_campaign(campaign)
        assert target.calls[:3] == [
            "init_test_card",
            "load_workload",
            "write_memory",
        ]

    def test_swifi_pre_injects_before_run(self):
        target = RecordingInterface()
        campaign = make_campaign(
            technique="swifi-pre",
            location_patterns=["memory:code/*"],
            n_experiments=1,
        )
        target.run_campaign(campaign)
        first_init = target.calls.index("init_test_card", 1)
        calls = target.calls[first_init:]
        assert calls.index("inject_fault_preruntime") < calls.index("run_workload")
        assert "read_scan_chain" not in calls

    def test_swifi_runtime_instruments(self):
        target = RecordingInterface()
        campaign = make_campaign(
            technique="swifi-runtime",
            location_patterns=["swreg/cpu.regfile.*"],
            n_experiments=1,
        )
        target.run_campaign(campaign)
        assert "instrument_workload" in target.calls

    def test_simfi_uses_direct_injection(self):
        target = RecordingInterface()
        campaign = make_campaign(technique="simfi", n_experiments=1)
        target.run_campaign(campaign)
        assert "inject_fault_direct" in target.calls
        assert "read_scan_chain" not in target.calls[1:]


class TestCampaignSemantics:
    def test_requires_read_campaign_data(self, thor_target):
        with pytest.raises(CampaignError):
            thor_target.make_reference_run()

    def test_technique_space_mismatch_rejected(self, thor_target):
        campaign = make_campaign(
            technique="scifi", location_patterns=["memory:code/*"]
        )
        with pytest.raises(CampaignError):
            thor_target.run_campaign(campaign)

    def test_swifi_pre_cannot_reach_scan(self, thor_target):
        campaign = make_campaign(
            technique="swifi-pre",
            location_patterns=["scan:internal/cpu.regfile.*"],
        )
        with pytest.raises(CampaignError):
            thor_target.run_campaign(campaign)

    def test_reproducible_with_same_seed(self):
        def run():
            from repro.core import create_target

            target = create_target("thor-rd")
            sink = target.run_campaign(make_campaign(n_experiments=6, seed=77))
            return [
                (r.termination.kind, [i.to_dict() for i in r.injections])
                for r in sink.results
            ]

        assert run() == run()

    def test_different_seeds_differ(self):
        from repro.core import create_target

        def run(seed):
            target = create_target("thor-rd")
            sink = target.run_campaign(
                make_campaign(n_experiments=6, seed=seed)
            )
            return [
                [i.to_dict() for i in r.injections] for r in sink.results
            ]

        assert run(1) != run(2)

    def test_experiment_names_are_stable(self, thor_target):
        sink = thor_target.run_campaign(make_campaign(n_experiments=3))
        assert [r.name for r in sink.results] == [
            "test-campaign-exp00000",
            "test-campaign-exp00001",
            "test-campaign-exp00002",
        ]

    def test_every_experiment_records_one_injection(self, thor_target):
        sink = thor_target.run_campaign(make_campaign(n_experiments=10))
        assert all(len(r.injections) == 1 for r in sink.results)

    def test_multiplicity_records_multiple_injections(self, thor_target):
        campaign = make_campaign(
            n_experiments=5,
            fault_model=FaultModelSpec(kind="transient", multiplicity=3),
        )
        sink = thor_target.run_campaign(campaign)
        assert all(len(r.injections) == 3 for r in sink.results)

    def test_injection_times_bounded_by_reference(self, thor_target):
        sink = thor_target.run_campaign(make_campaign(n_experiments=10))
        duration = sink.reference.duration_cycles
        for result in sink.results:
            for injection in result.injections:
                assert 1 <= injection.time <= duration

    def test_reference_outputs_match_workload_golden(self, thor_target):
        from repro.workloads import get_workload

        sink = thor_target.run_campaign(make_campaign(n_experiments=1))
        workload = get_workload("vecsum")
        assert sink.reference.outputs["total"] == workload.expected["total"][0]

    def test_preinjection_only_samples_live_locations(self, thor_target):
        campaign = make_campaign(n_experiments=20, use_preinjection=True)
        thor_target.read_campaign_data(campaign)
        reference = thor_target.make_reference_run()
        assert thor_target._liveness is not None
        for index in range(20):
            plan = thor_target.plan_experiment(index, reference)
            for action in plan.actions:
                for location in action.locations:
                    assert thor_target._liveness.is_live(location, action.time)


class TestRerunProvenance:
    def test_rerun_sets_parent_and_detail_states(self, thor_target):
        campaign = make_campaign(n_experiments=3)
        sink = thor_target.run_campaign(campaign)
        result = thor_target.rerun_experiment(campaign, 1)
        assert result.parent_experiment == "test-campaign-exp00001"
        assert result.name == "test-campaign-exp00001-rerun"
        assert len(result.detail_states) > 0

    def test_rerun_injects_same_fault(self, thor_target):
        campaign = make_campaign(n_experiments=3)
        sink = thor_target.run_campaign(campaign)
        original = sink.results[1]
        rerun = thor_target.rerun_experiment(campaign, 1)
        assert [i.location for i in rerun.injections] == [
            i.location for i in original.injections
        ]
        assert [i.time for i in rerun.injections] == [
            i.time for i in original.injections
        ]

    def test_rerun_does_one_reference_run(self, thor_target):
        campaign = make_campaign(n_experiments=3)
        thor_target.run_campaign(campaign)
        calls = []
        make_reference_run = thor_target.make_reference_run

        def spy():
            calls.append(thor_target.campaign.logging_mode)
            return make_reference_run()

        thor_target.make_reference_run = spy
        thor_target.rerun_experiment(campaign, 1)
        thor_target.rerun_experiment(campaign, 2)
        assert calls == ["detail", "detail"]

    def test_rerun_records_original_index(self, thor_target):
        campaign = make_campaign(n_experiments=3)
        thor_target.run_campaign(campaign)
        assert thor_target.rerun_experiment(campaign, 2).index == 2


class TestTechniqueTables:
    def test_technique_methods_cover_all(self):
        assert set(FaultInjectionAlgorithms.TECHNIQUE_METHODS) == set(
            FaultInjectionAlgorithms.TECHNIQUE_SPACES
        )
