"""Integration tests for equivalence-collapsed campaign execution.

``preinjection_mode="equivalence"`` plans the same fault list as static
mode, partitions it, executes one representative per class, and derives
the remaining members' results statically. These tests pin the serial
path: byte-identical outcomes vs static mode, derived-result provenance,
the ``verify_equivalence`` hard-fail contract, and the exclusions
(detail logging, non-partitionable techniques).
"""

import dataclasses

import pytest

from repro.core import CampaignController, create_target
from repro.core.algorithms import ExperimentSchedule
from repro.db import GoofiDatabase
from repro.util.errors import CampaignError
from tests.conftest import make_campaign

PATTERNS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r10",
]


def equivalence_campaign(**overrides):
    defaults = dict(
        campaign_name="equiv-test",
        preinjection_mode="equivalence",
        use_preinjection=True,
        location_patterns=PATTERNS,
        n_experiments=20,
    )
    defaults.update(overrides)
    return make_campaign(**defaults)


def canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        data["derived_from"] = None
        rows.append(data)
    return rows


class TestSerialCollapse:
    def test_matches_static_mode_byte_for_byte(self):
        static = equivalence_campaign(preinjection_mode="static")
        equiv = equivalence_campaign()
        static_sink = create_target("thor-rd").run_campaign(static)
        equiv_sink = create_target("thor-rd").run_campaign(equiv)
        assert canonical(equiv_sink) == canonical(static_sink)

    def test_derived_results_present_and_attributed(self):
        campaign = equivalence_campaign()
        target = create_target("thor-rd")
        sink = target.run_campaign(campaign)
        derived = [r for r in sink.results if r.derived_from is not None]
        assert derived, "expected at least one collapsed experiment"
        names = {r.name for r in sink.results}
        for result in derived:
            # Derived results point at an executed representative...
            assert result.derived_from in names
            rep = next(
                r for r in sink.results if r.name == result.derived_from
            )
            assert rep.derived_from is None
            # ...and copy its terminal outcome verbatim.
            assert result.termination.to_dict() == rep.termination.to_dict()
            assert result.outputs == rep.outputs
            assert result.state_vector == rep.state_vector
            assert result.wall_seconds == 0.0

    def test_derived_injections_keep_member_times(self):
        campaign = equivalence_campaign()
        target = create_target("thor-rd")
        sink = target.run_campaign(campaign)
        reference = target.prepare_run(campaign)
        derived = [r for r in sink.results if r.derived_from is not None]
        assert derived
        for result in derived:
            plan = target.plan_experiment(result.index, reference)
            planned_times = [a.time for a in plan.sorted_actions()]
            assert [i.time for i in result.injections] == planned_times

    def test_full_verification_passes(self):
        campaign = equivalence_campaign(n_experiments=12)
        target = create_target("thor-rd")
        target.verify_equivalence = 1.0
        sink = target.run_campaign(campaign)
        assert len(sink.results) == 12

    def test_detail_mode_disables_collapse(self):
        campaign = equivalence_campaign(
            logging_mode="detail", n_experiments=6
        )
        sink = create_target("thor-rd").run_campaign(campaign)
        assert all(r.derived_from is None for r in sink.results)

    def test_swifi_never_collapses(self):
        campaign = equivalence_campaign(
            technique="swifi-runtime",
            location_patterns=["memory:data/*"],
            n_experiments=6,
        )
        sink = create_target("thor-rd").run_campaign(campaign)
        assert all(r.derived_from is None for r in sink.results)

    def test_static_mode_never_derives(self):
        campaign = equivalence_campaign(preinjection_mode="static")
        sink = create_target("thor-rd").run_campaign(campaign)
        assert all(r.derived_from is None for r in sink.results)


def _stop_after(controller, n_done):
    controller.add_listener(
        lambda progress: controller.stop()
        if progress.n_done == n_done
        else None
    )


class TestStopAndResume:
    def test_resumed_rows_match_static_run(self):
        """A stop between a representative and its derived member leaves
        the member to the resumed run, which partitions only the indices
        still to run."""
        from repro.core.parallel import canonical_experiment_rows

        campaign = equivalence_campaign()
        full = create_target("thor-rd").run_campaign(campaign).results
        assert any(
            r.index >= 7 and int(r.derived_from[-5:]) < 7
            for r in full
            if r.derived_from is not None
        ), "no class spans the stop"
        with GoofiDatabase(":memory:") as static_db, GoofiDatabase(
            ":memory:"
        ) as db:
            create_target("thor-rd").run_campaign(
                equivalence_campaign(preinjection_mode="static"),
                sink=static_db,
            )
            controller = CampaignController(create_target("thor-rd"), sink=db)
            _stop_after(controller, 7)
            controller.run(campaign)
            assert controller.progress.state == "stopped"
            assert db.count_experiments(campaign.campaign_name) == 7
            CampaignController(create_target("thor-rd"), sink=db).run(
                campaign, resume=True
            )
            assert canonical_experiment_rows(
                db, campaign.campaign_name
            ) == canonical_experiment_rows(static_db, campaign.campaign_name)


class TestVerificationContract:
    def _derived(self):
        campaign = equivalence_campaign(n_experiments=8)
        sink = create_target("thor-rd").run_campaign(campaign)
        return next(r for r in sink.results if r.derived_from is not None)

    def test_identical_results_accepted(self):
        derived = self._derived()
        ExperimentSchedule.check_derived_outcome(
            derived.index, derived, derived
        )

    def test_output_divergence_raises(self):
        derived = self._derived()
        actual = dataclasses.replace(derived)
        actual.outputs = dict(derived.outputs)
        actual.outputs["corrupted"] = 1
        with pytest.raises(CampaignError, match="outputs"):
            ExperimentSchedule.check_derived_outcome(
                derived.index, actual, derived
            )

    def test_state_vector_divergence_raises(self):
        derived = self._derived()
        actual = dataclasses.replace(derived)
        actual.state_vector = dict(derived.state_vector)
        next_key = sorted(actual.state_vector)[0]
        actual.state_vector[next_key] = b"\x00"
        with pytest.raises(CampaignError, match="state_vector"):
            ExperimentSchedule.check_derived_outcome(
                derived.index, actual, derived
            )


class TestAccounting:
    def test_equivalence_metrics_counters(self):
        from repro.observability import configure, disable, get_observability

        configure(metrics=True)
        try:
            campaign = equivalence_campaign()
            create_target("thor-rd").run_campaign(campaign)
            snapshot = get_observability().metrics.snapshot()
            counters = snapshot.get("counters", snapshot)
            classes = counters.get("equivalence.classes", 0)
            executed = counters.get("equivalence.executed", 0)
            collapsed = counters.get("equivalence.collapsed", 0)
            assert classes >= 1
            assert executed == classes
            assert executed + collapsed == campaign.n_experiments
        finally:
            disable()

    def test_controller_progress_counts_derived(self):
        campaign = equivalence_campaign()
        controller = CampaignController(create_target("thor-rd"))
        controller.run(campaign)
        progress = controller.progress
        assert progress.n_derived > 0
        assert progress.n_derived < campaign.n_experiments

    def test_db_round_trip_preserves_provenance(self, db):
        campaign = equivalence_campaign()
        create_target("thor-rd").run_campaign(campaign, sink=db)
        loaded = db.load_experiments(campaign.campaign_name)
        assert len(loaded) == campaign.n_experiments
        derived = [r for r in loaded if r.derived_from is not None]
        assert derived
        names = {r.name for r in loaded}
        for result in derived:
            assert result.derived_from in names

    def test_derived_from_not_in_experiment_data_json(self, db):
        """Provenance lives in the derivedFrom column only — the
        experimentData JSON stays byte-identical to static mode."""
        campaign = equivalence_campaign()
        create_target("thor-rd").run_campaign(campaign, sink=db)
        rows = db.query(
            "SELECT experimentData FROM LoggedSystemState "
            "WHERE campaignName = ? AND isReference = 0",
            (campaign.campaign_name,),
        )
        assert rows
        for row in rows:
            assert "derived_from" not in row["experimentData"]
