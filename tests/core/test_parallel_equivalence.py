"""Parallel execution of equivalence-collapsed campaigns.

The parallel engine drives the same :class:`ExperimentSchedule` as the
serial loop: the parent partitions up front, dispatches only
representatives/singletons (plus verify-sampled members) to workers as
unsplittable units, and derives members' rows in the parent as they are
logged. These tests pin serial/parallel equality, the class-aware
sharding contract, and the schedule's edge paths (stop and resume, a
representative that never produces a result, verification of duplicate
plans).
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.core import (
    ParallelCampaignController,
    ParallelConfig,
    TriggerSpec,
    create_target,
    worker_factory,
)
from repro.core.framework import register_target, unregister_target
from repro.core.parallel import (
    canonical_experiment_rows,
    run_parallel_campaign,
)
from repro.db import GoofiDatabase
from repro.observability import configure, disable, get_observability
from repro.scifi.interface import ThorRDInterface
from repro.util.errors import CampaignError
from tests.conftest import make_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)

PATTERNS = [
    "scan:internal/cpu.regfile.r5",
    "scan:internal/cpu.regfile.r10",
]


def equivalence_campaign(**overrides):
    defaults = dict(
        campaign_name="equiv-parallel",
        preinjection_mode="equivalence",
        use_preinjection=True,
        location_patterns=PATTERNS,
        n_experiments=20,
    )
    defaults.update(overrides)
    return make_campaign(**defaults)


def _config(**overrides):
    defaults = dict(n_workers=2, start_method="fork", shard_size=3)
    defaults.update(overrides)
    return ParallelConfig(**defaults)


#: Environment variable naming the index :class:`LostIndexPort` can
#: never run (the environment travels to the workers with the fork).
_LOST_INDEX_ENV = "GOOFI_TEST_LOST_INDEX"


class LostIndexPort(ThorRDInterface):
    """A port whose every execution of one experiment raises."""

    def run_single_experiment(self, index, *args, **kwargs):
        if str(index) == os.environ.get(_LOST_INDEX_ENV):
            raise RuntimeError("experiment lost")
        return super().run_single_experiment(index, *args, **kwargs)


@pytest.fixture
def lost_index_target():
    register_target("thor-rd-lost")(LostIndexPort)
    yield
    unregister_target("thor-rd-lost")


def _canonical(results):
    rows = {}
    for result in results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        data["derived_from"] = None
        rows[result.index] = data
    return rows


class TestParallelCollapse:
    def test_parallel_equals_serial_byte_for_byte(self, tmp_path):
        campaign = equivalence_campaign()
        serial_db = GoofiDatabase(str(tmp_path / "serial.db"))
        parallel_db = GoofiDatabase(str(tmp_path / "parallel.db"))
        try:
            create_target("thor-rd").run_campaign(campaign, sink=serial_db)
            run_parallel_campaign(
                campaign,
                worker_factory("thor-rd"),
                sink=parallel_db,
                config=_config(),
            )
            serial_rows = canonical_experiment_rows(
                serial_db, campaign.campaign_name
            )
            parallel_rows = canonical_experiment_rows(
                parallel_db, campaign.campaign_name
            )
            assert serial_rows == parallel_rows
        finally:
            serial_db.close()
            parallel_db.close()

    def test_derived_members_synthesized_in_parent(self):
        campaign = equivalence_campaign()
        sink = run_parallel_campaign(
            campaign, worker_factory("thor-rd"), config=_config()
        )
        results = {r.index: r for r in sink.results}
        assert sorted(results) == list(range(campaign.n_experiments))
        derived = [r for r in sink.results if r.derived_from is not None]
        assert derived
        names = {r.name for r in sink.results}
        for result in derived:
            assert result.derived_from in names
            assert result.wall_seconds == 0.0

    def test_verify_equivalence_passes_end_to_end(self):
        campaign = equivalence_campaign(n_experiments=12)
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=_config(verify_equivalence=1.0),
        )
        assert len(sink.results) == 12
        # Full verification force-executes every member, so the derived
        # results are still reported as derived (the derivation stands).
        assert any(r.derived_from is not None for r in sink.results)

    def test_verify_sampling_fraction(self):
        campaign = equivalence_campaign()
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=_config(verify_equivalence=0.5),
        )
        assert len(sink.results) == campaign.n_experiments


class TestConfigValidation:
    def test_negative_fraction_rejected(self):
        with pytest.raises(CampaignError):
            _config(verify_equivalence=-0.1).validate()

    def test_fraction_above_one_rejected(self):
        with pytest.raises(CampaignError):
            _config(verify_equivalence=1.5).validate()

    def test_boundary_fractions_accepted(self):
        _config(verify_equivalence=0.0).validate()
        _config(verify_equivalence=1.0).validate()


class TestScheduleEdgePaths:
    def test_stop_and_resume_matches_static_run(self):
        campaign = equivalence_campaign()
        with GoofiDatabase(":memory:") as static_db, GoofiDatabase(
            ":memory:"
        ) as db:
            create_target("thor-rd").run_campaign(
                equivalence_campaign(preinjection_mode="static"),
                sink=static_db,
            )
            controller = ParallelCampaignController(
                worker_factory("thor-rd"), sink=db, config=_config()
            )
            controller.add_listener(
                lambda progress: controller.stop()
                if progress.n_done == 7
                else None
            )
            controller.run(campaign)
            assert controller.progress.state == "stopped"
            assert db.count_experiments(campaign.campaign_name) < 20
            ParallelCampaignController(
                worker_factory("thor-rd"), sink=db, config=_config()
            ).run(campaign, resume=True)
            assert canonical_experiment_rows(
                db, campaign.campaign_name
            ) == canonical_experiment_rows(static_db, campaign.campaign_name)

    @pytest.mark.parametrize("verify", [0.0, 1.0])
    @pytest.mark.usefixtures("lost_index_target")
    def test_failed_representative_members_execute(self, monkeypatch, verify):
        campaign = equivalence_campaign(n_experiments=40)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        plans = {
            i: target.plan_experiment(i, reference)
            for i in range(campaign.n_experiments)
        }
        cls = max(
            target._equivalence.partition(plans).classes,
            key=lambda c: len(c.members),
        )
        assert len(cls.members) > 1
        monkeypatch.setenv(_LOST_INDEX_ENV, str(cls.representative))
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd-lost"),
            config=_config(max_retries=0, verify_equivalence=verify),
        )
        results = {r.index: r for r in sink.results}
        assert sorted(results) == list(range(campaign.n_experiments))
        assert results[cls.representative].termination.kind == "worker-failure"
        failed = {
            r.name
            for r in sink.results
            if r.termination.kind == "worker-failure"
        }
        assert not [r for r in sink.results if r.derived_from in failed]
        static = create_target("thor-rd").run_campaign(
            campaign.modified(preinjection_mode="static")
        )
        expected = _canonical(static.results)
        actual = _canonical(sink.results)
        for member in cls.members[1:]:
            assert results[member].derived_from is None
            assert actual[member] == expected[member]

    def test_verify_reexecutes_duplicate_plans(self):
        """Duplicate plans fall into one class, so a verified member's
        plan equals its representative's; each verified member still
        executes and is compared."""
        duration = create_target("thor-rd").prepare_run(
            equivalence_campaign()
        ).duration_cycles
        campaign = equivalence_campaign(
            campaign_name="equiv-verify-duplicates",
            use_preinjection=False,
            location_patterns=["scan:internal/cpu.regfile.r5"],
            trigger=TriggerSpec(kind="time-fixed", time=duration // 3),
            n_experiments=16,
        )
        configure(metrics=True)
        try:
            run_parallel_campaign(
                campaign,
                worker_factory("thor-rd"),
                config=_config(verify_equivalence=1.0),
            )
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert counters.get("equivalence.collapsed", 0) > 0
        assert counters.get("equivalence.verified", 0) == counters.get(
            "equivalence.collapsed", 0
        )
