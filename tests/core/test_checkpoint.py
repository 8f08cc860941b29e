"""Unit tests for the golden-run checkpoint store (repro.core.checkpoint).

Covers the delta encode/decode round-trip, nearest-checkpoint lookup,
the canonical state digest, the port-level fingerprint-mismatch cold
fallback, and the warm-restore strict boundary (an injection pinned
exactly on checkpoint cadence).
"""

import pytest

from repro.core import create_target
from repro.core.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    PAGE_WORDS,
    CheckpointMismatch,
    CheckpointStore,
    CheckpointTick,
    state_digest,
)
from repro.core.triggers import TriggerSpec
from repro.util.errors import CampaignError
from tests.conftest import make_campaign


def page(fill: int) -> list:
    return [fill] * PAGE_WORDS


def make_store(*ticks) -> CheckpointStore:
    store = CheckpointStore(context="unit")
    for cycle, dirty in ticks:
        store.append(CheckpointTick(cycle=cycle, payload={}, dirty_pages=dirty))
    return store


def _rows(sink):
    return [
        (
            r.termination.kind,
            tuple(
                tuple(sorted(i.to_dict().items())) for i in r.injections
            ),
            tuple(sorted(r.outputs.items())),
            tuple(sorted(r.state_vector.items())),
        )
        for r in sink.results
    ]


class TestStateDigest:
    def test_deterministic(self):
        parts = {"a": [1, 2, 3], "b": ("x", None, True), "c": b"blob"}
        assert state_digest(parts) == state_digest(parts)

    def test_key_order_irrelevant(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})

    def test_type_tags_prevent_collisions(self):
        assert state_digest(0) != state_digest(False)
        assert state_digest("") != state_digest(None)
        assert state_digest([1]) != state_digest((1, 0))
        assert state_digest("ab") != state_digest(b"ab")

    def test_int_list_fast_path_matches_semantics(self):
        # A pure-int list and the same list with one value changed must
        # differ; a bool hiding in the list must not take the int path.
        assert state_digest([1, 2, 3]) != state_digest([1, 2, 4])
        assert state_digest([1, 0]) != state_digest([1, False])

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            state_digest({"bad": 1.5})


class TestStoreAppend:
    def test_cycles_must_increase(self):
        store = make_store((0, {}), (100, {}))
        with pytest.raises(CampaignError):
            store.append(CheckpointTick(cycle=100, payload={}))

    def test_page_size_validated(self):
        store = CheckpointStore()
        with pytest.raises(CampaignError):
            store.append(
                CheckpointTick(cycle=0, payload={}, dirty_pages={0: [1, 2]})
            )

    def test_len_and_span(self):
        store = make_store((0, {}), (512, {}), (1024, {}))
        assert len(store) == 3
        assert store.span() == (0, 1024)


class TestNearestLookup:
    def test_exact_and_between(self):
        store = make_store((0, {}), (512, {}), (1024, {}))
        assert store.nearest(0) == 0
        assert store.nearest(511) == 0
        assert store.nearest(512) == 1
        assert store.nearest(700) == 1
        assert store.nearest(99999) == 2

    def test_before_first_and_empty(self):
        assert CheckpointStore().nearest(10) is None
        store = make_store((100, {}),)
        assert store.nearest(99) is None

    def test_nearest_before_is_strict(self):
        """The warm-restore lookup must never return the checkpoint
        captured *at* the requested cycle — restoring it would land the
        target on the injection instant and skip that cycle's trigger
        evaluation (the off-by-one this method exists to prevent)."""
        store = make_store((0, {}), (512, {}), (1024, {}))
        assert store.nearest_before(512) == 0   # nearest() would say 1
        assert store.nearest_before(513) == 1
        assert store.nearest_before(1024) == 1
        assert store.nearest_before(99999) == 2
        assert store.nearest_before(0) is None
        assert CheckpointStore().nearest_before(10) is None


class TestDeltaRoundTrip:
    def test_later_deltas_win(self):
        store = make_store(
            (0, {0: page(1), 1: page(2)}),
            (512, {1: page(3)}),
            (1024, {2: page(4)}),
        )
        image = store.restore_image(2)
        assert image.pages[0] == page(1)
        assert image.pages[1] == page(3)  # overwritten by tick 1
        assert image.pages[2] == page(4)

    def test_intermediate_image_excludes_later_deltas(self):
        store = make_store(
            (0, {0: page(1)}),
            (512, {0: page(9), 1: page(2)}),
        )
        image = store.restore_image(0)
        assert image.pages == {0: page(1)}

    def test_bad_index_rejected(self):
        with pytest.raises(CampaignError):
            make_store((0, {})).restore_image(1)

    def test_stats_accounting(self):
        store = make_store(
            (0, {0: page(1), 1: page(2)}),
            (512, {1: page(3)}),
        )
        stats = store.stats()
        assert stats["checkpoints"] == 2
        assert stats["delta_pages"] == 3
        assert stats["unique_pages"] == 2
        assert stats["delta_words"] == 3 * PAGE_WORDS


class TestThorCaptureRestore:
    """Port-level round trip on the real Thor target."""

    def _prepared(self, **overrides):
        target = create_target("thor-rd")
        campaign = make_campaign(
            n_experiments=2, warm_start=True, **overrides
        )
        target.prepare_run(campaign)
        return target

    def test_reference_run_captures_checkpoints(self):
        target = self._prepared()
        store = target._checkpoints
        assert store is not None and len(store) >= 1
        assert store.cycles[0] == 0
        intervals = [
            b - a for a, b in zip(store.cycles, store.cycles[1:])
        ]
        assert all(i >= DEFAULT_CHECKPOINT_INTERVAL for i in intervals)

    def test_restore_round_trip_fingerprint(self):
        target = self._prepared()
        store = target._checkpoints
        image = store.restore_image(len(store) - 1)
        # Must not raise: the restored state reproduces the fingerprint.
        target.restore_checkpoint(image)
        assert target.card.cpu.cycles == image.cycle

    def test_tampered_fingerprint_raises_mismatch(self):
        target = self._prepared()
        store = target._checkpoints
        image = store.restore_image(0)
        image.fingerprint = "0" * 64
        with pytest.raises(CheckpointMismatch):
            target.restore_checkpoint(image)

    def test_tampered_store_falls_back_cold(self):
        """A corrupted checkpoint must cost speed, never correctness."""
        clean = self._prepared()
        results = [clean.run_single_experiment(i) for i in range(2)]

        tampered = self._prepared()
        for index in range(len(tampered._checkpoints)):
            tampered._checkpoints.tick(index).fingerprint = "f" * 64
        fallback = [tampered.run_single_experiment(i) for i in range(2)]

        for a, b in zip(results, fallback):
            assert a.termination.kind == b.termination.kind
            assert a.outputs == b.outputs
            assert a.state_vector == b.state_vector

    def test_detail_mode_disables_capture(self):
        target = self._prepared(logging_mode="detail")
        assert target._checkpoints is None

    def test_swifi_pre_never_captures(self):
        target = self._prepared(
            technique="swifi-pre", location_patterns=["memory:data/*"]
        )
        assert target._checkpoints is None

    def test_tsm_port_degrades_to_cold(self):
        """A port without the checkpoint blocks keeps the cold path and
        still completes its campaign."""
        from repro.tsm.interface import TsmInterface

        target = TsmInterface()
        campaign = make_campaign(
            campaign_name="tsm-warm",
            target_name="tsm-1",
            workload_name="sumsq",
            location_patterns=[
                "scan:internal/tsm.dstack.*", "scan:internal/tsm.sp"
            ],
            n_experiments=2,
            warm_start=True,
        )
        sink = target.run_campaign(campaign)
        assert target._checkpoints is None
        assert len(sink.results) == 2


class TestWarmRestoreBoundary:
    """Regression: an injection pinned exactly on checkpoint
    cadence must restore from the checkpoint strictly *before* the
    injection cycle, never the one captured at it."""

    def _campaign_on_cadence(self, name, **overrides):
        target = create_target("thor-rd")
        probe = make_campaign(
            campaign_name=f"{name}-probe",
            workload_name="bubblesort",
            workload_params={"n": 16},
            n_experiments=1,
            warm_start=True,
        )
        target.prepare_run(probe)
        store = target._checkpoints
        assert store is not None and len(store) >= 2
        # Pin the trigger on the second captured cycle exactly.
        on_cadence = store.cycles[1]
        return make_campaign(
            campaign_name=name,
            workload_name="bubblesort",
            workload_params={"n": 16},
            trigger=TriggerSpec(kind="time-fixed", time=on_cadence),
            warm_start=True,
            n_experiments=4,
            **overrides,
        ), on_cadence

    def test_restore_is_strictly_before_injection(self):
        campaign, on_cadence = self._campaign_on_cadence("boundary-spy")
        target = create_target("thor-rd")
        restored_cycles = []
        original = target.restore_checkpoint

        def spy(image):
            restored_cycles.append(image.cycle)
            return original(image)

        target.restore_checkpoint = spy
        target.run_campaign(campaign)
        assert restored_cycles, "warm path never engaged"
        assert all(cycle < on_cadence for cycle in restored_cycles)

    def test_on_cadence_outcomes_match_cold(self):
        campaign, _ = self._campaign_on_cadence("boundary-rows")

        def leg(warm):
            target = create_target("thor-rd")
            if not warm:
                target.early_exit = False
            sink = target.run_campaign(
                campaign.modified(warm_start=warm)
            )
            return _rows(sink)

        assert leg(True) == leg(False)
