"""Tests for pre-runtime SWIFI."""

import pytest

from repro.swifi.preruntime import flip_image_bit
from repro.thor.assembler import assemble
from repro.thor.testcard import TestCard


@pytest.fixture
def loaded_card():
    card = TestCard()
    card.init()
    card.load_program(assemble("start: ldi r1, 5\nhalt\nv: .word 0xF0\n"))
    return card


class TestFlipImageBit:
    def test_flip(self, loaded_card):
        address = 0x102  # the data word
        before, after = flip_image_bit(loaded_card, address, 0)
        assert (before, after) == (0, 1)
        assert loaded_card.read_memory(address) == 0xF1

    def test_stuck_at_zero(self, loaded_card):
        address = 0x102
        before, after = flip_image_bit(loaded_card, address, 4, op="stuck0")
        assert (before, after) == (1, 0)
        assert loaded_card.read_memory(address) == 0xE0

    def test_stuck_at_same_value_noop(self, loaded_card):
        address = 0x102
        before, after = flip_image_bit(loaded_card, address, 4, op="stuck1")
        assert (before, after) == (1, 1)
        assert loaded_card.read_memory(address) == 0xF0

    def test_flip_in_code_changes_behaviour(self, loaded_card):
        # Flip the lowest immediate bit of "ldi r1, 5" -> "ldi r1, 4".
        flip_image_bit(loaded_card, 0x100, 0)
        loaded_card.run(timeout_cycles=1000)
        assert loaded_card.cpu.regs[1] == 4


class TestCampaignLevel:
    def test_preruntime_faults_land_before_execution(self, thor_target):
        from tests.conftest import make_campaign

        campaign = make_campaign(
            technique="swifi-pre",
            location_patterns=["memory:data/*"],
            workload_name="bubblesort",
            n_experiments=10,
            seed=21,
        )
        sink = thor_target.run_campaign(campaign)
        for result in sink.results:
            assert all(injection.time == 0 for injection in result.injections)

    def test_data_flip_often_escapes(self, thor_target):
        """Flipping high bits of input data must corrupt the checksum —
        value escapes are common for data-area injections."""
        from repro.analysis import Outcome, classify_campaign
        from tests.conftest import make_campaign

        campaign = make_campaign(
            technique="swifi-pre",
            location_patterns=["memory:data/*"],
            workload_name="bubblesort",
            n_experiments=30,
            seed=8,
        )
        sink = thor_target.run_campaign(campaign)
        summary = classify_campaign(sink.results, sink.reference)
        assert summary.count(Outcome.ESCAPED_VALUE) > 0

    def test_preinjection_keeps_code_words_fetched_later(self, thor_target):
        """Pre-injection analysis counts each step's fetch as a read of
        the word at its PC, so a code-image campaign finds live words:
        every sampled word is fetched at or after its sampled time."""
        from tests.conftest import make_campaign

        campaign = make_campaign(
            technique="swifi-pre",
            location_patterns=["memory:code/*"],
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            use_preinjection=True,
            n_experiments=12,
            seed=5,
        )
        sink = thor_target.run_campaign(campaign)
        assert len(sink.results) == 12
        reference = sink.reference
        for result in sink.results:
            plan = thor_target.plan_experiment(result.index, reference)
            (action,) = plan.sorted_actions()
            (location,) = action.locations
            assert [injection.location for injection in result.injections] == [
                location
            ]
            address = int(location.path.split("0x", 1)[1], 16)
            assert any(
                step.pc == address and step.cycle_before >= action.time
                for step in reference.trace
            ), location.key()
