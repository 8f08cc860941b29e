"""Tests for the Thor RD target interface (the SCIFI port)."""

import pytest

from repro.core.faultmodels import InjectionAction
from repro.core.locations import FaultLocation
from repro.scifi.interface import ThorRDInterface
from repro.util.errors import CampaignError
from tests.conftest import make_campaign


@pytest.fixture
def bound_target():
    target = ThorRDInterface()
    target.read_campaign_data(make_campaign())
    return target


class TestLocationSpace:
    def test_space_covers_all_categories(self, bound_target):
        spaces = {cell.space for cell in bound_target.location_space().cells()}
        assert {"scan:internal", "scan:boundary", "memory:code",
                "memory:data", "swreg"} <= spaces

    def test_memory_cells_match_workload_image(self, bound_target):
        cells = bound_target.location_space().select_cells(["memory:code/*"])
        workload = bound_target._workload
        assert len(cells) == len(workload.program.code_addresses())

    def test_input_data_outside_image_included(self):
        target = ThorRDInterface()
        target.read_campaign_data(make_campaign(workload_name="bubblesort"))
        cells = target.location_space().select_cells(["memory:data/*"])
        workload = target._workload
        data_addresses = set(workload.program.data_addresses()) | set(
            workload.input_writes
        )
        assert len(cells) == len(data_addresses)

    def test_read_only_cells_marked(self, bound_target):
        cell = bound_target.location_space().cell(
            "scan:internal", "cpu.cycle_counter"
        )
        assert cell.read_only


class TestScifiInjection:
    def test_inject_fault_flips_chain_bit(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        chains = bound_target.read_scan_chain()
        location = FaultLocation("scan:internal", "cpu.regfile.r3", 7)
        action = InjectionAction(time=5, locations=(location,))
        injections = bound_target.inject_fault(chains, action)
        assert len(injections) == 1
        offset = bound_target.card.chain("internal").bit_offset(
            "cpu.regfile.r3", 7
        )
        assert chains["internal"][offset] == injections[0].bit_after
        assert injections[0].bit_before != injections[0].bit_after

    def test_write_back_applies_fault_to_target(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        chains = bound_target.read_scan_chain()
        location = FaultLocation("scan:internal", "cpu.regfile.r3", 7)
        bound_target.inject_fault(
            chains, InjectionAction(time=5, locations=(location,))
        )
        bound_target.write_scan_chain(chains)
        assert bound_target.card.cpu.regs[3] == 1 << 7

    def test_scifi_rejects_memory_locations(self, bound_target):
        chains = {"internal": [], "boundary": []}
        location = FaultLocation("memory:code", "word.0x0100", 0)
        with pytest.raises(CampaignError):
            bound_target.inject_fault(
                chains, InjectionAction(time=1, locations=(location,))
            )


class TestPreRuntimeInjection:
    def test_flips_image_bit(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        address = bound_target._workload.program.code_addresses()[0]
        before_word = bound_target.card.read_memory(address)
        location = FaultLocation("memory:code", f"word.0x{address:04x}", 4)
        injections = bound_target.inject_fault_preruntime(
            InjectionAction(time=0, locations=(location,))
        )
        assert injections[0].time == 0
        assert bound_target.card.read_memory(address) == before_word ^ (1 << 4)


class TestDirectInjection:
    def test_direct_register_flip(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        location = FaultLocation("scan:internal", "cpu.regfile.r5", 0)
        bound_target.inject_fault_direct(
            InjectionAction(time=1, locations=(location,))
        )
        assert bound_target.card.cpu.regs[5] == 1

    def test_direct_read_only_rejected(self, bound_target):
        location = FaultLocation("scan:internal", "cpu.cycle_counter", 0)
        with pytest.raises(CampaignError):
            bound_target.inject_fault_direct(
                InjectionAction(time=1, locations=(location,))
            )

    def test_direct_memory_flip_invalidates_caches(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        address = bound_target._workload.program.code_addresses()[0]
        # Warm the icache at that address.
        bound_target.card.cpu.icache.read(address, bound_target.card.cpu.memory)
        location = FaultLocation("memory:code", f"word.0x{address:04x}", 1)
        bound_target.inject_fault_direct(
            InjectionAction(time=1, locations=(location,))
        )
        value, extra = bound_target.card.cpu.icache.read(
            address, bound_target.card.cpu.memory
        )
        assert extra > 0  # line was invalidated -> refill
        assert value == bound_target.card.read_memory(address)


class TestPeekBits:
    def test_peek_equals_the_injectors_reads_and_shifts_nothing(self):
        """Every scan, memory and register bit peeked mid-run equals the
        bit a scan read or a direct read returns; peeking shifts no
        chain and changes nothing."""
        target = ThorRDInterface()
        campaign = make_campaign(workload_name="bubblesort")
        target.prepare_run(campaign)
        target._cold_prefix()
        target.wait_for_breakpoint(target._reference.duration_cycles // 2)
        space = target.location_space()
        locations = space.expand(
            ["scan:internal/*", "scan:boundary/*", "memory:data/*", "swreg"]
        )
        card = target.card
        images = {name: card.read_chain(name) for name in card.chains}
        scan_cycles = card.total_scan_cycles
        snapshot = card.cpu.snapshot()
        bits = target.peek_bits(locations)
        assert card.total_scan_cycles == scan_cycles
        assert card.cpu.snapshot() == snapshot
        for location, bit in zip(locations, bits):
            if location.space.startswith("scan:"):
                chain_name = location.space.split(":", 1)[1]
                offset = card.chain(chain_name).bit_offset(
                    location.path, location.bit
                )
                assert images[chain_name][offset] == bit, location.key()
            else:
                [expected] = [
                    injection.bit_before
                    for injection in target.inject_fault_direct(
                        InjectionAction(time=0, locations=(location,), op="stuck0")
                    )
                ]
                assert expected == bit, location.key()


class TestTargetLifetime:
    def test_discarded_target_is_freed_without_the_cyclic_collector(self):
        """The card holds no hook bound to its target while no
        runtime-SWIFI instrumenter is active, so a prepared target is
        freed as soon as it goes out of scope."""
        import gc
        import weakref

        def prepared():
            target = ThorRDInterface()
            target.prepare_run(make_campaign(workload_name="bubblesort"))
            assert target.card.trap_hook is None
            return weakref.ref(target), weakref.ref(target.card)

        enabled = gc.isenabled()
        gc.disable()
        try:
            target, card = prepared()
            assert target() is None and card() is None
        finally:
            if enabled:
                gc.enable()

    def test_trap_hook_follows_the_instrumenter(self):
        target = ThorRDInterface()
        campaign = make_campaign(
            technique="swifi-runtime", location_patterns=["memory:data/*"]
        )
        target.prepare_run(campaign)
        plan = target.plan_experiment(0, target._reference)
        target.init_test_card()
        target.load_workload()
        target.instrument_workload(plan)
        assert target.card.trap_hook == target._dispatch_trap
        target.init_test_card()
        assert target.card.trap_hook is None


class TestObservation:
    def test_capture_state_vector_keys_match_observe_patterns(
        self, bound_target
    ):
        bound_target.init_test_card()
        bound_target.load_workload()
        vector = bound_target.capture_state_vector()
        assert "scan:internal/cpu.pc" in vector
        assert any("regfile" in key for key in vector)

    def test_outputs_read_back(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        bound_target.write_memory()
        bound_target.run_workload()
        bound_target.wait_for_termination(10**6, None)
        outputs = bound_target.read_memory()
        assert outputs["total"] == bound_target._workload.expected["total"][0]

    def test_trace_collection(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        bound_target.write_memory()
        bound_target.start_trace()
        bound_target.run_workload()
        bound_target.wait_for_termination(10**6, None)
        trace = bound_target.stop_trace()
        assert len(trace) > 10
        assert trace.duration_cycles > 0
        # vecsum has a backward jump each iteration.
        assert trace.branch_steps()

    def test_detail_logging_produces_per_step_states(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        bound_target.write_memory()
        bound_target.set_detail_logging(True)
        bound_target.run_workload()
        bound_target.wait_for_termination(10**6, None)
        states = bound_target.drain_detail_states()
        assert len(states) > 10
        # Draining clears the buffer.
        assert bound_target.drain_detail_states() == []


class TestEnvironmentValidation:
    def test_env_workload_without_env_rejected(self):
        target = ThorRDInterface()
        with pytest.raises(CampaignError):
            target.read_campaign_data(
                make_campaign(workload_name="pid-control", max_iterations=10)
            )

    def test_describe_target_structure(self, bound_target):
        description = bound_target.describe_target()
        assert description["memory_size"] == 65536
        assert "internal" in description["chains"]
        assert "boundary" in description["chains"]


class TestRestrictedScanShift:
    """The restricted scan round-trip (PR 5 satellite): SCIFI reads and
    writes only the chains an injection action touches, unless the
    campaign opts back into ``full_scan_shift``. Outcomes must be
    identical either way — the restriction is purely a cycle saver."""

    def _run(self, full_scan_shift):
        target = ThorRDInterface()
        campaign = make_campaign(
            campaign_name="scan-restrict",
            n_experiments=6,
            full_scan_shift=full_scan_shift,
        )
        sink = target.run_campaign(campaign)
        rows = [
            (r.termination.kind, r.injections, r.outputs, r.state_vector)
            for r in sink.results
        ]
        return target.card.total_scan_cycles, rows

    def test_restricted_is_cheaper_and_identical(self):
        full_cycles, full_rows = self._run(True)
        restricted_cycles, restricted_rows = self._run(False)
        assert restricted_rows == full_rows
        assert restricted_cycles < full_cycles

    def test_read_scan_chain_names_subset(self, bound_target):
        bound_target.init_test_card()
        bound_target.load_workload()
        chains = bound_target.read_scan_chain(["internal"])
        assert set(chains) == {"internal"}

    def test_action_chain_names(self):
        scan = FaultLocation("scan:internal", "cpu.regfile.r3", 7)
        boundary = FaultLocation("scan:boundary", "pins.data_bus", 0)
        memory = FaultLocation("memory:data", "0x100", 0)
        names = ThorRDInterface._action_chain_names
        assert names(InjectionAction(time=1, locations=(scan,))) == [
            "internal"
        ]
        assert names(
            InjectionAction(time=1, locations=(scan, boundary))
        ) == ["boundary", "internal"]
        assert names(
            InjectionAction(time=1, locations=(scan, memory))
        ) is None
