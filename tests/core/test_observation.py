"""The state-capture contract of the observation plan.

``capture_state_vector`` walks an :class:`ObservationPlan` bound once per
campaign. These tests pin it against the bit-level decoder the ports used
before (kept here as the oracle): the same vector, the same scan
accounting, the same width validation of unobserved cells, and a step
hook that exists only while something observes steps.
"""

import random
import re
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import create_target
from repro.core.locations import SWREG_PATH_RE, ObservationPlan
from tests.conftest import make_campaign

THOR_PATTERNS = [
    "scan:internal/cpu.regfile.*",
    "scan:internal/cpu.psr",
    "scan:internal/cpu.pc",
    "scan:internal/dcache.line1.*",
    "scan:internal/icache.line?.tag",
    "scan:internal/cpu.cycle_counter",
    "scan:boundary/pins.*",
    "memory:data/*",
    "memory:code/word.0x010[0-7]",
    "swreg/*",
]
TSM_PATTERNS = [
    "scan:internal/tsm.sp",
    "scan:internal/tsm.dstack.*",
    "scan:internal/tsm.rstack.r[0-3]",
    "memory:*/*",
]


def _board(target):
    return target.board if hasattr(target, "board") else target.card


def observed_cells(target, patterns):
    """The observed cells, selected with plain ``fnmatchcase`` (the TSM
    port falls back to its whole internal chain when nothing matches)."""
    cells = target.location_space().cells()
    selected = [c for c in cells if any(fnmatchcase(c.full_path, p) for p in patterns)]
    if not selected and target.campaign.target_name == "tsm-1":
        selected = [c for c in cells if c.space == "scan:internal"]
    return selected


def bit_level_capture(target, cells):
    """The parent's decoder: shift each observed chain out as a bit list
    (``read_chain``), then fold every observed cell's bit slice; memory
    and registers by parsing the cell path on each call."""
    board = _board(target)
    vector = {}
    chain_bits = {}
    for cell in cells:
        if cell.space.startswith("scan:"):
            name = cell.space.split(":", 1)[1]
            if name not in chain_bits:
                chain_bits[name] = board.read_chain(name)
            offset = board.chain(name).bit_offset(cell.path, 0)
            value = 0
            for i, bit in enumerate(chain_bits[name][offset : offset + cell.width]):
                value |= bit << i
            vector[cell.full_path] = value
        elif cell.space.startswith("memory:"):
            address = int(cell.path.split("0x", 1)[1], 16)
            vector[cell.full_path] = board.read_memory(address)
        elif cell.space == "swreg":
            match = SWREG_PATH_RE.match(cell.path)
            vector[cell.full_path] = board.cpu.regs.read(int(match.group(1)))
    return vector


def direct_capture(target, cells):
    """The parent's SimFI decoder: each observed scan cell's reader,
    called directly, with no scan access."""
    card = target.card
    vector = {}
    for cell in cells:
        if cell.space.startswith("scan:"):
            name = cell.space.split(":", 1)[1]
            vector[cell.full_path] = card.chain(name).cell(cell.path).reader()
        elif cell.space.startswith("memory:"):
            vector[cell.full_path] = card.read_memory(int(cell.path.split("0x", 1)[1], 16))
        elif cell.space == "swreg":
            index = int(SWREG_PATH_RE.match(cell.path).group(1))
            vector[cell.full_path] = card.cpu.regs.read(index)
    return vector


def bound_target(target_name, patterns, **fields):
    """A target bound to a campaign observing ``patterns``, with its
    workload downloaded."""
    if target_name == "tsm-1":
        defaults = dict(
            target_name="tsm-1",
            workload_name="sumsq",
            location_patterns=["scan:internal/tsm.dstack.*"],
        )
    else:
        defaults = dict(target_name=target_name, workload_name="bubblesort")
    defaults.update(fields)
    target = create_target(target_name)
    target.read_campaign_data(make_campaign(observe_patterns=list(patterns), **defaults))
    target.init_test_card()
    target.load_workload()
    target.write_memory()
    return target


def scramble(target, cells, seed):
    """Random values in every writable scan cell (registers, PSR, pc,
    pipeline latches, both caches, pins) and in the observed memory."""
    rng = random.Random(seed)
    board = _board(target)
    for chain in board.chains.values():
        for cell in chain.cells():
            if cell.writer is not None:
                cell.writer(rng.getrandbits(cell.width))
    for cell in cells:
        if cell.space.startswith("memory:"):
            address = int(cell.path.split("0x", 1)[1], 16)
            board.write_memory(address, rng.getrandbits(32))


def scan_counters(target):
    board = _board(target)
    return board.total_scan_cycles, {n: c.reads for n, c in board.chains.items()}


def growth(before, after):
    return after[0] - before[0], {n: after[1][n] - before[1][n] for n in after[1]}


PORTS = [
    ("thor-rd", THOR_PATTERNS, bit_level_capture),
    ("thor-rd-sim", THOR_PATTERNS, direct_capture),
    ("tsm-1", TSM_PATTERNS, bit_level_capture),
]


class TestCaptureEqualsBitLevelOracle:
    @pytest.mark.parametrize("target_name,patterns,oracle", PORTS)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_random_state(self, target_name, patterns, oracle, data, seed):
        chosen = data.draw(
            st.lists(st.sampled_from(patterns), min_size=1, unique=True)
        )
        target = bound_target(target_name, chosen)
        cells = observed_cells(target, chosen)
        scramble(target, cells, seed)
        vector = target.capture_state_vector()
        expected = oracle(target, cells)
        assert list(vector.items()) == list(expected.items())

    @pytest.mark.parametrize("target_name,patterns,oracle", PORTS)
    def test_after_a_run(self, target_name, patterns, oracle):
        """State left by real execution, every pattern at once."""
        target = bound_target(target_name, patterns)
        target.run_workload()
        target.wait_for_termination(100_000, None)
        cells = observed_cells(target, patterns)
        assert {c.space for c in cells} >= (
            {"scan:internal", "memory:code", "memory:data"}
            | ({"swreg", "scan:boundary"} if target_name != "tsm-1" else set())
        )
        vector = target.capture_state_vector()
        assert list(vector.items()) == list(oracle(target, cells).items())

    def test_tsm_falls_back_to_whole_internal_chain(self):
        target = bound_target("tsm-1", ["scan:internal/cpu.regfile.*"])
        cells = observed_cells(target, ["scan:internal/cpu.regfile.*"])
        assert len(cells) == len(target.board.chain("internal").cells())
        assert target.capture_state_vector() == bit_level_capture(target, cells)

    def test_empty_plan_captures_nothing(self):
        assert ObservationPlan().capture(lambda address: 0) == {}


class TestScanAccounting:
    @pytest.mark.parametrize("target_name,patterns,oracle", PORTS)
    def test_growth_per_capture_equals_the_bit_level_decoder(
        self, target_name, patterns, oracle
    ):
        target = bound_target(target_name, patterns)
        cells = observed_cells(target, patterns)
        before = scan_counters(target)
        target.capture_state_vector()
        new = growth(before, scan_counters(target))
        before = scan_counters(target)
        oracle(target, cells)
        old = growth(before, scan_counters(target))
        assert new == old

    def test_one_full_shift_per_observed_chain(self):
        target = bound_target("thor-rd", THOR_PATTERNS)
        card = target.card
        before = scan_counters(target)
        target.capture_state_vector()
        cycles, reads = growth(before, scan_counters(target))
        assert reads == {"internal": 1, "boundary": 1}
        assert cycles == sum(c.shift_cycles for c in card.chains.values())

    def test_unobserved_chain_is_not_shifted(self):
        target = bound_target("thor-rd", ["scan:internal/cpu.pc", "swreg/*"])
        before = scan_counters(target)
        target.capture_state_vector()
        cycles, reads = growth(before, scan_counters(target))
        assert reads == {"internal": 1, "boundary": 0}
        assert cycles == target.card.chain("internal").shift_cycles

    def test_simfi_never_touches_the_scan_port(self):
        target = bound_target("thor-rd-sim", THOR_PATTERNS)
        before = scan_counters(target)
        target.capture_state_vector()
        assert growth(before, scan_counters(target)) == (
            0, {"internal": 0, "boundary": 0}
        )


class TestUnobservedCellsAreValidated:
    def test_thor_out_of_range_dcache_tag(self, monkeypatch):
        target = bound_target("thor-rd", ["scan:internal/cpu.regfile.r1"])
        dcache = target.card.cpu.dcache
        bad = 1 << dcache.tag_bits
        monkeypatch.setattr(dcache.lines[2], "tag", bad)
        message = f"value {bad:#x} does not fit in {dcache.tag_bits} bits"
        with pytest.raises(ValueError, match=re.escape(message)):
            target.capture_state_vector()
        with pytest.raises(ValueError, match=re.escape(message)):
            bit_level_capture(target, observed_cells(target, ["scan:internal/cpu.regfile.r1"]))

    def test_tsm_out_of_range_stack_slot(self, monkeypatch):
        target = bound_target("tsm-1", ["scan:internal/tsm.sp"])
        machine = target.board.machine
        dstack = list(machine.dstack)
        dstack[3] = 1 << 32
        monkeypatch.setattr(machine, "dstack", dstack)
        with pytest.raises(ValueError, match=re.escape("value 0x100000000 does not fit in 32 bits")):
            target.capture_state_vector()

    def test_first_offender_in_chain_order_is_reported(self, monkeypatch):
        target = bound_target("thor-rd", ["swreg/*"])
        cpu = target.card.cpu
        monkeypatch.setattr(cpu.icache.lines[0], "tag", 1 << 40)
        monkeypatch.setattr(cpu.dcache.lines[0], "tag", 1 << 41)
        with pytest.raises(ValueError, match=re.escape(f"value {1 << 40:#x}")):
            target.card.read_chain_values("internal")
        with pytest.raises(ValueError, match=re.escape(f"value {1 << 40:#x}")):
            target.card.read_chain("internal")

    def test_simfi_reads_only_observed_cells(self, monkeypatch):
        """Design decision D3: the simulation baseline calls the observed
        cells' readers and nothing else."""
        target = bound_target("thor-rd-sim", ["scan:internal/cpu.regfile.r1"])
        monkeypatch.setattr(target.card.cpu.dcache.lines[2], "tag", 1 << 40)
        assert list(target.capture_state_vector()) == [
            "scan:internal/cpu.regfile.r1"
        ]


def _record_step_hooks(target):
    """Spy on the board's run loop: the step hook each run starts with."""
    board = _board(target)
    seen = []
    run = board.run

    def spy(*args, **kwargs):
        seen.append(board.on_step)
        return run(*args, **kwargs)

    board.run = spy
    return seen


class TestStepHookOnDemand:
    def test_reference_run_traces_with_the_hook(self):
        target = create_target("thor-rd")
        seen = _record_step_hooks(target)
        target.prepare_run(make_campaign())
        assert seen and all(hook is not None for hook in seen)
        assert target.card.on_step is None

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_plain_scifi_experiment_runs_without_a_hook(self, warm_start):
        target = create_target("thor-rd")
        target.prepare_run(make_campaign(warm_start=warm_start))
        seen = _record_step_hooks(target)
        for index in range(4):
            target.run_single_experiment(index, shortcuts=False)
        assert seen and all(hook is None for hook in seen)

    def test_simfi_and_tsm_experiments_run_without_a_hook(self):
        for target_name, fields in (
            ("thor-rd-sim", dict(target_name="thor-rd-sim", technique="simfi")),
            ("tsm-1", dict(
                target_name="tsm-1",
                workload_name="sumsq",
                location_patterns=["scan:internal/tsm.dstack.*"],
            )),
        ):
            target = create_target(target_name)
            target.prepare_run(make_campaign(**fields))
            seen = _record_step_hooks(target)
            target.run_single_experiment(0, shortcuts=False)
            assert seen and all(hook is None for hook in seen), target_name

    @pytest.mark.parametrize("target_name", ["thor-rd", "tsm-1"])
    def test_detail_experiment_runs_with_the_hook(self, target_name):
        fields = dict(logging_mode="detail")
        if target_name == "tsm-1":
            fields.update(
                target_name="tsm-1",
                workload_name="sumsq",
                location_patterns=["scan:internal/tsm.dstack.*"],
            )
        target = create_target(target_name)
        target.prepare_run(make_campaign(**fields))
        seen = _record_step_hooks(target)
        result = target.run_single_experiment(0)
        assert seen and all(hook is not None for hook in seen)
        assert result.detail_states
        assert _board(target).on_step is None

    def test_runtime_swifi_experiment_runs_with_the_hook(self):
        target = create_target("thor-rd")
        target.prepare_run(
            make_campaign(technique="swifi-runtime", location_patterns=["swreg/*"])
        )
        seen = _record_step_hooks(target)
        target.run_single_experiment(0)
        assert seen and all(hook is not None for hook in seen)
        target.init_test_card()
        assert target.card.on_step is None

    def test_trace_toggles_the_hook(self):
        target = bound_target("thor-rd", THOR_PATTERNS)
        assert target.card.on_step is None
        target.start_trace()
        assert target.card.on_step is not None
        target.set_detail_logging(True)
        target.stop_trace()
        assert target.card.on_step is not None
        target.set_detail_logging(False)
        assert target.card.on_step is None
