"""The liveness exit: an experiment whose injected bits the reference
trace proves dead ends at injection with the golden outcome.

Each rule of the reference-trace oracle (DESIGN.md S2f) is checked
through real experiments with hand-made plans: the accelerated row must
equal the row the plain tail (``early_exit=False``) logs, and the exit
must be taken or refused as the rule says.
"""

import dataclasses

import pytest

from repro.core import create_target
from repro.core.faultmodels import InjectionAction, InjectionPlan
from repro.core.locations import FaultLocation
from repro.core.preinjection import LATENT, LIVE, OVERWRITTEN
from repro.observability import configure, disable, get_observability
from repro.thor.registers import Psr
from repro.workloads import library
from repro.workloads.library import WorkloadDefinition, build
from tests.conftest import make_campaign

PSR_PROBE = """
start:
    ldi  r1, 5
    ldi  r2, 7
    ldi  r10, out
    cmp  r1, r2            ; writes Z, N, C and V
at_mov:
    mov  r3, r4            ; writes Z and N only
    blt  flipped           ; reads N and V: taken only when V was flipped
    ldi  r5, 1
    jmp  tail
flipped:
    ldi  r5, 2
tail:
    lui  r6, 0x10000
at_add:
    add  r7, r6, r6        ; the last flag writer; overflows, so OE traps
at_st:
    st   r5, [r10+0]
at_ldi:
    ldi  r8, 3
    ldi  r9, 4
    ldi  r11, 5
    ldi  r12, 6
    halt
out:
    .word 0
"""


@pytest.fixture
def psr_probe(monkeypatch):
    def builder():
        program = build(PSR_PROBE)
        return WorkloadDefinition(
            name="psr-probe",
            description="flag producers and consumers around a branch",
            program=program,
            outputs={"out": (program.symbols["out"], 1)},
            expected={"out": [1]},
        )

    monkeypatch.setitem(library._BUILDERS, "psr-probe", builder)
    return "psr-probe"


def _campaign(workload, **fields):
    defaults = dict(
        campaign_name="liveness-exit",
        workload_name=workload,
        location_patterns=["scan:internal/cpu.psr"],
        n_experiments=1,
        checkpoint_interval=2,
    )
    defaults.update(fields)
    return make_campaign(**defaults)


def _psr(bit):
    return FaultLocation("scan:internal", "cpu.psr", bit)


def _time_at(target, reference, label):
    """Cycle at which the instruction at ``label`` starts."""
    address = target.workload_program().symbols[label]
    return next(
        step.cycle_before for step in reference.trace if step.pc == address
    )


def _row(result):
    data = dataclasses.asdict(result)
    data["wall_seconds"] = 0.0
    return data


def _experiment(campaign, actions, early_exit):
    """The one experiment of ``campaign`` with the plan ``actions`` (a
    list of ``(time, locations, op)``), run by the campaign loop, whose
    schedule derives the row of a dead plan; returns its row, the
    divergence counters and the target."""
    assert campaign.n_experiments == 1
    target = create_target("thor-rd")
    target.early_exit = early_exit
    plan = InjectionPlan([
        InjectionAction(time=time, locations=tuple(locations), op=op)
        for time, locations, op in actions
    ])
    target.plan_experiment = lambda index, reference: plan
    configure(metrics=True)
    try:
        (result,) = target.run_campaign(campaign).results
        counters = get_observability().metrics.snapshot()["counters"]
    finally:
        disable()
    return _row(result), counters, target


def _both(campaign, actions):
    """The accelerated and the plain row of one plan, which must agree;
    returns the row and whether the liveness exit was taken."""
    fast, counters, _ = _experiment(campaign, actions, early_exit=True)
    plain, _, _ = _experiment(campaign, actions, early_exit=False)
    assert fast == plain
    return fast, counters.get("divergence.liveness_exits", 0)


class TestPsrRules:
    def _setup(self, workload):
        campaign = _campaign(workload)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        times = {
            label: _time_at(target, reference, label)
            for label in ("at_mov", "at_add", "at_st", "at_ldi")
        }
        return campaign, target, reference, times

    def test_v_flip_before_mov_blt_is_live(self, psr_probe):
        """MOV writes only Z and N, so the BLT reads the flipped V."""
        campaign, target, reference, times = self._setup(psr_probe)
        t = times["at_mov"]
        assert target._trace_oracle.fate(_psr(Psr.BIT_V), t) == LIVE
        row, exits = _both(campaign, [(t, [_psr(Psr.BIT_V)], "flip")])
        assert exits == 0
        assert row["outputs"] == {"out": 2}
        assert reference.outputs == {"out": 1}

    def test_mov_overwrites_z_and_n_and_the_add_c(self, psr_probe):
        campaign, target, reference, times = self._setup(psr_probe)
        t = times["at_mov"]
        oracle = target._trace_oracle
        for bit in (Psr.BIT_Z, Psr.BIT_C):
            assert oracle.fate(_psr(bit), t) == OVERWRITTEN
            row, exits = _both(campaign, [(t, [_psr(bit)], "flip")])
            assert exits == 1
            assert row["state_vector"] == reference.state_vector
            assert row["termination"] == dataclasses.asdict(
                reference.termination
            )

    def test_c_flip_after_the_last_add_is_latent(self, psr_probe):
        """No later step writes or reads C: the row's PSR carries it."""
        campaign, target, reference, times = self._setup(psr_probe)
        t = times["at_st"]
        assert target._trace_oracle.fate(_psr(Psr.BIT_C), t) == LATENT
        row, exits = _both(campaign, [(t, [_psr(Psr.BIT_C)], "flip")])
        assert exits == 1
        key = "scan:internal/cpu.psr"
        assert row["state_vector"][key] == (
            reference.state_vector[key] ^ 1 << Psr.BIT_C
        )
        assert row["outputs"] == reference.outputs

    def test_oe_is_read_by_an_overflowing_add(self, psr_probe):
        """Only reset, restore and scan write OE: a flip before the MOV
        or right before the add still traps the add."""
        campaign, target, reference, times = self._setup(psr_probe)
        oracle = target._trace_oracle
        for label in ("at_mov", "at_add"):
            before = times[label]
            assert oracle.fate(_psr(Psr.BIT_OE), before) == LIVE
            row, exits = _both(
                campaign, [(before, [_psr(Psr.BIT_OE)], "flip")]
            )
            assert exits == 0
            assert row["termination"]["kind"] == "trap"
        # After the last add nothing reads or writes OE again.
        after = times["at_st"]
        assert oracle.fate(_psr(Psr.BIT_OE), after) == LATENT
        row, exits = _both(campaign, [(after, [_psr(Psr.BIT_OE)], "flip")])
        assert exits == 1
        key = "scan:internal/cpu.psr"
        assert row["state_vector"][key] == (
            reference.state_vector[key] ^ 1 << Psr.BIT_OE
        )


class TestPlanRules:
    def test_exit_needs_every_bit_of_every_action_dead(self, psr_probe):
        campaign = _campaign(psr_probe)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        t_mov = _time_at(target, reference, "at_mov")
        t_st = _time_at(target, reference, "at_st")
        # One action: C is overwritten, V is live.
        row, exits = _both(
            campaign, [(t_mov, [_psr(Psr.BIT_C), _psr(Psr.BIT_V)], "flip")]
        )
        assert exits == 0
        assert row["outputs"] == {"out": 2}
        # Two actions: V live at the first, C latent at the second.
        row, exits = _both(campaign, [
            (t_mov, [_psr(Psr.BIT_V)], "flip"),
            (t_st, [_psr(Psr.BIT_C)], "flip"),
        ])
        assert exits == 0
        assert row["outputs"] == {"out": 2}

    def test_a_bit_injected_twice_takes_its_last_value(self, psr_probe):
        campaign = _campaign(psr_probe)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        t_st = _time_at(target, reference, "at_st")
        t_ldi = _time_at(target, reference, "at_ldi")
        key = "scan:internal/cpu.psr"
        golden = reference.state_vector[key]
        # Flipped twice: the row holds the golden C again.
        row, exits = _both(campaign, [
            (t_st, [_psr(Psr.BIT_C)], "flip"),
            (t_ldi, [_psr(Psr.BIT_C)], "flip"),
        ])
        assert exits == 1
        assert row["state_vector"][key] == golden
        # Stuck at 1, then flipped: the last injection leaves C at 0.
        row, exits = _both(campaign, [
            (t_st, [_psr(Psr.BIT_C)], "stuck1"),
            (t_ldi, [_psr(Psr.BIT_C)], "flip"),
        ])
        assert exits == 1
        assert row["state_vector"][key] == golden & ~(1 << Psr.BIT_C)

    def test_a_latent_register_is_set_in_every_observed_key(self, psr_probe):
        """r1 is last read by the CMP: a flip after it is latent and
        shows under both ways of observing the register."""
        campaign = _campaign(
            psr_probe,
            location_patterns=["scan:internal/cpu.regfile.*"],
            observe_patterns=[
                "scan:internal/cpu.regfile.r1", "swreg/cpu.regfile.r1",
            ],
        )
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        r1 = FaultLocation("scan:internal", "cpu.regfile.r1", 3)
        t = _time_at(target, reference, "at_mov")
        assert target._trace_oracle.fate(r1, t) == LATENT
        row, exits = _both(campaign, [(t, [r1], "flip")])
        assert exits == 1
        assert row["state_vector"] == {
            key: value ^ 1 << 3 for key, value in reference.state_vector.items()
        }


    def test_a_write_between_injections_restores_the_golden_bit(
        self, psr_probe
    ):
        """The MOV and the ADD write Z between the two flips, so the
        second flip's ``bit_before`` is the golden Z, read in the golden
        pass, not the first flip's ``bit_after``."""
        campaign = _campaign(psr_probe)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        t_mov = _time_at(target, reference, "at_mov")
        t_st = _time_at(target, reference, "at_st")
        z = _psr(Psr.BIT_Z)
        assert target._trace_oracle.accessed_between(z, t_mov, t_st)
        row, exits = _both(campaign, [(t_mov, [z], "flip"), (t_st, [z], "flip")])
        assert exits == 1
        first, second = row["injections"]
        assert second["bit_before"] != first["bit_after"]
        key = "scan:internal/cpu.psr"
        assert row["state_vector"][key] == (
            reference.state_vector[key] ^ 1 << Psr.BIT_Z
        )

    def test_an_action_past_the_golden_termination_executes(self, psr_probe):
        """The golden pass never reaches an action after the reference
        run's end, so the plan executes (a faulty run ends there too)."""
        campaign = _campaign(psr_probe)
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        t_st = _time_at(target, reference, "at_st")
        late = reference.duration_cycles + 10
        row, exits = _both(campaign, [
            (t_st, [_psr(Psr.BIT_C)], "flip"),
            (late, [_psr(Psr.BIT_C)], "flip"),
        ])
        assert exits == 0
        assert len(row["injections"]) == 1


class TestPlanTimeDerivation:
    """Dead plans never execute: the schedule derives their rows from
    the golden run at plan time, and the verify sample re-executes
    them."""

    @staticmethod
    def _campaign(**fields):
        defaults = dict(
            campaign_name="liveness-plan-time",
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=[
                "scan:internal/cpu.regfile.*",
                "scan:internal/cpu.psr",
                "scan:internal/dcache.*",
            ],
            n_experiments=24,
            seed=21,
            checkpoint_interval=64,
        )
        defaults.update(fields)
        return make_campaign(**defaults)

    @staticmethod
    def _run(campaign, **attributes):
        target = create_target("thor-rd")
        for name, value in attributes.items():
            setattr(target, name, value)
        executed = []
        run_single_experiment = target.run_single_experiment

        def counted(index, *args, **kwargs):
            executed.append(index)
            return run_single_experiment(index, *args, **kwargs)

        target.run_single_experiment = counted
        configure(metrics=True)
        try:
            sink = target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        return [_row(r) for r in sink.results], counters, executed

    def test_derived_rows_never_execute(self):
        campaign = self._campaign()
        rows, counters, executed = self._run(campaign)
        plain, _, _ = self._run(campaign, early_exit=False)
        assert rows == plain
        exits = counters.get("divergence.liveness_exits", 0)
        assert exits >= 1
        assert len(executed) == campaign.n_experiments - exits
        assert counters.get("experiments_total") == campaign.n_experiments
        # Every executed experiment restored a checkpoint or replayed
        # the memo; the golden pass's own restore is not a hit.
        assert counters.get("checkpoint.hits", 0) + counters.get(
            "divergence.memo_hits", 0
        ) == len(executed)

    def test_verify_reexecutes_every_derived_row(self):
        campaign = self._campaign()
        rows, counters, executed = self._run(campaign, verify_equivalence=1.0)
        plain, _, _ = self._run(campaign, early_exit=False)
        assert rows == plain
        exits = counters.get("divergence.liveness_exits", 0)
        assert exits >= 1
        assert counters.get("divergence.liveness_verified") == exits
        assert len(executed) == campaign.n_experiments

    def test_verify_fails_the_campaign_on_a_wrong_derivation(self):
        from repro.util.errors import CampaignError

        target = create_target("thor-rd")
        target.verify_equivalence = 1.0
        liveness_exit = target._liveness_exit

        def corrupted(result):
            liveness_exit(result)
            result.outputs = {key: 0 for key in result.outputs}

        target._liveness_exit = corrupted
        with pytest.raises(CampaignError, match="derived from the golden run"):
            target.run_campaign(self._campaign())

    def test_a_port_without_peek_bits_executes_every_plan(self):
        from repro.util.errors import NotImplementedByPort

        def no_peek(locations):
            raise NotImplementedByPort("thor-rd", "peek_bits")

        campaign = self._campaign()
        rows, counters, executed = self._run(campaign, peek_bits=no_peek)
        plain, _, _ = self._run(campaign, early_exit=False)
        assert rows == plain
        assert counters.get("divergence.liveness_exits", 0) == 0
        assert len(executed) == campaign.n_experiments


class TestCacheRules:
    def test_a_replay_short_of_the_counts_answers_live(self):
        """quicksort's PUSH and POP reach the dcache without a
        ``mem_address`` in the trace, so its dcache replay falls short
        of the recorded counts and every dcache cell stays live; its
        icache and bubblesort's dcache replay exactly."""
        campaign = _campaign(
            "quicksort",
            location_patterns=["scan:internal/dcache.*"],
            checkpoint_interval=64,
        )
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        trace = reference.trace
        assert trace.caches["dcache"].replay(trace) is None
        assert trace.caches["icache"].replay(trace) is not None
        oracle = target._trace_oracle
        for line in range(16):
            for cell in ("valid", "tag", "word0", "parity3"):
                location = FaultLocation(
                    "scan:internal", f"dcache.line{line}.{cell}", 0
                )
                for time in (0, reference.duration_cycles // 2,
                             reference.duration_cycles):
                    assert oracle.fate(location, time) == LIVE
        bubble = create_target("thor-rd").prepare_run(
            _campaign("bubblesort", checkpoint_interval=64)
        )
        assert bubble.trace.caches["dcache"].replay(bubble.trace) is not None

    def test_icache_faults_exit_with_plain_rows(self):
        """The icache replay (every fetch plus the halting one) lets
        instruction-cache faults exit too."""
        campaign = make_campaign(
            campaign_name="liveness-icache",
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=["scan:internal/icache.*"],
            n_experiments=16,
            seed=3,
            checkpoint_interval=64,
        )
        configure(metrics=True)
        try:
            fast = create_target("thor-rd").run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        plain = create_target("thor-rd")
        plain.early_exit = False
        assert [_row(r) for r in fast.results] == [
            _row(r) for r in plain.run_campaign(campaign).results
        ]
        assert counters.get("divergence.liveness_exits", 0) >= 1

    def test_simfi_memory_words_answer_live(self):
        """A direct memory injection clears the word's cached lines, so
        even a word the run overwrites before reading it moves the
        termination cycle: a later access to its line misses."""
        campaign = _campaign(
            "bubblesort",
            technique="simfi",
            location_patterns=["memory:data/*"],
            checkpoint_interval=64,
        )
        target = create_target("thor-rd")
        reference = target.prepare_run(campaign)
        oracle = target._trace_oracle
        stores = [step for step in reference.trace if step.mem_is_write]
        store = stores[len(stores) // 2]
        location = FaultLocation(
            "memory:data", f"word.0x{store.mem_address:04x}", 0
        )
        assert not oracle.is_live(location, store.cycle_before)
        assert oracle.fate(location, store.cycle_before) == LIVE
        row, exits = _both(
            campaign, [(store.cycle_before, [location], "flip")]
        )
        assert exits == 0
        assert row["outputs"] == reference.outputs
        assert row["termination"]["cycle"] != reference.duration_cycles


def test_exit_counters_on_a_dcache_campaign():
    """Each liveness exit counts as an early exit and skips the cycles
    from its injection to the reference termination."""
    campaign = make_campaign(
        campaign_name="liveness-counters",
        workload_name="bubblesort",
        workload_params={"n": 8, "seed": 7},
        location_patterns=["scan:internal/dcache.*"],
        n_experiments=24,
        seed=20,
    )
    configure(metrics=True)
    try:
        target = create_target("thor-rd")
        sink = target.run_campaign(campaign)
        counters = get_observability().metrics.snapshot()["counters"]
    finally:
        disable()
    plain = create_target("thor-rd")
    plain.early_exit = False
    assert [_row(r) for r in sink.results] == [
        _row(r) for r in plain.run_campaign(campaign).results
    ]
    # Every experiment exits: its dcache bit is overwritten by a fill or
    # a store hit, or never touched again. The exit needs no golden tick
    # after the injection, so the two experiments injected after the
    # last tick (which the runtime exit left to the plain tail) exit too.
    duration = target._reference.duration_cycles
    last_tick = target._checkpoints.cycles[-1]
    times = [r.injections[-1].time for r in sink.results]
    assert sum(t >= last_tick for t in times) == 2
    assert sum(duration - t for t in times) == 6734
    assert counters.get("divergence.liveness_exits") == 24
    assert counters.get("divergence.early_exits") == 24
    assert counters.get("divergence.cycles_skipped") == 6734
    assert counters.get("divergence.probes", 0) == 0
    assert counters.get("experiments_total") == 24


class TestWhereTheOracleIsBuilt:
    def test_only_where_the_probe_can_arm(self):
        """No option selects the exit: cold starts, ``--no-early-exit``,
        detail mode and a reference with no golden tick inside it build
        no oracle, so every plain path stays plain."""
        shapes = [
            (dict(warm_start=False), True),
            (dict(), False),
            (dict(logging_mode="detail"), True),
            (dict(checkpoint_interval=None, workload_name="vecsum"), True),
        ]
        for fields, early_exit in shapes:
            campaign = _campaign(
                fields.pop("workload_name", "bubblesort"),
                checkpoint_interval=fields.pop("checkpoint_interval", 64),
                **fields,
            )
            target = create_target("thor-rd")
            target.early_exit = early_exit
            target.prepare_run(campaign)
            assert target._trace_oracle is None, (fields, early_exit)
        target = create_target("thor-rd")
        target.prepare_run(_campaign("bubblesort", checkpoint_interval=64))
        assert target._trace_oracle is not None

    def test_dynamic_pruning_reuses_the_oracle(self):
        target = create_target("thor-rd")
        target.prepare_run(_campaign(
            "bubblesort", checkpoint_interval=64, use_preinjection=True,
            location_patterns=["scan:internal/cpu.regfile.*"],
        ))
        assert target._liveness is target._trace_oracle is not None

    def test_golden_cache_path_takes_the_exit(self, tmp_path):
        from repro.core.goldencache import GoldenRunCache

        campaign = make_campaign(
            campaign_name="liveness-golden",
            workload_name="bubblesort",
            workload_params={"n": 8, "seed": 7},
            location_patterns=["scan:internal/dcache.*"],
            n_experiments=8,
            seed=20,
        )
        first = create_target("thor-rd")
        first.golden_cache = GoldenRunCache(tmp_path)
        rows = [_row(r) for r in first.run_campaign(campaign).results]
        configure(metrics=True)
        try:
            second = create_target("thor-rd")
            second.golden_cache = GoldenRunCache(tmp_path)
            again = [_row(r) for r in second.run_campaign(campaign).results]
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert again == rows
        assert counters.get("goldencache.hits") == 1
        assert counters.get("divergence.liveness_exits", 0) >= 1
