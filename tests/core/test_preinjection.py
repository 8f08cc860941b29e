"""Unit tests for the pre-injection (liveness) analysis."""

from repro.core.locations import FaultLocation, LocationCell, LocationSpace
from repro.core.preinjection import PreInjectionAnalysis
from repro.core.trace import Trace, TraceStep


def step(i, **kw):
    defaults = dict(
        index=i, pc=0x100 + i, cycle_before=i * 10, cycle_after=i * 10 + 10
    )
    defaults.update(kw)
    return TraceStep(**defaults)


def reg_loc(n, bit=0):
    return FaultLocation("scan:internal", f"cpu.regfile.r{n}", bit)


def make_trace():
    """Reference trace:
       step 0 (cycles 0-10):  write r1
       step 1 (cycles 10-20): read r1, write r2; write flags
       step 2 (cycles 20-30): read r2; read flags (branch)
       step 3 (cycles 30-40): write r2; store to 0x300
       step 4 (cycles 40-50): load from 0x300 into r3
    """
    return Trace(
        [
            step(0, reg_writes=(1,)),
            step(1, reg_reads=(1,), reg_writes=(2,), writes_flags=True),
            step(2, reg_reads=(2,), reads_flags=True, is_branch=True),
            step(3, reg_writes=(2,), mem_address=0x300, mem_value=5,
                 mem_is_write=True),
            step(4, reg_reads=(3,), mem_address=0x300, mem_value=5,
                 reg_writes=(3,)),
        ]
    )


def make_analysis():
    space = LocationSpace([LocationCell("scan:internal", "cpu.pc", 16)])
    return PreInjectionAnalysis.from_trace(make_trace(), space)


class TestRegisterLiveness:
    def test_live_before_read(self):
        analysis = make_analysis()
        # r1 written at 0, read at 10: live in (0, 10].
        assert analysis.is_live(reg_loc(1), 5)
        assert analysis.is_live(reg_loc(1), 10)

    def test_dead_after_last_read(self):
        analysis = make_analysis()
        assert not analysis.is_live(reg_loc(1), 11)

    def test_dead_before_write(self):
        analysis = make_analysis()
        # r2 next access at t<=10 is the write at step 1.
        assert not analysis.is_live(reg_loc(2), 5)

    def test_live_between_write_and_read(self):
        analysis = make_analysis()
        assert analysis.is_live(reg_loc(2), 15)

    def test_rewritten_register_dead_again(self):
        analysis = make_analysis()
        # r2 read at 20, rewritten at 30, never read after.
        assert not analysis.is_live(reg_loc(2), 25)

    def test_untouched_register_dead(self):
        analysis = make_analysis()
        assert not analysis.is_live(reg_loc(9), 5)


class TestFlagAndSpecialLiveness:
    def test_flags_live_before_branch(self):
        analysis = make_analysis()
        location = FaultLocation("scan:internal", "cpu.psr", 0)
        assert analysis.is_live(location, 15)
        assert not analysis.is_live(location, 25)

    def test_pc_always_live_during_run(self):
        analysis = make_analysis()
        location = FaultLocation("scan:internal", "cpu.pc", 3)
        assert analysis.is_live(location, 10)
        assert not analysis.is_live(location, 999)

    def test_ir_live(self):
        analysis = make_analysis()
        location = FaultLocation("scan:internal", "cpu.pipeline.ir", 0)
        assert analysis.is_live(location, 20)

    def test_unknown_cells_conservatively_live(self):
        analysis = make_analysis()
        location = FaultLocation("scan:internal", "dcache.line0.word1", 4)
        assert analysis.is_live(location, 10)

    def test_mar_mdr_conservatively_live(self):
        """State the trace cannot see (MAR/MDR latches) is never pruned,
        not even beyond the reference duration."""
        analysis = make_analysis()
        for path in ("cpu.pipeline.mar", "cpu.pipeline.mdr"):
            location = FaultLocation("scan:internal", path, 0)
            assert analysis.is_live(location, 10)
            assert analysis.is_live(location, 9999)

    def test_pc_and_ir_at_duration_boundary(self):
        """PC/IR are live up to and including the reference duration
        (50 cycles in the fixture trace), dead one cycle later."""
        analysis = make_analysis()
        for path in ("cpu.pc", "cpu.pipeline.ir"):
            location = FaultLocation("scan:internal", path, 0)
            assert analysis.is_live(location, 50)
            assert not analysis.is_live(location, 51)


class TestPsrBits:
    """The PSR is judged bit by bit from each step's flag masks."""

    @staticmethod
    def analysis():
        """step 0: writes Z and N (a MOV); step 1: writes Z, N, C, V and
        reads OE (an ADD); step 2: reads N and V (a BLT)."""
        trace = Trace([
            step(0, writes_flags=0b00011),
            step(1, reads_flags=0b10000, writes_flags=0b01111),
            step(2, reads_flags=0b01010),
        ])
        space = LocationSpace([LocationCell("scan:internal", "cpu.psr", 5)])
        return PreInjectionAnalysis.from_trace(trace, space)

    def test_bits_follow_their_own_accesses(self):
        from repro.core.preinjection import LATENT, LIVE, OVERWRITTEN

        analysis = self.analysis()

        def fate(bit, time):
            return analysis.fate(
                FaultLocation("scan:internal", "cpu.psr", bit), time
            )

        # Before the MOV: Z and N are overwritten there, C and V by the
        # ADD, and OE is read by the ADD.
        assert [fate(bit, 0) for bit in range(5)] == [
            OVERWRITTEN, OVERWRITTEN, OVERWRITTEN, OVERWRITTEN, LIVE
        ]
        # After the ADD: the BLT reads N and V; Z, C and OE stay latent.
        assert [fate(bit, 15) for bit in range(5)] == [
            LATENT, LIVE, LATENT, LIVE, LATENT
        ]
        assert analysis.is_live(
            FaultLocation("scan:internal", "cpu.psr", 3), 15
        )
        assert not analysis.is_live(
            FaultLocation("scan:internal", "cpu.psr", 2), 15
        )


class TestAccessedBetween:
    """Whether a bit injected at ``start`` still holds its injected value
    at ``stop``: the reference run accesses it nowhere in between."""

    @staticmethod
    def analysis():
        """r4 is written at 0, 10, 20 and 30 and read at 40; the C flag
        (bit 2) is written at 0, 20 and 40 and never read."""
        trace = Trace([
            step(0, reg_writes=(4,), writes_flags=0b00100),
            step(1, reg_writes=(4,)),
            step(2, reg_writes=(4,), writes_flags=0b00100),
            step(3, reg_writes=(4,)),
            step(4, reg_reads=(4,), writes_flags=0b00100),
        ])
        space = LocationSpace([LocationCell("scan:internal", "cpu.psr", 5)])
        return PreInjectionAnalysis.from_trace(trace, space)

    def test_register_runs(self):
        analysis = self.analysis()
        r4 = reg_loc(4)
        # The run of writes keeps only its last time (30), so for an
        # interval it does not end inside, the trace steps answer.
        assert analysis.accessed_between(r4, 0, 1)
        assert not analysis.accessed_between(r4, 0, 0)
        assert analysis.accessed_between(r4, 5, 15)
        assert not analysis.accessed_between(r4, 11, 19)
        assert not analysis.accessed_between(r4, 31, 40)
        assert analysis.accessed_between(r4, 31, 41)
        # After the last access and on a register never accessed.
        assert not analysis.accessed_between(r4, 41, 99)
        assert not analysis.accessed_between(reg_loc(9), 0, 99)

    def test_psr_bits(self):
        analysis = self.analysis()
        carry = FaultLocation("scan:internal", "cpu.psr", 2)
        assert analysis.accessed_between(carry, 1, 21)
        assert not analysis.accessed_between(carry, 1, 20)
        assert not analysis.accessed_between(carry, 21, 40)
        assert analysis.accessed_between(carry, 21, 41)
        zero = FaultLocation("scan:internal", "cpu.psr", 0)
        assert not analysis.accessed_between(zero, 0, 99)

    def test_cache_cells(self):
        """The store to 0x300 misses an empty line and changes nothing
        in it; the load at 40 fills line 0."""
        from repro.thor.cache import CacheRecord

        trace = make_trace()
        trace.caches = {"dcache": CacheRecord(16, 4, hits=0, misses=2)}
        analysis = PreInjectionAnalysis.from_trace(trace, LocationSpace([]))
        word = FaultLocation("scan:internal", "dcache.line0.word1", 0)
        assert not analysis.accessed_between(word, 0, 40)
        assert analysis.accessed_between(word, 0, 41)
        valid = FaultLocation("scan:internal", "dcache.line0.valid", 0)
        assert analysis.accessed_between(valid, 0, 31)


class TestExitVerdicts:
    def test_untraced_cells_answer_live(self):
        """PC, IR, MAR/MDR, pins and memory words are never dead for the
        liveness exit, at any time."""
        from repro.core.preinjection import LIVE

        analysis = make_analysis()
        for space, path in (
            ("scan:internal", "cpu.pc"),
            ("scan:internal", "cpu.pipeline.ir"),
            ("scan:internal", "cpu.pipeline.mar"),
            ("scan:internal", "cpu.pipeline.mdr"),
            ("scan:boundary", "pins.data_bus"),
            ("scan:boundary", "pins.force_mask"),
            ("scan:internal", "cpu.cycle_counter"),
            ("scan:internal", "dcache.line0.word1"),
            ("memory:data", "word.0x0300"),
            ("memory:data", "word.0x0999"),
        ):
            for time in (0, 25, 9999):
                assert analysis.fate(FaultLocation(space, path, 0), time) == LIVE

    def test_register_verdicts(self):
        from repro.core.preinjection import LATENT, LIVE, OVERWRITTEN

        analysis = make_analysis()
        assert analysis.fate(reg_loc(1), 5) == LIVE
        assert analysis.fate(reg_loc(2), 25) == OVERWRITTEN
        assert analysis.fate(reg_loc(2), 35) == LATENT
        assert analysis.fate(
            FaultLocation("swreg", "cpu.regfile.r1", 0), 5
        ) == LIVE


class TestMemoryLiveness:
    def test_fetch_reads_the_code_word(self):
        """Each step's fetch reads the word at its PC (fixture steps sit
        at 0x100 + i)."""
        analysis = make_analysis()
        location = FaultLocation("memory:code", "word.0x0102", 0)
        assert analysis.is_live(location, 20)
        assert not analysis.is_live(location, 21)


    def test_memory_live_between_write_and_read(self):
        analysis = make_analysis()
        location = FaultLocation("memory:data", "word.0x0300", 0)
        assert analysis.is_live(location, 35)

    def test_memory_dead_before_write(self):
        analysis = make_analysis()
        location = FaultLocation("memory:data", "word.0x0300", 0)
        assert not analysis.is_live(location, 20)

    def test_unaccessed_memory_dead(self):
        analysis = make_analysis()
        location = FaultLocation("memory:data", "word.0x0999", 0)
        assert not analysis.is_live(location, 10)


class TestLiveFraction:
    def test_fraction_bounds(self):
        analysis = make_analysis()
        locations = [reg_loc(1), reg_loc(2), reg_loc(9)]
        fraction = analysis.live_fraction(locations, [5, 15, 25])
        assert 0.0 <= fraction <= 1.0

    def test_empty_inputs(self):
        analysis = make_analysis()
        assert analysis.live_fraction([], [1]) == 0.0

    def test_max_samples_caps_and_is_deterministic(self):
        analysis = make_analysis()
        locations = [reg_loc(n) for n in range(10)]
        times = list(range(0, 50))
        capped = analysis.live_fraction(locations, times, max_samples=37)
        again = analysis.live_fraction(locations, times, max_samples=37)
        assert 0.0 <= capped <= 1.0
        assert capped == again

    def test_max_samples_larger_than_space_enumerates(self):
        analysis = make_analysis()
        locations = [reg_loc(1), reg_loc(2)]
        times = [5, 15]
        full = analysis.live_fraction(locations, times)
        assert analysis.live_fraction(
            locations, times, max_samples=10_000
        ) == full


class TestEmptyTrace:
    def test_empty_trace_everything_dead(self):
        """An empty reference trace touches nothing: every traced
        location class is dead, only unknown cells stay live."""
        space = LocationSpace([LocationCell("scan:internal", "cpu.pc", 16)])
        analysis = PreInjectionAnalysis.from_trace(Trace([]), space)
        assert not analysis.is_live(reg_loc(1), 0)
        assert not analysis.is_live(
            FaultLocation("scan:internal", "cpu.psr", 0), 0
        )
        assert not analysis.is_live(
            FaultLocation("memory:data", "word.0x0300", 0), 0
        )
        # PC/IR at t=0 of a zero-length run, then dead.
        pc = FaultLocation("scan:internal", "cpu.pc", 0)
        assert analysis.is_live(pc, 0)
        assert not analysis.is_live(pc, 1)
        # Unknown cells remain conservatively live.
        assert analysis.is_live(
            FaultLocation("scan:internal", "dcache.line0.word0", 0), 0
        )

    def test_empty_trace_live_fraction(self):
        space = LocationSpace([LocationCell("scan:internal", "cpu.pc", 16)])
        analysis = PreInjectionAnalysis.from_trace(Trace([]), space)
        assert analysis.live_fraction([reg_loc(1)], [1, 2, 3]) == 0.0


class TestBuildLivenessOracle:
    def _space(self):
        return LocationSpace([LocationCell("scan:internal", "cpu.pc", 16)])

    def test_unknown_mode_rejected(self):
        import pytest

        from repro.core.preinjection import build_liveness_oracle
        from repro.util.errors import CampaignError

        with pytest.raises(CampaignError):
            build_liveness_oracle("psychic", Trace([]), self._space())

    def test_dynamic_needs_trace(self):
        import pytest

        from repro.core.preinjection import build_liveness_oracle
        from repro.util.errors import CampaignError

        with pytest.raises(CampaignError):
            build_liveness_oracle("dynamic", None, self._space())

    def test_static_needs_program(self):
        import pytest

        from repro.core.preinjection import build_liveness_oracle
        from repro.util.errors import CampaignError

        with pytest.raises(CampaignError):
            build_liveness_oracle("static", Trace([]), self._space())

    def test_modes_build_expected_oracles(self):
        from repro.core.preinjection import (
            HybridPreInjectionAnalysis,
            build_liveness_oracle,
        )
        from repro.staticanalysis import StaticPreInjectionAnalysis
        from repro.thor.assembler import assemble

        program = assemble("start: halt")
        trace = Trace([step(0, reg_writes=(1,))])
        space = self._space()
        dynamic = build_liveness_oracle("dynamic", trace, space)
        static = build_liveness_oracle("static", None, space, program=program)
        hybrid = build_liveness_oracle("hybrid", trace, space, program=program)
        assert isinstance(dynamic, PreInjectionAnalysis)
        assert isinstance(static, StaticPreInjectionAnalysis)
        assert static.duration is None
        assert isinstance(hybrid, HybridPreInjectionAnalysis)

    def test_hybrid_needs_trace(self):
        import pytest

        from repro.core.preinjection import build_liveness_oracle
        from repro.util.errors import CampaignError
        from repro.thor.assembler import assemble

        with pytest.raises(CampaignError):
            build_liveness_oracle(
                "hybrid", None, self._space(),
                program=assemble("start: halt"),
            )


class TestCacheCells:
    def test_cache_cells_follow_the_replay(self):
        """With a record of the dcache, a line's cells are judged from
        the replayed accesses: the store to 0x300 misses an empty line,
        the load then fills line 0 (0x300 maps there), overwriting its
        words, and nothing touches the line afterwards."""
        from repro.core.preinjection import LATENT, LIVE, OVERWRITTEN
        from repro.thor.cache import CacheRecord

        trace = make_trace()
        trace.caches = {"dcache": CacheRecord(16, 4, hits=0, misses=2)}
        analysis = PreInjectionAnalysis.from_trace(trace, LocationSpace([]))

        def fate(path, time):
            return analysis.fate(FaultLocation("scan:internal", path, 0), time)

        assert fate("dcache.line0.valid", 35) == LIVE
        assert fate("dcache.line0.word1", 35) == OVERWRITTEN
        assert fate("dcache.line0.tag", 35) == OVERWRITTEN
        assert fate("dcache.line0.word1", 45) == LATENT
        assert fate("dcache.line1.valid", 0) == LATENT
        # The icache has no record: its cells stay live.
        assert fate("icache.line0.word1", 45) == LIVE
        # A record whose counts the trace does not reproduce judges nothing.
        trace.caches = {"dcache": CacheRecord(16, 4, hits=1, misses=1)}
        analysis = PreInjectionAnalysis.from_trace(trace, LocationSpace([]))
        assert analysis.fate(
            FaultLocation("scan:internal", "dcache.line0.word1", 0), 45
        ) == LIVE


class TestEndToEndLiveness:
    def test_analysis_from_real_reference_run(self, thor_target):
        """Integration: the liveness oracle built from a real trace marks
        the accumulator register of vecsum live mid-run."""
        from tests.conftest import make_campaign

        campaign = make_campaign(use_preinjection=True, n_experiments=1)
        thor_target.read_campaign_data(campaign)
        reference = thor_target.make_reference_run()
        analysis = PreInjectionAnalysis.from_trace(
            reference.trace, thor_target.location_space()
        )
        # r3 is vecsum's accumulator: live through most of the run.
        mid = reference.duration_cycles // 2
        assert analysis.is_live(reg_loc(3), mid)
