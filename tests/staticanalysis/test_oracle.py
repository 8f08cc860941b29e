"""Unit tests for the static pre-injection liveness oracle."""

from repro.core.locations import FaultLocation
from repro.staticanalysis.oracle import StaticPreInjectionAnalysis
from repro.thor.assembler import assemble

PROGRAM_TEXT = """
start: ldi r1, 5
       addi r2, r1, 1
       ldi r5, 0x300
       st r2, [r5+0]
       halt
stray: addi r3, r4, 1
       halt
"""

LOOP_TEXT = """
start: ldi r1, 0x300
       ld r2, [r1+0]
       cmpi r2, 0
       beq done
       addi r2, r2, 1
done:  halt
"""


def reg_loc(n, bit=0):
    return FaultLocation("scan:internal", f"cpu.regfile.r{n}", bit)


def code_loc(address, bit=0):
    return FaultLocation("memory:code", f"word.{address:#06x}", bit)


def data_loc(address, bit=0):
    return FaultLocation("memory:data", f"word.{address:#06x}", bit)


class TestRegisterOracle:
    def test_live_register(self):
        oracle = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        assert oracle.is_live(reg_loc(1), 10)
        assert oracle.is_live(reg_loc(2), 10)  # read by the store
        assert oracle.is_live(reg_loc(5), 10)  # store base address

    def test_dead_register(self):
        oracle = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        # r4 is only read by unreachable code; r9 never appears.
        assert not oracle.is_live(reg_loc(4), 10)
        assert not oracle.is_live(reg_loc(9), 10)
        assert {4, 9} <= set(oracle.dead_registers)

    def test_duration_bounds_liveness(self):
        oracle = StaticPreInjectionAnalysis(
            assemble(PROGRAM_TEXT), duration=100
        )
        assert oracle.is_live(reg_loc(1), 100)
        assert not oracle.is_live(reg_loc(1), 101)

    def test_unbounded_without_duration(self):
        oracle = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        assert oracle.duration is None
        assert oracle.is_live(reg_loc(1), 10**9)


class TestSpecialCells:
    def test_pc_and_ir_live_during_run(self):
        oracle = StaticPreInjectionAnalysis(
            assemble(PROGRAM_TEXT), duration=50
        )
        pc = FaultLocation("scan:internal", "cpu.pc", 0)
        ir = FaultLocation("scan:internal", "cpu.pipeline.ir", 0)
        assert oracle.is_live(pc, 50) and oracle.is_live(ir, 50)
        assert not oracle.is_live(pc, 51) and not oracle.is_live(ir, 51)

    def test_psr_live_iff_flags_read(self):
        psr = FaultLocation("scan:internal", "cpu.psr", 0)
        with_branch = StaticPreInjectionAnalysis(assemble(LOOP_TEXT))
        without = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        assert with_branch.is_live(psr, 5)
        assert not without.is_live(psr, 5)

    def test_oe_live_iff_an_add_or_subtract_is_reachable(self):
        """The writing add and subtract forms read the overflow-trap
        enable bit (bit 4), which no branch does."""
        oe = FaultLocation("scan:internal", "cpu.psr", 4)
        assert StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT)).is_live(oe, 5)
        no_add = StaticPreInjectionAnalysis(assemble(LOOP_TEXT.replace(
            "addi r2, r2, 1", "ori r2, r2, 1"
        )))
        assert not no_add.is_live(oe, 5)
        assert no_add.is_live(FaultLocation("scan:internal", "cpu.psr", 0), 5)

    def test_unknown_cells_conservatively_live(self):
        oracle = StaticPreInjectionAnalysis(
            assemble(PROGRAM_TEXT), duration=10
        )
        cache = FaultLocation("scan:internal", "dcache.line3.word2", 1)
        mar = FaultLocation("scan:internal", "cpu.pipeline.mar", 0)
        assert oracle.is_live(cache, 5)
        # Unknown cells stay live even past the duration: no claim made.
        assert oracle.is_live(mar, 999)


class TestMemoryOracle:
    def test_reachable_code_word_live(self):
        program = assemble(PROGRAM_TEXT)
        oracle = StaticPreInjectionAnalysis(program)
        assert oracle.is_live(code_loc(program.entry), 10)

    def test_unreachable_code_word_dead(self):
        program = assemble(PROGRAM_TEXT)
        oracle = StaticPreInjectionAnalysis(program)
        stray = program.symbols["stray"]
        assert stray in oracle.unreachable_code_addresses()
        assert not oracle.is_live(code_loc(stray), 10)

    def test_data_live_only_when_program_loads(self):
        loads = StaticPreInjectionAnalysis(assemble(LOOP_TEXT))
        stores_only = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        assert loads.is_live(data_loc(0x300), 10)
        assert not stores_only.is_live(data_loc(0x300), 10)


class TestLiveFraction:
    def test_fraction_bounds_and_sampling(self):
        oracle = StaticPreInjectionAnalysis(
            assemble(PROGRAM_TEXT), duration=100
        )
        locations = [reg_loc(n) for n in range(16)]
        times = list(range(1, 101))
        full = oracle.live_fraction(locations, times)
        sampled = oracle.live_fraction(locations, times, max_samples=64)
        assert 0.0 < full < 1.0
        assert 0.0 <= sampled <= 1.0
        # Deterministic: the same sample gives the same answer.
        assert sampled == oracle.live_fraction(
            locations, times, max_samples=64
        )

    def test_empty_inputs(self):
        oracle = StaticPreInjectionAnalysis(assemble(PROGRAM_TEXT))
        assert oracle.live_fraction([], [1]) == 0.0
