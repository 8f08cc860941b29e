"""Property-based tests for ISA encode/decode and the CPU ALU."""

from hypothesis import example, given, settings, strategies as st

from repro.staticanalysis import constprop
from repro.thor import isa
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.isa import (
    ABSOLUTE_IMM,
    R_TYPE,
    Instruction,
    Opcode,
    assemble_word,
    decode,
    try_decode,
)
from repro.util.bits import to_signed

registers = st.integers(min_value=0, max_value=15)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(sorted(Opcode, key=int)))
    rd = draw(registers)
    rs1 = draw(registers)
    if opcode in R_TYPE:
        return Instruction(opcode, rd=rd, rs1=rs1, rs2=draw(registers))
    if opcode in ABSOLUTE_IMM:
        imm = draw(st.integers(min_value=0, max_value=isa.IMM_MASK))
    else:
        imm = draw(st.integers(min_value=isa.IMM_MIN, max_value=isa.IMM_MAX))
    return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)


class TestEncodingProperties:
    @given(instructions())
    def test_round_trip(self, instr):
        assert decode(assemble_word(instr)) == instr

    @given(instructions())
    def test_encoded_word_fits_32_bits(self, instr):
        assert 0 <= assemble_word(instr) <= 0xFFFFFFFF

    @given(words)
    def test_decode_never_crashes(self, word):
        # Any 32-bit pattern either decodes or raises IllegalOpcode —
        # the invariant fault injection into instruction words relies on.
        instr = try_decode(word)
        if instr is not None:
            assert instr.opcode in Opcode

    @given(instructions(), st.integers(min_value=0, max_value=31))
    @settings(max_examples=200)
    def test_flipped_word_decodes_or_traps(self, instr, bit):
        word = assemble_word(instr) ^ (1 << bit)
        result = try_decode(word)
        if result is not None:
            # A legal mutation must round-trip canonically (R-type
            # instructions have don't-care low bits, so the re-encoded
            # word may legitimately differ from the corrupted one).
            assert decode(assemble_word(result)) == result


#: A small chip: each ALU example steps a fresh one.
_ALU_CONFIG = CpuConfig(memory_size=256)


def _step_alu(opcode, a, b):
    """Run ``opcode r3, r1, r2`` on the shipped core with r1 = ``a`` and
    r2 = ``b``; returns (r3, Z, N, C, V) after the step."""
    cpu = Cpu(_ALU_CONFIG)
    cpu.memory.poke(0, assemble_word(Instruction(opcode, rd=3, rs1=1, rs2=2)))
    cpu.reset(entry=0)
    cpu.regs[1] = a
    cpu.regs[2] = b
    assert cpu.step() is None
    psr = cpu.psr
    return cpu.regs[3], psr.z, psr.n, psr.c, psr.v


def _constprop_alu(a, b, subtract):
    """The same (result, Z, N, C, V) from the constant propagator's copy
    of the add/subtract semantics."""
    result, carry, overflow = constprop._add_sub(a, b, subtract)
    nibble = constprop._arith_flags(result, carry, overflow)
    return (result,) + tuple(bool(nibble & (1 << bit)) for bit in range(4))


def _python_alu(a, b, subtract):
    if subtract:
        result = (a - b) & 0xFFFFFFFF
        carry = a >= b  # no borrow
        signed = to_signed(a) - to_signed(b)
    else:
        result = (a + b) & 0xFFFFFFFF
        carry = a + b > 0xFFFFFFFF
        signed = to_signed(a) + to_signed(b)
    return result, result == 0, result >= 1 << 31, carry, not_in_range(signed)


class TestAluProperties:
    # Explicit examples put each flag on its boundary: the 33-bit sum
    # equal to 0xFFFFFFFF (no carry) and the signed result at -2**31 (no
    # overflow) or one past either end of the range (overflow).
    @given(words, words)
    @example(0, 0xFFFFFFFF)
    @example(0x7FFFFFFF, 1)
    @example(0x80000000, 0x80000000)
    @example(0xFFFFFFFF, 0x80000001)
    def test_add_matches_python(self, a, b):
        expected = _python_alu(a, b, subtract=False)
        assert _step_alu(Opcode.ADD, a, b) == expected
        assert _constprop_alu(a, b, subtract=False) == expected

    @given(words, words)
    @example(0, 1)
    @example(0x80000000, 0)
    @example(0, 0x80000000)
    @example(0x7FFFFFFF, 0xFFFFFFFF)
    def test_sub_matches_python(self, a, b):
        expected = _python_alu(a, b, subtract=True)
        assert _step_alu(Opcode.SUB, a, b) == expected
        # CMP sets the same flags and writes no register.
        assert _step_alu(Opcode.CMP, a, b) == (0,) + expected[1:]
        assert _constprop_alu(a, b, subtract=True) == expected

    @given(words)
    def test_sub_self_is_zero(self, a):
        expected = (0, True, False, True, False)
        assert _step_alu(Opcode.SUB, a, a) == expected
        assert _step_alu(Opcode.CMP, a, a) == expected
        assert _constprop_alu(a, a, subtract=True) == expected


def not_in_range(signed: int) -> bool:
    return not (-(1 << 31) <= signed <= (1 << 31) - 1)
