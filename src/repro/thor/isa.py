"""THOR-lite instruction set architecture.

A 32-bit load/store ISA, deliberately small but complete enough that
injected bit flips behave realistically:

* flipping opcode bits can produce *illegal opcodes* (detected by the
  decoder EDM) or silently mutate one instruction into another,
* flipping register-field bits redirects data flow,
* flipping immediate bits corrupts addresses and constants.

Encoding (one 32-bit word per instruction, word-addressed memory)::

    31        26 25  22 21  18 17  14 13         0
    +-----------+------+------+------+------------+
    |  opcode   |  rd  | rs1  | rs2  |  (unused)  |   R-type
    +-----------+------+------+------+------------+
    |  opcode   |  rd  | rs1  |      imm18        |   I-type
    +-----------+------+------+-------------------+

``imm18`` is an 18-bit two's-complement immediate for arithmetic and
PC-relative branches, and an 18-bit unsigned absolute address for
JMP/CALL (covers the full 64 Ki-word address space).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.util.bits import sign_extend

WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF
NUM_REGISTERS = 16
IMM_BITS = 18
IMM_MASK = (1 << IMM_BITS) - 1
IMM_MIN = -(1 << (IMM_BITS - 1))
IMM_MAX = (1 << (IMM_BITS - 1)) - 1

# Register conventions used by the assembler and the ABI of the workload
# library (the hardware does not enforce them).
REG_SP = 14  # stack pointer
REG_LR = 15  # link register written by CALL


class Opcode(enum.IntEnum):
    """All legal THOR-lite opcodes. Any other 6-bit value is illegal."""

    # R-type ------------------------------------------------------------
    NOP = 0x00
    HALT = 0x01
    ADD = 0x02
    SUB = 0x03
    MUL = 0x04
    DIV = 0x05
    MOD = 0x06
    AND = 0x07
    OR = 0x08
    XOR = 0x09
    SHL = 0x0A
    SHR = 0x0B
    SRA = 0x0C
    NOT = 0x0D
    MOV = 0x0E
    CMP = 0x0F
    JR = 0x10
    RET = 0x11
    PUSH = 0x12
    POP = 0x13
    SYNC = 0x14
    # I-type ------------------------------------------------------------
    ADDI = 0x20
    SUBI = 0x21
    MULI = 0x22
    ANDI = 0x23
    ORI = 0x24
    XORI = 0x25
    SHLI = 0x26
    SHRI = 0x27
    LDI = 0x28
    LUI = 0x29
    LD = 0x2A
    ST = 0x2B
    CMPI = 0x2C
    JMP = 0x2D
    BEQ = 0x2E
    BNE = 0x2F
    BLT = 0x30
    BGE = 0x31
    BGT = 0x32
    BLE = 0x33
    CALL = 0x34
    TRAP = 0x35


R_TYPE = frozenset(
    {
        Opcode.NOP,
        Opcode.HALT,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SRA,
        Opcode.NOT,
        Opcode.MOV,
        Opcode.CMP,
        Opcode.JR,
        Opcode.RET,
        Opcode.PUSH,
        Opcode.POP,
        Opcode.SYNC,
    }
)

I_TYPE = frozenset(op for op in Opcode if op not in R_TYPE)

# Opcodes whose immediate field is unsigned: absolute word addresses
# (JMP/CALL), trap codes, and LUI's raw high-half bit pattern.
ABSOLUTE_IMM = frozenset({Opcode.JMP, Opcode.CALL, Opcode.TRAP, Opcode.LUI})

# Conditional branches: immediate is PC-relative (target = PC + 1 + imm).
BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BGT, Opcode.BLE}
)

_VALID_OPCODES: Dict[int, Opcode] = {int(op): op for op in Opcode}

# Per-instruction base cycle cost. Cache misses and taken branches add to
# this in the CPU model.
CYCLE_COST: Dict[Opcode, int] = {op: 1 for op in Opcode}
CYCLE_COST[Opcode.MUL] = 4
CYCLE_COST[Opcode.MULI] = 4
CYCLE_COST[Opcode.DIV] = 8
CYCLE_COST[Opcode.MOD] = 8


# ---------------------------------------------------------------------------
# Per-opcode operand semantics
# ---------------------------------------------------------------------------

# Register *roles* an instruction reads or writes. A role names an encoding
# field ("rd", "rs1", "rs2") or an implicit architectural register ("sp",
# "lr"); :func:`repro.thor.effects.register_effects` resolves roles to
# concrete register indices for a decoded instruction.
ROLE_RD = "rd"
ROLE_RS1 = "rs1"
ROLE_RS2 = "rs2"
ROLE_SP = "sp"
ROLE_LR = "lr"

# Control-flow classes (consumed by the static CFG builder):
FLOW_NEXT = "next"  # falls through to PC + 1
FLOW_HALT = "halt"  # terminates the workload normally
FLOW_BRANCH = "branch"  # conditional, PC-relative target (imm)
FLOW_JUMP = "jump"  # unconditional, absolute target (imm)
FLOW_CALL = "call"  # absolute target (imm), LR := PC + 1
FLOW_RETURN = "return"  # indirect through LR
FLOW_INDIRECT = "indirect"  # indirect through a general register (JR)
FLOW_TRAP = "trap"  # raises a software trap (halts the experiment)

# Memory-access classes:
MEM_NONE = ""
MEM_LOAD = "load"
MEM_STORE = "store"


@dataclass(frozen=True)
class OperandSemantics:
    """Operand/dataflow semantics of one opcode.

    The single shared description of what each instruction *means* at the
    architectural level: which register roles it reads and writes, whether
    it produces or consumes the PSR flags, how it transfers control, and
    whether it touches memory. The disassembler
    (:mod:`repro.thor.disasm`), the dynamic-effect extractor
    (:mod:`repro.thor.effects`) and the static program analysis
    (:mod:`repro.staticanalysis`) all derive their per-opcode behaviour
    from this table instead of keeping ad-hoc opcode sets in sync.
    """

    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    reads_flags: bool = False
    writes_flags: bool = False
    flow: str = FLOW_NEXT
    mem: str = MEM_NONE
    # Disassembly operand format (see repro.thor.disasm):
    #   "none" | "r3" | "r2" | "i3" | "mem" | "branch" | "jumpabs"
    #   | "trap" | "jr" | "stack" | "cmp" | "cmpi" | "imm"
    fmt: str = "none"


def _alu_r3() -> OperandSemantics:
    return OperandSemantics(
        reads=(ROLE_RS1, ROLE_RS2), writes=(ROLE_RD,), writes_flags=True,
        fmt="r3",
    )


def _alu_i3() -> OperandSemantics:
    return OperandSemantics(
        reads=(ROLE_RS1,), writes=(ROLE_RD,), writes_flags=True, fmt="i3"
    )


def _branch() -> OperandSemantics:
    return OperandSemantics(reads_flags=True, flow=FLOW_BRANCH, fmt="branch")


SEMANTICS: Dict[Opcode, OperandSemantics] = {
    Opcode.NOP: OperandSemantics(),
    Opcode.HALT: OperandSemantics(flow=FLOW_HALT),
    Opcode.ADD: _alu_r3(),
    Opcode.SUB: _alu_r3(),
    Opcode.MUL: _alu_r3(),
    Opcode.DIV: _alu_r3(),
    Opcode.MOD: _alu_r3(),
    Opcode.AND: _alu_r3(),
    Opcode.OR: _alu_r3(),
    Opcode.XOR: _alu_r3(),
    Opcode.SHL: _alu_r3(),
    Opcode.SHR: _alu_r3(),
    Opcode.SRA: _alu_r3(),
    Opcode.NOT: OperandSemantics(
        reads=(ROLE_RS1,), writes=(ROLE_RD,), writes_flags=True, fmt="r2"
    ),
    Opcode.MOV: OperandSemantics(
        reads=(ROLE_RS1,), writes=(ROLE_RD,), writes_flags=True, fmt="r2"
    ),
    Opcode.CMP: OperandSemantics(
        reads=(ROLE_RS1, ROLE_RS2), writes_flags=True, fmt="cmp"
    ),
    Opcode.JR: OperandSemantics(
        reads=(ROLE_RS1,), flow=FLOW_INDIRECT, fmt="jr"
    ),
    Opcode.RET: OperandSemantics(reads=(ROLE_LR,), flow=FLOW_RETURN),
    Opcode.PUSH: OperandSemantics(
        reads=(ROLE_RD, ROLE_SP), writes=(ROLE_SP,), mem=MEM_STORE,
        fmt="stack",
    ),
    Opcode.POP: OperandSemantics(
        reads=(ROLE_SP,), writes=(ROLE_RD, ROLE_SP), mem=MEM_LOAD,
        fmt="stack",
    ),
    Opcode.SYNC: OperandSemantics(),
    Opcode.ADDI: _alu_i3(),
    Opcode.SUBI: _alu_i3(),
    Opcode.MULI: _alu_i3(),
    Opcode.ANDI: _alu_i3(),
    Opcode.ORI: _alu_i3(),
    Opcode.XORI: _alu_i3(),
    Opcode.SHLI: _alu_i3(),
    Opcode.SHRI: _alu_i3(),
    Opcode.LDI: OperandSemantics(writes=(ROLE_RD,), fmt="imm"),
    Opcode.LUI: OperandSemantics(writes=(ROLE_RD,), fmt="imm"),
    Opcode.LD: OperandSemantics(
        reads=(ROLE_RS1,), writes=(ROLE_RD,), mem=MEM_LOAD, fmt="mem"
    ),
    Opcode.ST: OperandSemantics(
        reads=(ROLE_RS1, ROLE_RD), mem=MEM_STORE, fmt="mem"
    ),
    Opcode.CMPI: OperandSemantics(
        reads=(ROLE_RS1,), writes_flags=True, fmt="cmpi"
    ),
    Opcode.JMP: OperandSemantics(flow=FLOW_JUMP, fmt="jumpabs"),
    Opcode.BEQ: _branch(),
    Opcode.BNE: _branch(),
    Opcode.BLT: _branch(),
    Opcode.BGE: _branch(),
    Opcode.BGT: _branch(),
    Opcode.BLE: _branch(),
    Opcode.CALL: OperandSemantics(
        writes=(ROLE_LR,), flow=FLOW_CALL, fmt="jumpabs"
    ),
    Opcode.TRAP: OperandSemantics(flow=FLOW_TRAP, fmt="trap"),
}

assert set(SEMANTICS) == set(Opcode), "SEMANTICS must cover every opcode"


def semantics(opcode: Opcode) -> OperandSemantics:
    """The operand semantics of ``opcode``."""
    return SEMANTICS[opcode]


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    ``imm`` is already sign-extended for signed immediates and left
    unsigned for absolute addresses (JMP/CALL/TRAP).
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0


class IllegalOpcode(ValueError):
    """Raised by :func:`decode` for an unknown opcode field.

    The CPU catches this and raises the ILLEGAL_OPCODE trap — this is one
    of the target's error-detection mechanisms, so a bit flip that lands in
    the opcode field is frequently *detected* rather than activated.
    """

    def __init__(self, word: int):
        self.word = word
        super().__init__(f"illegal opcode in instruction word {word:#010x}")


def assemble_word(instr: Instruction) -> int:
    """Encode a decoded instruction back into its 32-bit word."""
    op = instr.opcode
    if not 0 <= instr.rd < NUM_REGISTERS:
        raise ValueError(f"rd out of range: {instr.rd}")
    if not 0 <= instr.rs1 < NUM_REGISTERS:
        raise ValueError(f"rs1 out of range: {instr.rs1}")
    word = (int(op) << 26) | (instr.rd << 22) | (instr.rs1 << 18)
    if op in R_TYPE:
        if not 0 <= instr.rs2 < NUM_REGISTERS:
            raise ValueError(f"rs2 out of range: {instr.rs2}")
        word |= instr.rs2 << 14
    else:
        imm = instr.imm
        if op in ABSOLUTE_IMM:
            if not 0 <= imm <= IMM_MASK:
                raise ValueError(f"absolute immediate out of range: {imm}")
        else:
            if not IMM_MIN <= imm <= IMM_MAX:
                raise ValueError(f"signed immediate out of range: {imm}")
        word |= imm & IMM_MASK
    return word & WORD_MASK


#: Shared decode memo: instruction word -> frozen :class:`Instruction`.
#: Workload images are tiny (hundreds of distinct words) and campaigns
#: re-execute them millions of times, so decode hit rates are ~100%.
#: Illegal words are *never* inserted (they raise first), so the cache
#: cannot be poisoned by fault-injected garbage words; the size cap
#: bounds memory against adversarial word streams (every faulted word is
#: a potential new key) by dropping the whole memo and rebuilding.
_DECODE_CACHE: Dict[int, Instruction] = {}
_DECODE_CACHE_MAX = 1 << 16


def _decode_uncached(word: int) -> Instruction:
    op_field = (word >> 26) & 0x3F
    opcode = _VALID_OPCODES.get(op_field)
    if opcode is None:
        raise IllegalOpcode(word)
    rd = (word >> 22) & 0xF
    rs1 = (word >> 18) & 0xF
    if opcode in R_TYPE:
        rs2 = (word >> 14) & 0xF
        return Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2)
    raw_imm = word & IMM_MASK
    if opcode in ABSOLUTE_IMM:
        imm = raw_imm
    else:
        imm = sign_extend(raw_imm, IMM_BITS)
    return Instruction(opcode, rd=rd, rs1=rs1, imm=imm)


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word (memoized; the returned
    :class:`Instruction` is frozen and shared between callers).

    Raises :class:`IllegalOpcode` when the opcode field does not name a
    legal instruction.
    """
    word &= WORD_MASK
    instr = _DECODE_CACHE.get(word)
    if instr is None:
        instr = _decode_uncached(word)  # raises before caching
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[word] = instr
    return instr


def decode_cache_size() -> int:
    """Number of memoized decodes (test/diagnostic hook)."""
    return len(_DECODE_CACHE)


def decode_cache_clear() -> None:
    """Drop the decode memo (test hook; execution only gets slower)."""
    _DECODE_CACHE.clear()


def try_decode(word: int) -> Optional[Instruction]:
    """Decode, returning None instead of raising for illegal opcodes."""
    try:
        return decode(word)
    except IllegalOpcode:
        return None
