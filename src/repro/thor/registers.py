"""Architectural registers of THOR-lite: the register file and the PSR.

Both are prime fault-injection targets: in the Thor experiments of the
paper's companion studies, most effective scan-chain injections land in the
register file and the processor status word.
"""

from __future__ import annotations

from typing import List

from repro.thor.isa import NUM_REGISTERS, WORD_MASK


class RegisterFile:
    """Sixteen 32-bit general-purpose registers.

    The backing list is allocated once and only ever mutated in place:
    the CPU aliases it (``Cpu._regs``) so its execute functions and
    compiled blocks can hit the register file with single C-level list
    indexing. Every write path masks to ``WORD_MASK``, so the list
    invariantly holds values in ``[0, 2**32)``.
    """

    def __init__(self) -> None:
        self._regs: List[int] = [0] * NUM_REGISTERS

    def reset(self) -> None:
        self._regs[:] = [0] * NUM_REGISTERS

    def read(self, index: int) -> int:
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._regs[index] = value & WORD_MASK

    def snapshot(self) -> List[int]:
        return list(self._regs)

    def restore(self, values: List[int]) -> None:
        """Checkpoint restore: replace the whole file at once (in place —
        see the class invariant)."""
        if len(values) != NUM_REGISTERS:
            raise ValueError(
                f"register snapshot needs {NUM_REGISTERS} values, "
                f"got {len(values)}"
            )
        self._regs[:] = [value & WORD_MASK for value in values]

    def __getitem__(self, index: int) -> int:
        return self._regs[index]

    def __setitem__(self, index: int, value: int) -> None:
        self.write(index, value)


class Psr:
    """Processor status register.

    Bit layout (matters for scan-chain injection — flipping bit *i* of the
    PSR cell flips the corresponding flag; only physically existing
    flip-flops appear on the chain)::

        bit 0  Z   zero
        bit 1  N   negative
        bit 2  C   carry
        bit 3  V   overflow
        bit 4  OE  overflow-trap enable (configuration bit)
    """

    WIDTH = 5

    BIT_Z = 0
    BIT_N = 1
    BIT_C = 2
    BIT_V = 3
    BIT_OE = 4

    def __init__(self) -> None:
        self.z = False
        self.n = False
        self.c = False
        self.v = False
        self.overflow_enable = False

    def reset(self) -> None:
        self.z = self.n = self.c = self.v = False
        # overflow_enable is configuration, preserved across reset by the
        # CPU (it re-applies its config after calling reset).
        self.overflow_enable = False

    def to_word(self) -> int:
        word = 0
        word |= int(self.z) << self.BIT_Z
        word |= int(self.n) << self.BIT_N
        word |= int(self.c) << self.BIT_C
        word |= int(self.v) << self.BIT_V
        word |= int(self.overflow_enable) << self.BIT_OE
        return word

    def from_word(self, word: int) -> None:
        self.z = bool(word & (1 << self.BIT_Z))
        self.n = bool(word & (1 << self.BIT_N))
        self.c = bool(word & (1 << self.BIT_C))
        self.v = bool(word & (1 << self.BIT_V))
        self.overflow_enable = bool(word & (1 << self.BIT_OE))
