"""Error-detection mechanisms (EDMs) of the THOR-lite target.

The analysis phase classifies *Detected errors* per mechanism (paper
Section 3.4), so every hardware detection carries a :class:`Trap` tag
naming the mechanism that fired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Trap(enum.Enum):
    """Hardware error-detection mechanisms and software traps."""

    ILLEGAL_OPCODE = "illegal_opcode"
    ILLEGAL_ADDRESS = "illegal_address"
    DIV_ZERO = "div_zero"
    OVERFLOW = "overflow"
    ICACHE_PARITY = "icache_parity"
    DCACHE_PARITY = "dcache_parity"
    WATCHDOG = "watchdog"
    SOFTWARE = "software"


@dataclass(frozen=True)
class TrapEvent:
    """A single detection event, logged into the experiment state vector."""

    trap: Trap
    pc: int
    cycle: int
    detail: str = ""
    code: int = 0  # software trap code (TRAP imm)

    def describe(self) -> str:
        text = f"{self.trap.value} at pc={self.pc:#06x} cycle={self.cycle}"
        if self.detail:
            text += f" ({self.detail})"
        return text
