"""Pipeline latches exposed on the internal scan chain.

A real pipelined CPU holds in-flight state in latches between stages; the
Thor RD scan chains expose many of them. THOR-lite models the three that
dominate fault-injection behaviour:

* ``ir``  — instruction register: the last fetched instruction word. A
  scan-chain write to IR marks it *forced*; the next step executes the
  forced word instead of fetching, modelling a flip caught in the fetch
  latch. This makes IR a *live* location (injections are frequently
  effective).
* ``mar`` — memory address register: address of the last memory
  transaction. Overwritten by the next transaction, so injections here are
  usually non-effective — exactly the behaviour the Overwritten outcome
  class describes.
* ``mdr`` — memory data register: data of the last memory transaction,
  same overwrite behaviour as MAR.
"""

from __future__ import annotations

from typing import Tuple

from repro.thor.isa import WORD_MASK


class PipelineLatches:
    def __init__(self) -> None:
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        self.ir_forced = False

    def reset(self) -> None:
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        self.ir_forced = False

    def force_ir(self, word: int) -> None:
        """Scan-chain write path: the next step consumes this word."""
        self.ir = word & WORD_MASK
        self.ir_forced = True

    # -- checkpoint support ------------------------------------------------

    def snapshot(self) -> Tuple[int, int, int, bool]:
        return (self.ir, self.mar, self.mdr, self.ir_forced)

    def restore(self, state: Tuple[int, int, int, bool]) -> None:
        self.ir, self.mar, self.mdr, forced = state
        self.ir_forced = bool(forced)
