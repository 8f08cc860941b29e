"""Target interface for simulation-based fault injection.

Identical target system, different access path: faults and observations
go straight to simulator state (``inject_fault_direct``), bypassing the
scan chains. Registered as the ``thor-rd-sim`` target so campaigns can
compare techniques on the same chip (benchmark E4).
"""

from __future__ import annotations

from repro.core.experiment import StateVector
from repro.core.framework import register_target
from repro.scifi.interface import ThorRDInterface


@register_target("thor-rd-sim")
class ThorSimInterface(ThorRDInterface):
    """Thor RD accessed as a white-box simulation model."""

    def capture_state_vector(self) -> StateVector:
        """Observation without scan cost: read cell values directly.

        The simulation baseline sees the same observe-pattern cells but
        does not shift chains to do so — this is design decision D3 in
        DESIGN.md and part of what benchmark E4 measures.
        """
        card = self.card
        return self._observation.capture(card.read_memory, card.cpu.regs.read)
