"""Scan chains: serialized access to the target's state elements.

The Thor RD exposes its internal state through IEEE-1149.1-style boundary
and internal scan chains; the SCIFI technique (the paper's main
implemented technique) reads the chains, flips bits, and writes them back.
This module models a chain as an ordered list of :class:`ScanCell` objects,
each mapping a contiguous bit range of the serialized chain onto one state
element. Some cells are read-only — "some locations in the scan-chain are
read-only and can therefore only be used to observe the state of the
microprocessor" (paper Section 3.1) — writes to them are silently dropped
by the hardware, and the campaign layer refuses to *target* them.

Chain access is modelled with its real cost: shifting a chain in or out
takes one clock per bit, surfaced as :attr:`ScanChain.shift_cycles` and an
operation counter, which the E1/E2 benchmarks use.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import rshift
from typing import Callable, Dict, List, Optional, Tuple

from repro.thor.cpu import Cpu
from repro.thor.traps import Trap
from repro.util.errors import TargetError

# Fixed encoding of the trap-status scan cell (0 = no trap latched).
_TRAP_CODES = {trap: index + 1 for index, trap in enumerate(Trap)}

# Byte-granular shift tables: full-chain reads and writes move 8 bits
# per table access instead of one Python-level mask/shift per bit (the
# chains are ~4.6 Kbit and every SCIFI experiment shifts them three
# times, so per-bit loops were a measurable campaign cost).
_BITS_OF_BYTE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple((value >> i) & 1 for i in range(8)) for value in range(256)
)
# Inverse table. Bit lists that went through injection may hold bools
# (``apply_op`` results); True/False hash as 1/0, so tuple lookup treats
# them identically — exactly like the former per-bit ``bit << i`` packing.
_BYTE_OF_BITS: Dict[Tuple[int, ...], int] = {
    bits: value for value, bits in enumerate(_BITS_OF_BYTE)
}


@dataclass(frozen=True)
class ScanCell:
    """One state element on a chain.

    ``path`` is the hierarchical name shown in the GUI's location tree
    (Figure 6), e.g. ``cpu.regfile.r3`` or ``dcache.line2.word1``.
    Frozen: a chain binds its cells' readers once, at construction.
    """

    path: str
    width: int
    reader: Callable[[], int]
    writer: Optional[Callable[[int], None]] = None

    @property
    def read_only(self) -> bool:
        return self.writer is None


@dataclass
class _CellSlot:
    cell: ScanCell
    offset: int
    index: int


class ScanChain:
    """An ordered chain of scan cells with serialized read/write access."""

    def __init__(self, name: str, cells: List[ScanCell]):
        self.name = name
        self._slots: List[_CellSlot] = []
        self._by_path: Dict[str, _CellSlot] = {}
        offset = 0
        for index, cell in enumerate(cells):
            if cell.path in self._by_path:
                raise TargetError(f"duplicate scan cell path {cell.path!r}")
            slot = _CellSlot(cell=cell, offset=offset, index=index)
            self._slots.append(slot)
            self._by_path[cell.path] = slot
            offset += cell.width
        self.total_bits = offset
        self._readers = [cell.reader for cell in cells]
        self._widths = [cell.width for cell in cells]
        self.reads = 0
        self.writes = 0

    # -- serialized access (what the TAP port really provides) ---------------

    @property
    def shift_cycles(self) -> int:
        """Clock cycles needed to shift the full chain in or out."""
        return self.total_bits

    def read_values(self) -> List[int]:
        """Shift out the full chain as one value per cell, in chain
        order. Every cell is read and checked against its width, so a
        cell whose value does not fit raises ``ValueError`` here whether
        or not the caller wants it."""
        self.reads += 1
        values = [reader() for reader in self._readers]
        # A value fits its cell iff ``value >> width`` is 0 (negative
        # values shift to -1); the loop only runs to name the first
        # offender in chain order.
        if any(map(rshift, values, self._widths)):
            for value, width in zip(values, self._widths):
                if value >> width:
                    raise ValueError(
                        f"value {value:#x} does not fit in {width} bits"
                    )
        return values

    def read(self) -> List[int]:
        """Shift out the full chain as a bit list (chain order, LSB-first
        within each cell): :meth:`read_values` expanded eight bits per
        table access."""
        bits: List[int] = []
        append = bits.append
        extend = bits.extend
        table = _BITS_OF_BYTE
        for value, width in zip(self.read_values(), self._widths):
            if width == 1:
                append(value)
                continue
            while width >= 8:
                extend(table[value & 0xFF])
                value >>= 8
                width -= 8
            if width:
                extend(table[value][:width])
        return bits

    def write(self, bits: List[int]) -> None:
        """Shift in a full chain image.

        Read-only cells ignore their bits, exactly as capture-only cells
        do in real scan logic. Cells whose value is unchanged are not
        re-written: a read-modify-write of the whole chain (the SCIFI
        injection pattern) must be state-preserving everywhere except the
        flipped bits — in particular it must not mark the IR latch as
        forced when the IR bits were not touched.
        """
        if len(bits) != self.total_bits:
            raise TargetError(
                f"chain {self.name!r} expects {self.total_bits} bits, "
                f"got {len(bits)}"
            )
        self.writes += 1
        table = _BYTE_OF_BITS
        for slot in self._slots:
            cell = slot.cell
            if cell.writer is None:
                continue
            width = cell.width
            pos = slot.offset
            if width == 1:
                bit = bits[pos]
                if bit not in (0, 1):
                    raise ValueError(f"bit {pos} must be 0 or 1, got {bit}")
                value = bit & 1
            else:
                end = pos + width
                value = 0
                shift = 0
                try:
                    while width >= 8:
                        value |= table[tuple(bits[pos : pos + 8])] << shift
                        pos += 8
                        shift += 8
                        width -= 8
                    if width:
                        residual = tuple(bits[pos:end]) + (0,) * (8 - width)
                        value |= table[residual] << shift
                except KeyError:
                    raise ValueError(
                        f"chain {self.name!r}: non-binary bits for cell "
                        f"{cell.path!r}"
                    ) from None
            if value != cell.reader():
                cell.writer(value)

    # -- checkpoint support ---------------------------------------------------

    def capture_values(self) -> List[Tuple[str, int]]:
        """Raw ``(path, value)`` pairs of every cell, **without** shift
        accounting — host-side bookkeeping, not a TAP access, so it must
        not perturb the scan cycle counters the E1/E2 benchmarks
        measure."""
        return [(slot.cell.path, slot.cell.reader()) for slot in self._slots]

    def capture_words(self) -> array:
        """Raw cell values in chain order as a contiguous ``array('Q')``,
        **without** shift accounting. Golden-run checkpointing hashes the
        buffer (``tobytes``) directly instead of walking per-cell
        ``(path, value)`` tuples; the cell order and paths are structural
        (fixed per target build), so the values alone identify the
        chain-visible state."""
        return array("Q", [reader() for reader in self._readers])

    # -- structural queries (used by campaign set-up and the GUI) -------------

    def cells(self) -> List[ScanCell]:
        return [slot.cell for slot in self._slots]

    def cell(self, path: str) -> ScanCell:
        slot = self._by_path.get(path)
        if slot is None:
            raise TargetError(f"no scan cell {path!r} on chain {self.name!r}")
        return slot.cell

    def has_cell(self, path: str) -> bool:
        return path in self._by_path

    def index(self, path: str) -> int:
        """Position of cell ``path`` in chain order, i.e. in the list
        :meth:`read_values` returns."""
        slot = self._by_path.get(path)
        if slot is None:
            raise TargetError(f"no scan cell {path!r} on chain {self.name!r}")
        return slot.index

    def bit_offset(self, path: str, bit: int) -> int:
        """Global chain-bit position of ``bit`` within cell ``path``."""
        slot = self._by_path.get(path)
        if slot is None:
            raise TargetError(f"no scan cell {path!r} on chain {self.name!r}")
        if not 0 <= bit < slot.cell.width:
            raise TargetError(
                f"bit {bit} out of range for cell {path!r} "
                f"(width {slot.cell.width})"
            )
        return slot.offset + bit

    def locate(self, global_bit: int) -> Tuple[str, int]:
        """Inverse of :meth:`bit_offset`: map a chain bit to (path, bit)."""
        if not 0 <= global_bit < self.total_bits:
            raise TargetError(f"chain bit {global_bit} out of range")
        for slot in self._slots:
            if slot.offset <= global_bit < slot.offset + slot.cell.width:
                return slot.cell.path, global_bit - slot.offset
        raise TargetError(f"chain bit {global_bit} unmapped")  # pragma: no cover

    def describe(self) -> List[Dict[str, object]]:
        """Structural description for the configuration window (Figure 5)
        and the TargetSystemData database table."""
        return [
            {
                "path": slot.cell.path,
                "offset": slot.offset,
                "width": slot.cell.width,
                "read_only": slot.cell.read_only,
            }
            for slot in self._slots
        ]


# ---------------------------------------------------------------------------
# THOR-lite chain factory
# ---------------------------------------------------------------------------


def _register_cells(cpu: Cpu) -> List[ScanCell]:
    cells = []
    for i in range(16):
        cells.append(
            ScanCell(
                path=f"cpu.regfile.r{i}",
                width=32,
                reader=(lambda i=i: cpu.regs.read(i)),
                writer=(lambda v, i=i: cpu.regs.write(i, v)),
            )
        )
    return cells


def _cache_cells(cpu: Cpu, which: str) -> List[ScanCell]:
    # Cells index through the cache object on every access because
    # cache.reset() (run at the start of each experiment) replaces the
    # CacheLine instances.
    cache = cpu.icache if which == "icache" else cpu.dcache
    cells: List[ScanCell] = []
    for index in range(cache.n_lines):
        prefix = f"{which}.line{index}"
        cells.append(
            ScanCell(
                path=f"{prefix}.valid",
                width=1,
                reader=(lambda c=cache, i=index: int(c.lines[i].valid)),
                writer=(
                    lambda v, c=cache, i=index: setattr(c.lines[i], "valid", bool(v))
                ),
            )
        )
        cells.append(
            ScanCell(
                path=f"{prefix}.tag",
                width=cache.tag_bits,
                reader=(lambda c=cache, i=index: c.lines[i].tag),
                writer=(lambda v, c=cache, i=index: setattr(c.lines[i], "tag", v)),
            )
        )
        cells.append(
            ScanCell(
                path=f"{prefix}.tag_parity",
                width=1,
                reader=(lambda c=cache, i=index: c.lines[i].tag_parity),
                writer=(
                    lambda v, c=cache, i=index: setattr(c.lines[i], "tag_parity", v)
                ),
            )
        )
        for w in range(cache.words_per_line):
            cells.append(
                ScanCell(
                    path=f"{prefix}.word{w}",
                    width=32,
                    reader=(lambda c=cache, i=index, w=w: c.lines[i].data[w]),
                    writer=(
                        lambda v, c=cache, i=index, w=w: c.lines[i].data.__setitem__(
                            w, v
                        )
                    ),
                )
            )
            cells.append(
                ScanCell(
                    path=f"{prefix}.parity{w}",
                    width=1,
                    reader=(lambda c=cache, i=index, w=w: c.lines[i].data_parity[w]),
                    writer=(
                        lambda v, c=cache, i=index, w=w: c.lines[
                            i
                        ].data_parity.__setitem__(w, v)
                    ),
                )
            )
    return cells


def build_internal_chain(cpu: Cpu) -> ScanChain:
    """Internal scan chain: PC, PSR, register file, pipeline latches and
    both cache arrays, plus read-only counters and trap status."""
    addr_bits = cpu.config.address_bits
    cells: List[ScanCell] = [
        ScanCell(
            path="cpu.pc",
            width=addr_bits,
            reader=(lambda: cpu.pc & ((1 << addr_bits) - 1)),
            writer=(lambda v: setattr(cpu, "pc", v)),
        ),
        ScanCell(
            path="cpu.psr",
            width=cpu.psr.WIDTH,
            reader=cpu.psr.to_word,
            writer=cpu.psr.from_word,
        ),
    ]
    cells.extend(_register_cells(cpu))
    cells.extend(
        [
            ScanCell(
                path="cpu.pipeline.ir",
                width=32,
                reader=(lambda: cpu.pipeline.ir),
                writer=cpu.pipeline.force_ir,
            ),
            ScanCell(
                path="cpu.pipeline.mar",
                width=32,
                reader=(lambda: cpu.pipeline.mar),
                writer=(lambda v: setattr(cpu.pipeline, "mar", v)),
            ),
            ScanCell(
                path="cpu.pipeline.mdr",
                width=32,
                reader=(lambda: cpu.pipeline.mdr),
                writer=(lambda v: setattr(cpu.pipeline, "mdr", v)),
            ),
        ]
    )
    cells.extend(_cache_cells(cpu, "icache"))
    cells.extend(_cache_cells(cpu, "dcache"))
    # Observation-only cells: counters and trap status.
    cells.extend(
        [
            ScanCell(
                path="cpu.cycle_counter",
                width=32,
                reader=(lambda: cpu.cycles & 0xFFFFFFFF),
            ),
            ScanCell(
                path="cpu.instret_counter",
                width=32,
                reader=(lambda: cpu.instret & 0xFFFFFFFF),
            ),
            ScanCell(
                path="cpu.trap_status",
                width=8,
                reader=(
                    lambda: 0
                    if cpu.trap_event is None
                    else _TRAP_CODES[cpu.trap_event.trap]
                ),
            ),
        ]
    )
    return ScanChain("internal", cells)


def build_boundary_chain(cpu: Cpu) -> ScanChain:
    """Boundary scan chain: the chip's pins.

    The address/data bus pads mirror the MAR/MDR latches (that is where
    the pads are driven from); writing the data-bus cell forces the latch,
    modelling pin-level injection through boundary scan. Control pins are
    capture-only.
    """
    addr_bits = cpu.config.address_bits
    cells = [
        ScanCell(
            path="pins.addr_bus",
            width=addr_bits,
            reader=(lambda: cpu.pipeline.mar & ((1 << addr_bits) - 1)),
            writer=(lambda v: setattr(cpu.pipeline, "mar", v)),
        ),
        ScanCell(
            path="pins.data_bus",
            width=32,
            reader=(lambda: cpu.pipeline.mdr),
            writer=(lambda v: setattr(cpu.pipeline, "mdr", v)),
        ),
        ScanCell(path="pins.halt", width=1, reader=(lambda: int(cpu.halted))),
        ScanCell(
            path="pins.sync_count",
            width=16,
            reader=(lambda: cpu.iterations & 0xFFFF),
        ),
        # EXTEST-style pin forcing: writing these cells arms the data-bus
        # pads to force the masked lines for the next N read transactions
        # (the pin-level fault-injection technique uses them).
        ScanCell(
            path="pins.force_mask",
            width=32,
            reader=(lambda: cpu.bus.force_mask),
            writer=(lambda v: setattr(cpu.bus, "force_mask", v)),
        ),
        ScanCell(
            path="pins.force_value",
            width=32,
            reader=(lambda: cpu.bus.force_value),
            writer=(lambda v: setattr(cpu.bus, "force_value", v)),
        ),
        ScanCell(
            path="pins.force_reads",
            width=8,
            reader=(lambda: min(cpu.bus.force_reads, 0xFF)),
            writer=(lambda v: setattr(cpu.bus, "force_reads", v)),
        ),
    ]
    return ScanChain("boundary", cells)


def build_scan_chains(cpu: Cpu) -> Dict[str, ScanChain]:
    return {
        "internal": build_internal_chain(cpu),
        "boundary": build_boundary_chain(cpu),
    }
