"""Scan chains: serialized access to the target's state elements.

The Thor RD exposes its internal state through IEEE-1149.1-style boundary
and internal scan chains; the SCIFI technique (the paper's main
implemented technique) reads the chains, flips bits, and writes them back.
This module models a chain as an ordered list of cells, each mapping a
contiguous bit range of the serialized chain onto one state element.
Some cells are read-only — "some locations in the scan-chain are
read-only and can therefore only be used to observe the state of the
microprocessor" (paper Section 3.1) — writes to them are silently dropped
by the hardware, and the campaign layer refuses to *target* them.

A THOR cell is described once, as a :class:`CellSource`: a Python
expression that reads the element and, for a writable cell, a statement
that writes it. A chain generates one source file from its cells
(compiled under ``<scan-chain NAME DIGEST>`` and registered with
``linecache``, like the CPU's compiled blocks): one function returning
every cell value in chain order, one width check, and each cell's own
reader and writer. A cell given as a plain :class:`ScanCell` (a pair of
callables, as the TSM board's are) is called from the generated body.

:meth:`ScanChain.read` returns a :class:`ChainImage`: the cell values
behind the paper's bit-list interface, so Figure 2's
``readScanChain → injectFault → writeScanChain`` keeps its shape while a
write lands only the cells whose value differs from the live state.

Chain access is modelled with its real cost: shifting a chain in or out
takes one clock per bit, surfaced as :attr:`ScanChain.shift_cycles` and an
operation counter, which the E1/E2 benchmarks use.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import ne
from types import CodeType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.thor.cpu import Cpu
from repro.thor.traps import Trap
from repro.util.errors import TargetError

# Fixed encoding of the trap-status scan cell (0 = no trap latched).
_TRAP_CODES = {trap: index + 1 for index, trap in enumerate(Trap)}

# Chain bits <-> the ASCII digits ``int(..., 2)`` and ``format(..., "b")``
# read and write, for packing a bit list into cell values and back.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


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


@dataclass(frozen=True)
class CellSource:
    """A cell described as source: ``read`` is an expression and
    ``write`` a statement assigning the value ``v`` (None: read-only),
    both over the names of the chain's namespace. Each is evaluated in
    full on every call, so an expression that indexes a list the target
    replaces (``cache.reset()`` replaces the cache lines) sees the new
    one."""

    path: str
    width: int
    read: str
    write: Optional[str] = None


def _assign(path: str, width: int, target: str) -> CellSource:
    """A cell over plain state: read ``target``, write by assigning it."""
    return CellSource(path, width, target, f"{target} = v")


def _chain_source(cells: Sequence[Union[ScanCell, CellSource]]) -> str:
    """One module: ``values()`` returns every cell value in chain order,
    ``fits(values)`` checks them with one OR-and-shift per width (a
    negative value shifts to -1, so it fails too), and ``read_<i>`` /
    ``write_<i>`` are source cell ``i``'s own reader and writer. A
    :class:`ScanCell` is called as ``_read_<i>()``."""
    reads = [
        cell.read if isinstance(cell, CellSource) else f"_read_{index}()"
        for index, cell in enumerate(cells)
    ]
    groups: Dict[int, List[str]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(cell.width, []).append(f"v{index}")
    lines = ["def values():", "    return ["]
    lines += [f"        {read}," for read in reads]
    lines += ["    ]", "", "def fits(values):"]
    if cells:
        lines.append("    (")
        lines += [f"        v{index}," for index in range(len(cells))]
        lines += ["    ) = values", "    return not ("]
        lines += [
            f"        {'or ' if position else ''}({' | '.join(group)}) >> {width}"
            for position, (width, group) in enumerate(sorted(groups.items()))
        ]
        lines.append("    )")
    else:
        lines.append("    return True")
    for index, cell in enumerate(cells):
        if not isinstance(cell, CellSource):
            continue
        lines += ["", f"def read_{index}():", f"    return {cell.read}"]
        if cell.write is not None:
            lines += ["", f"def write_{index}(v):", f"    {cell.write}"]
    return "\n".join(lines) + "\n"


#: Lines per compiled piece of a chain module (see :func:`_compile_chain`).
_PIECE_LINES = 200


@functools.lru_cache(maxsize=32)
def _compile_chain(filename: str, source: str) -> Tuple[CodeType, ...]:
    """Compile a chain module once per distinct source; every chain of
    that shape then only executes the code in its own namespace.

    The module is compiled in pieces of whole top-level functions, each
    padded with blank lines to its place in the source, so tracebacks
    still show the right lines: compiled whole, the 376-cell internal
    chain's module took several MB of compiler memory at once."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    lines = source.splitlines(True)
    pieces = []
    start = 0
    for number, line in enumerate(lines):
        if number - start >= _PIECE_LINES and line.startswith("def "):
            pieces.append((start, number))
            start = number
    pieces.append((start, len(lines)))
    return tuple(
        compile("\n" * start + "".join(lines[start:end]), filename, "exec")
        for start, end in pieces
    )


class ChainImage:
    """A chain's serialized image, held as one value per cell.

    Behaves as the bit list the paper's building blocks pass around
    (chain order, LSB first within a cell): ``len``, indexing, item
    assignment, slicing (to a list of bits), iteration and ``==``
    against a bit list or another image. A bit finds its cell by bisect
    over the cell offsets. Assigning anything but 0 or 1 raises
    ``ValueError`` at once, so a rejected image never reaches the
    target. Bits of read-only cells can be assigned; a write ignores
    them, as the hardware does.
    """

    __slots__ = ("chain", "values")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, chain: "ScanChain", values: List[int]):
        self.chain = chain
        self.values = values

    def __len__(self) -> int:
        return self.chain.total_bits

    def _locate(self, position: int) -> Tuple[int, int]:
        total = self.chain.total_bits
        if position < 0:
            position += total
        if not 0 <= position < total:
            raise IndexError("chain image index out of range")
        offsets = self.chain._offsets
        index = bisect_right(offsets, position) - 1
        return index, position - offsets[index]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.bits()[key]
        index, bit = self._locate(key)
        return (self.values[index] >> bit) & 1

    def __setitem__(self, position: int, bit: int) -> None:
        index, shift = self._locate(position)
        if bit not in (0, 1):
            raise ValueError(
                f"chain {self.chain.name!r}: non-binary bit {bit!r} for "
                f"cell {self.chain._cells[index].path!r}"
            )
        if bit:
            self.values[index] |= 1 << shift
        else:
            self.values[index] &= ~(1 << shift)

    def bits(self) -> List[int]:
        """The image as a plain bit list."""
        whole = 0
        for value, offset in zip(self.values, self.chain._offsets):
            whole |= value << offset
        total = self.chain.total_bits
        digits = format(whole, f"0{total}b")[::-1] if total else ""
        return list(digits.encode("ascii").translate(_DIGITS_TO_BITS))

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChainImage):
            if other.chain is self.chain:
                return other.values == self.values
            return other.bits() == self.bits()
        if isinstance(other, list):
            return other == self.bits()
        return NotImplemented

    def __repr__(self) -> str:
        return f"ChainImage({self.chain.name!r}, {self.values!r})"


class ScanChain:
    """An ordered chain of scan cells with serialized read/write access.

    ``cells`` mixes :class:`CellSource` descriptions, compiled against
    ``namespace``, and :class:`ScanCell` callables."""

    def __init__(
        self,
        name: str,
        cells: Sequence[Union[ScanCell, CellSource]],
        namespace: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        namespace = dict(namespace or {})
        for index, cell in enumerate(cells):
            if isinstance(cell, ScanCell):
                namespace[f"_read_{index}"] = cell.reader
        source = _chain_source(cells)
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:8]
        for code in _compile_chain(f"<scan-chain {name} {digest}>", source):
            exec(code, namespace)
        self._values: Callable[[], List[int]] = namespace["values"]
        self._fits: Callable[[List[int]], bool] = namespace["fits"]

        self._cells: List[ScanCell] = []
        self._by_path: Dict[str, int] = {}
        self._offsets: List[int] = []
        offset = 0
        for index, cell in enumerate(cells):
            if cell.path in self._by_path:
                raise TargetError(f"duplicate scan cell path {cell.path!r}")
            if isinstance(cell, CellSource):
                cell = ScanCell(
                    path=cell.path,
                    width=cell.width,
                    reader=namespace[f"read_{index}"],
                    writer=namespace.get(f"write_{index}"),
                )
            self._cells.append(cell)
            self._by_path[cell.path] = index
            self._offsets.append(offset)
            offset += cell.width
        self.total_bits = offset
        self._widths = [cell.width for cell in self._cells]
        self._writers = [cell.writer for cell in self._cells]
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
        values = self._values()
        if not self._fits(values):
            # Only a failing check walks the cells, to name the first
            # offender in chain order.
            for value, width in zip(values, self._widths):
                if value >> width:
                    raise ValueError(
                        f"value {value:#x} does not fit in {width} bits"
                    )
        return values

    def read(self) -> ChainImage:
        """Shift out the full chain as an image (see :class:`ChainImage`)."""
        return ChainImage(self, self.read_values())

    def write(self, bits: Union[ChainImage, Sequence[int]]) -> None:
        """Shift in a full chain image, or a plain bit list.

        The image's values are compared with one fresh read of the
        chain, and only writable cells that differ are written: a
        read-modify-write of the whole chain (the SCIFI injection
        pattern) changes nothing but the flipped bits — in particular it
        does not mark the IR latch as forced when the IR bits were not
        touched — and a cell changed since the read is put back. Read-
        only cells ignore their bits, exactly as capture-only cells do
        in real scan logic. A bit list is checked whole, every bit 0 or
        1 (read-only cells included), before any cell is written.
        """
        if isinstance(bits, ChainImage) and bits.chain is self:
            values = bits.values
        else:
            values = self._pack(bits)
        self.writes += 1
        current = self._values()
        if values != current:
            writers = self._writers
            for index in compress(range(len(values)), map(ne, values, current)):
                writer = writers[index]
                if writer is not None:
                    writer(values[index])

    def _pack(self, bits: Sequence[int]) -> List[int]:
        """Cell values of a bit list, after checking its length and that
        every bit is 0 or 1."""
        if len(bits) != self.total_bits:
            raise TargetError(
                f"chain {self.name!r} expects {self.total_bits} bits, "
                f"got {len(bits)}"
            )
        try:
            raw: Optional[bytes] = bytes(bits)
        except (TypeError, ValueError):
            raw = None
        if raw is None or raw.translate(None, b"\x00\x01"):
            for position, bit in enumerate(bits):
                if bit not in (0, 1):
                    path, _ = self.locate(position)
                    raise ValueError(
                        f"chain {self.name!r}: non-binary bits for cell "
                        f"{path!r}"
                    )
            raw = bytes(map(int, bits))
        whole = int(raw[::-1].translate(_BITS_TO_DIGITS), 2) if raw else 0
        return [
            (whole >> offset) & ((1 << width) - 1)
            for offset, width in zip(self._offsets, self._widths)
        ]

    # -- checkpoint support ---------------------------------------------------

    def capture_words(self) -> array:
        """Raw cell values in chain order as a contiguous ``array('Q')``,
        **without** shift accounting or the width check. Golden-run
        checkpointing hashes the buffer (``tobytes``) directly; the cell
        order and paths are structural (fixed per target build), so the
        values alone identify the chain-visible state."""
        return array("Q", self._values())

    # -- structural queries (used by campaign set-up and the GUI) -------------

    def cells(self) -> List[ScanCell]:
        return list(self._cells)

    def _slot(self, path: str) -> int:
        index = self._by_path.get(path)
        if index is None:
            raise TargetError(f"no scan cell {path!r} on chain {self.name!r}")
        return index

    def cell(self, path: str) -> ScanCell:
        return self._cells[self._slot(path)]

    def index(self, path: str) -> int:
        """Position of cell ``path`` in chain order, i.e. in the list
        :meth:`read_values` returns."""
        return self._slot(path)

    def bit_offset(self, path: str, bit: int) -> int:
        """Global chain-bit position of ``bit`` within cell ``path``."""
        index = self._slot(path)
        width = self._widths[index]
        if not 0 <= bit < width:
            raise TargetError(
                f"bit {bit} out of range for cell {path!r} (width {width})"
            )
        return self._offsets[index] + bit

    def locate(self, global_bit: int) -> Tuple[str, int]:
        """Inverse of :meth:`bit_offset`: map a chain bit to (path, bit)."""
        if not 0 <= global_bit < self.total_bits:
            raise TargetError(f"chain bit {global_bit} out of range")
        index = bisect_right(self._offsets, global_bit) - 1
        return self._cells[index].path, global_bit - self._offsets[index]

    def describe(self) -> List[Dict[str, object]]:
        """Structural description for the configuration window (Figure 5)
        and the TargetSystemData database table."""
        return [
            {
                "path": cell.path,
                "offset": offset,
                "width": cell.width,
                "read_only": cell.read_only,
            }
            for cell, offset in zip(self._cells, self._offsets)
        ]


# ---------------------------------------------------------------------------
# THOR-lite chain factory
# ---------------------------------------------------------------------------


def _cpu_namespace(cpu: Cpu) -> Dict[str, object]:
    """Names THOR cell sources read through. The register list and the
    PSR, latch, cache and bus objects live as long as the CPU (every
    reset and restore mutates them in place); cache *lines* do not, so
    cache cells index ``cache.lines`` on every call."""
    return {
        "cpu": cpu,
        "regs": cpu.regs._regs,
        "psr": cpu.psr,
        "pipeline": cpu.pipeline,
        "icache": cpu.icache,
        "dcache": cpu.dcache,
        "bus": cpu.bus,
        "TRAP_CODES": _TRAP_CODES,
    }


def _cache_cells(cpu: Cpu, which: str) -> List[CellSource]:
    cache = cpu.icache if which == "icache" else cpu.dcache
    cells: List[CellSource] = []
    for index in range(cache.n_lines):
        prefix = f"{which}.line{index}"
        line = f"{which}.lines[{index}]"
        cells.append(
            CellSource(
                f"{prefix}.valid", 1, f"int({line}.valid)",
                f"{line}.valid = bool(v)",
            )
        )
        cells.append(_assign(f"{prefix}.tag", cache.tag_bits, f"{line}.tag"))
        cells.append(_assign(f"{prefix}.tag_parity", 1, f"{line}.tag_parity"))
        for w in range(cache.words_per_line):
            cells.append(_assign(f"{prefix}.word{w}", 32, f"{line}.data[{w}]"))
            cells.append(
                _assign(f"{prefix}.parity{w}", 1, f"{line}.data_parity[{w}]")
            )
    return cells


def build_internal_chain(cpu: Cpu) -> ScanChain:
    """Internal scan chain: PC, PSR, register file, pipeline latches and
    both cache arrays, plus read-only counters and trap status."""
    addr_bits = cpu.config.address_bits
    cells: List[CellSource] = [
        CellSource(
            "cpu.pc", addr_bits, f"cpu.pc & {(1 << addr_bits) - 1:#x}",
            "cpu.pc = v",
        ),
        CellSource("cpu.psr", cpu.psr.WIDTH, "psr.to_word()", "psr.from_word(v)"),
    ]
    cells.extend(
        CellSource(
            f"cpu.regfile.r{i}", 32, f"regs[{i}]", f"regs[{i}] = v & 0xFFFFFFFF"
        )
        for i in range(16)
    )
    cells.extend(
        [
            CellSource(
                "cpu.pipeline.ir", 32, "pipeline.ir", "pipeline.force_ir(v)"
            ),
            _assign("cpu.pipeline.mar", 32, "pipeline.mar"),
            _assign("cpu.pipeline.mdr", 32, "pipeline.mdr"),
        ]
    )
    cells.extend(_cache_cells(cpu, "icache"))
    cells.extend(_cache_cells(cpu, "dcache"))
    # Observation-only cells: counters and trap status.
    cells.extend(
        [
            CellSource("cpu.cycle_counter", 32, "cpu.cycles & 0xFFFFFFFF"),
            CellSource("cpu.instret_counter", 32, "cpu.instret & 0xFFFFFFFF"),
            CellSource(
                "cpu.trap_status",
                8,
                "0 if cpu.trap_event is None "
                "else TRAP_CODES[cpu.trap_event.trap]",
            ),
        ]
    )
    return ScanChain("internal", cells, _cpu_namespace(cpu))


def build_boundary_chain(cpu: Cpu) -> ScanChain:
    """Boundary scan chain: the chip's pins.

    The address/data bus pads mirror the MAR/MDR latches (that is where
    the pads are driven from); writing the data-bus cell forces the latch,
    modelling pin-level injection through boundary scan. Control pins are
    capture-only.
    """
    addr_bits = cpu.config.address_bits
    cells = [
        CellSource(
            "pins.addr_bus", addr_bits,
            f"pipeline.mar & {(1 << addr_bits) - 1:#x}", "pipeline.mar = v",
        ),
        _assign("pins.data_bus", 32, "pipeline.mdr"),
        CellSource("pins.halt", 1, "int(cpu.halted)"),
        CellSource("pins.sync_count", 16, "cpu.iterations & 0xFFFF"),
        # EXTEST-style pin forcing: writing these cells arms the data-bus
        # pads to force the masked lines for the next N read transactions
        # (the pin-level fault-injection technique uses them).
        _assign("pins.force_mask", 32, "bus.force_mask"),
        _assign("pins.force_value", 32, "bus.force_value"),
        CellSource(
            "pins.force_reads", 8, "min(bus.force_reads, 0xFF)",
            "bus.force_reads = v",
        ),
    ]
    return ScanChain("boundary", cells, _cpu_namespace(cpu))


def build_scan_chains(cpu: Cpu) -> Dict[str, ScanChain]:
    return {
        "internal": build_internal_chain(cpu),
        "boundary": build_boundary_chain(cpu),
    }
