"""The bit-list scan access the chain image replaced, kept as a test oracle.

:meth:`repro.thor.scanchain.ScanChain.read` returns a value-backed
:class:`~repro.thor.scanchain.ChainImage`, reads every cell through one
generated function and lands a write by comparing values with one fresh
read. This module keeps the bodies they replaced — a chain shifted out
as a plain bit list through each cell's own reader, and a bit list
shifted back in cell by cell, each writable cell re-read and written
when its packed value differs — so the property suite can hold the
shipped path to them:

* :func:`reference_read` / :func:`reference_write` act on one
  :class:`~repro.thor.scanchain.ScanChain`, bumping its ``reads`` /
  ``writes`` counters as the shipped methods do;
* :func:`reference_read_chain` / :func:`reference_write_chain` are the
  card-level calls (``TestCard`` and ``TsmBoard`` alike), charging the
  shift to ``total_scan_cycles``.

The oracle uses only a chain's public structure: its cells' readers and
writers and their bit offsets. It never calls the generated chain
reader or the image.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.thor.scanchain import ScanChain
from repro.util.errors import TargetError

_BITS_OF_BYTE: Tuple[Tuple[int, ...], ...] = tuple(
    tuple((value >> i) & 1 for i in range(8)) for value in range(256)
)
# Bools hash like 0/1, so bit lists holding them pack the same way.
_BYTE_OF_BITS: Dict[Tuple[int, ...], int] = {
    bits: value for value, bits in enumerate(_BITS_OF_BYTE)
}


def reference_read(chain: ScanChain) -> List[int]:
    """The full chain as a bit list (chain order, LSB first within a
    cell), every cell read through its own reader and width-checked."""
    chain.reads += 1
    cells = chain.cells()
    values = [cell.reader() for cell in cells]
    for value, cell in zip(values, cells):
        if value >> cell.width:
            raise ValueError(
                f"value {value:#x} does not fit in {cell.width} bits"
            )
    bits: List[int] = []
    for value, cell in zip(values, cells):
        width = cell.width
        if width == 1:
            bits.append(value)
            continue
        while width >= 8:
            bits.extend(_BITS_OF_BYTE[value & 0xFF])
            value >>= 8
            width -= 8
        if width:
            bits.extend(_BITS_OF_BYTE[value][:width])
    return bits


def reference_write(chain: ScanChain, bits: List[int]) -> None:
    """Shift in a bit list cell by cell: read-only cells ignore their
    bits, and a writable cell is written only when its packed value
    differs from what its reader returns at that moment."""
    if len(bits) != chain.total_bits:
        raise TargetError(
            f"chain {chain.name!r} expects {chain.total_bits} bits, "
            f"got {len(bits)}"
        )
    chain.writes += 1
    for cell in chain.cells():
        if cell.writer is None:
            continue
        width = cell.width
        pos = chain.bit_offset(cell.path, 0)
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
                    value |= _BYTE_OF_BITS[tuple(bits[pos : pos + 8])] << shift
                    pos += 8
                    shift += 8
                    width -= 8
                if width:
                    residual = tuple(bits[pos:end]) + (0,) * (8 - width)
                    value |= _BYTE_OF_BITS[residual] << shift
            except KeyError:
                raise ValueError(
                    f"chain {chain.name!r}: non-binary bits for cell "
                    f"{cell.path!r}"
                ) from None
        if value != cell.reader():
            cell.writer(value)


def reference_read_chain(board, name: str) -> List[int]:
    """``board.read_chain(name)`` on the oracle."""
    chain = board.chain(name)
    board.total_scan_cycles += chain.shift_cycles
    return reference_read(chain)


def reference_write_chain(board, name: str, bits: List[int]) -> None:
    """``board.write_chain(name, bits)`` on the oracle."""
    chain = board.chain(name)
    board.total_scan_cycles += chain.shift_cycles
    reference_write(chain, bits)
