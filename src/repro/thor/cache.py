"""Parity-protected caches.

The Thor RD — the paper's target chip — features parity-protected
instruction and data caches; cache parity is one of its main
error-detection mechanisms and a large share of SCIFI injections land in
the cache arrays. THOR-lite models a direct-mapped, write-through,
write-allocate-on-read cache whose *stored* state (valid bits, tags, data
words and their parity bits) is genuine mutable state reachable from the
internal scan chain.

Parity convention: each protected field stores one even-parity bit, so a
single bit flip in either the field or its parity bit is detected on the
next access. A double flip inside one field escapes the parity check —
which is why the multiplicity benchmark (E7) sees more escapes with
multiple simultaneous flips.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.thor.memory import WORD_TYPECODE
from repro.util.bits import _BYTE_PARITY, parity

DEFAULT_LINES = 16
DEFAULT_WORDS_PER_LINE = 4
DEFAULT_MISS_PENALTY = 8


class CacheParityError(Exception):
    """A parity check failed on access. The CPU converts this into the
    ICACHE_PARITY / DCACHE_PARITY trap depending on which cache raised it."""

    def __init__(self, cache_name: str, line: int, array: str, address: int):
        self.cache_name = cache_name
        self.line = line
        self.array = array  # "tag" or "data"
        self.address = address
        super().__init__(
            f"{cache_name}: {array} parity error in line {line} "
            f"(access to {address:#x})"
        )


@dataclass
class CacheLine:
    """One direct-mapped line. ``data``/``data_parity`` are contiguous
    typed arrays (not lists) so snapshot/restore and checkpoint digests
    move them as buffers; scan-chain cells index them exactly as they
    indexed the former lists."""

    valid: bool = False
    tag: int = 0
    tag_parity: int = 0
    data: array = field(default_factory=lambda: array(WORD_TYPECODE))
    data_parity: array = field(default_factory=lambda: array("B"))


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    parity_errors: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.parity_errors = 0


def _as_array(values: Sequence[int], typecode: str) -> array:
    """Coerce a snapshot row to the line's array type (snapshots made by
    this build already are; integer sequences are converted)."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


class Cache:
    """Direct-mapped, write-through cache with per-word and per-tag parity."""

    def __init__(
        self,
        name: str,
        n_lines: int = DEFAULT_LINES,
        words_per_line: int = DEFAULT_WORDS_PER_LINE,
        miss_penalty: int = DEFAULT_MISS_PENALTY,
        check_parity: bool = True,
        address_bits: int = 16,
    ):
        if n_lines <= 0 or (n_lines & (n_lines - 1)):
            raise ValueError(f"n_lines must be a power of two, got {n_lines}")
        if words_per_line <= 0 or (words_per_line & (words_per_line - 1)):
            raise ValueError(
                f"words_per_line must be a power of two, got {words_per_line}"
            )
        self.name = name
        self.n_lines = n_lines
        self.words_per_line = words_per_line
        self.miss_penalty = miss_penalty
        self.check_parity = check_parity
        self._offset_bits = words_per_line.bit_length() - 1
        self._index_bits = n_lines.bit_length() - 1
        # Hot-path address split without the split() tuple round-trip.
        self._offset_mask = words_per_line - 1
        self._index_mask = n_lines - 1
        self._tag_shift = self._offset_bits + self._index_bits
        self.tag_bits = max(1, address_bits - self._offset_bits - self._index_bits)
        self.lines: List[CacheLine] = []
        self.stats = CacheStats()
        self.reset()

    def reset(self) -> None:
        words = self.words_per_line
        self.lines = [
            CacheLine(
                valid=False,
                tag=0,
                tag_parity=0,
                data=array(WORD_TYPECODE, (0,)) * words,
                data_parity=array("B", (0,)) * words,
            )
            for _ in range(self.n_lines)
        ]
        self.stats.reset()

    # -- address split -----------------------------------------------------

    def split(self, address: int) -> Tuple[int, int, int]:
        offset = address & (self.words_per_line - 1)
        index = (address >> self._offset_bits) & (self.n_lines - 1)
        tag = address >> (self._offset_bits + self._index_bits)
        return tag, index, offset

    # -- access path ---------------------------------------------------------

    def _check_tag(self, line: CacheLine, index: int, address: int) -> None:
        if self.check_parity and parity(line.tag) != line.tag_parity:
            self.stats.parity_errors += 1
            raise CacheParityError(self.name, index, "tag", address)

    def read(self, address: int, memory) -> Tuple[int, int]:
        """Read one word through the cache.

        Returns ``(value, extra_cycles)`` where ``extra_cycles`` is the
        miss penalty (0 on a hit). Raises :class:`CacheParityError` when a
        stored parity bit disagrees with its protected field.

        The hit path is the single hottest call in the simulator (every
        fetch crosses it), so the address split and the parity folds are
        inlined here: a scan write masks any stored field to its cell
        width (< 33 bits), so the four-byte XOR fold is always exact.
        """
        offset = address & self._offset_mask
        index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        line = self.lines[index]
        table = _BYTE_PARITY
        if line.valid:
            if self.check_parity:
                stored = line.tag
                if (
                    table[stored & 0xFF]
                    ^ table[(stored >> 8) & 0xFF]
                    ^ table[(stored >> 16) & 0xFF]
                    ^ table[(stored >> 24) & 0xFF]
                ) != line.tag_parity:
                    self.stats.parity_errors += 1
                    raise CacheParityError(self.name, index, "tag", address)
            if line.tag == tag:
                value = line.data[offset]
                if self.check_parity and (
                    table[value & 0xFF]
                    ^ table[(value >> 8) & 0xFF]
                    ^ table[(value >> 16) & 0xFF]
                    ^ table[value >> 24]
                ) != line.data_parity[offset]:
                    self.stats.parity_errors += 1
                    raise CacheParityError(self.name, index, "data", address)
                self.stats.hits += 1
                return value, 0
        # Miss: fill the whole line from memory.
        self.stats.misses += 1
        base = address - offset
        line.valid = True
        line.tag = tag
        line.tag_parity = parity(tag)
        for i in range(self.words_per_line):
            word = memory.read(base + i)
            line.data[i] = word
            line.data_parity[i] = parity(word)
        return line.data[offset], self.miss_penalty

    def write(self, address: int, value: int, memory) -> int:
        """Write-through one word. Returns extra cycles (always 0: the
        write buffer hides the memory latency in this model)."""
        memory.write(address, value)
        tag, index, offset = self.split(address)
        line = self.lines[index]
        if line.valid:
            self._check_tag(line, index, address)
            if line.tag == tag:
                line.data[offset] = value
                line.data_parity[offset] = parity(value)
                self.stats.hits += 1
                return 0
        self.stats.misses += 1
        return 0

    # -- checkpoint support ----------------------------------------------------
    # Snapshot/restore mutate the existing CacheLine objects in place (the
    # scan cells close over the cache object and index lines on access, so
    # either would work — in-place keeps allocation off the restore path).

    def snapshot_state(self) -> dict:
        """Full stored state of the arrays plus the access counters (the
        counters are deterministic along the reference run, so restoring
        them keeps a warm experiment bit-identical to a cold one). Line
        data travels as typed ``array`` copies — buffer copies on
        capture, ``tobytes`` feeds on digest."""
        return {
            "lines": [
                (
                    line.valid,
                    line.tag,
                    line.tag_parity,
                    line.data[:],
                    line.data_parity[:],
                )
                for line in self.lines
            ],
            "stats": (
                self.stats.hits,
                self.stats.misses,
                self.stats.parity_errors,
            ),
        }

    def restore_state(self, state: dict) -> None:
        for line, snap in zip(self.lines, state["lines"]):
            valid, tag, tag_parity, data, data_parity = snap
            line.valid = bool(valid)
            line.tag = tag
            line.tag_parity = tag_parity
            line.data[:] = _as_array(data, line.data.typecode)
            line.data_parity[:] = _as_array(data_parity, "B")
        hits, misses, parity_errors = state["stats"]
        self.stats.hits = hits
        self.stats.misses = misses
        self.stats.parity_errors = parity_errors
