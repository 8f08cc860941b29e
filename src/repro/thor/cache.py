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

import bisect
import re
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
    # Snapshot/restore copy the line fields into and out of flat typed
    # arrays and mutate the existing CacheLine objects in place (the scan
    # cells index ``lines`` on every access, so either would work —
    # in-place keeps allocation off the restore path).

    def snapshot_state(self) -> dict:
        """Full stored state of the arrays plus the access counters (the
        counters are deterministic along the reference run, so restoring
        them keeps a warm experiment bit-identical to a cold one), as one
        typed array per line field, lines in order — ``data`` and
        ``data_parity`` hold ``words_per_line`` entries per line."""
        lines = self.lines
        data = array(WORD_TYPECODE)
        data_parity = array("B")
        for line in lines:
            data += line.data
            data_parity += line.data_parity
        stats = self.stats
        return {
            "valid": array("B", [line.valid for line in lines]),
            "tag": array("Q", [line.tag for line in lines]),
            "tag_parity": array("B", [line.tag_parity for line in lines]),
            "data": data,
            "data_parity": data_parity,
            "stats": array("q", (stats.hits, stats.misses, stats.parity_errors)),
        }

    def restore_state(self, state: dict) -> None:
        words = self.words_per_line
        data = state["data"]
        data_parity = state["data_parity"]
        start = 0
        for line, valid, tag, tag_parity in zip(
            self.lines, state["valid"], state["tag"], state["tag_parity"]
        ):
            line.valid = bool(valid)
            line.tag = tag
            line.tag_parity = tag_parity
            end = start + words
            line.data[:] = data[start:end]
            line.data_parity[:] = data_parity[start:end]
            start = end
        stats = self.stats
        stats.hits, stats.misses, stats.parity_errors = state["stats"]


# ---------------------------------------------------------------------------
# Next-event replay: the pre-injection oracle's view of a cache
# ---------------------------------------------------------------------------

# One access to a line, as the replay records it: the accessed word's
# offset in the low byte, then what the access was and found.
_OFFSET = 0xFF
_HIT = 1 << 8
_VALID = 1 << 9
_STORE = 1 << 10


@dataclass(frozen=True)
class CacheRecord:
    """What one cache did over a traced reference run that started with
    the cache empty: its geometry and the hits and misses it counted.
    The pre-injection oracle replays the trace through :meth:`replay` to
    tell, for each stored cell, whether the next access reads it.

    ``fetches`` marks the instruction cache: it sees one read per traced
    step at the step's PC, then ``tail``, the fetches after the last
    traced step (the halting instruction, which the card's step hook
    does not see). The data cache sees each step's ``mem_address``
    below ``uncached_base`` (the MMIO window bypasses it), as a store
    when ``mem_is_write``. PUSH and POP leave ``mem_address`` unset, so
    the replay of a workload using them comes up short of the counts."""

    n_lines: int
    words_per_line: int
    hits: int
    misses: int
    fetches: bool = False
    uncached_base: Optional[int] = None
    tail: Tuple[int, ...] = ()

    def replay(self, trace) -> Optional["CacheReplay"]:
        """Replay ``trace``'s accesses through an empty cache of this
        geometry. None when the replay's hit or miss count differs from
        the recorded one: the trace then does not hold every access this
        cache saw, and none of its cells may be judged from it."""
        if self.fetches:
            accesses = [(step.cycle_before, step.pc, False) for step in trace]
            end = trace.duration_cycles
            accesses += [(end, pc, False) for pc in self.tail]
        else:
            limit = self.uncached_base
            accesses = [
                (step.cycle_before, step.mem_address, step.mem_is_write)
                for step in trace
                if step.mem_address is not None
                and (limit is None or step.mem_address < limit)
            ]
        offset_bits = self.words_per_line.bit_length() - 1
        index_mask = self.n_lines - 1
        tag_shift = offset_bits + self.n_lines.bit_length() - 1
        valid = [False] * self.n_lines
        tags = [0] * self.n_lines
        times: List[List[int]] = [[] for _ in range(self.n_lines)]
        codes: List[List[int]] = [[] for _ in range(self.n_lines)]
        hits = 0
        for time, address, store in accesses:
            index = (address >> offset_bits) & index_mask
            code = address & (self.words_per_line - 1)
            if store:
                code |= _STORE
            if valid[index]:
                code |= _VALID
                if tags[index] == address >> tag_shift:
                    code |= _HIT
                    hits += 1
            if not code & (_HIT | _STORE):
                # A read miss fills the line; a store miss allocates nothing.
                valid[index] = True
                tags[index] = address >> tag_shift
            times[index].append(time)
            codes[index].append(code)
        if hits != self.hits or len(accesses) - hits != self.misses:
            return None
        return CacheReplay(times, codes)


class CacheReplay:
    """Per-line access events of one replayed cache (:meth:`CacheRecord.replay`)."""

    def __init__(self, times: List[List[int]], codes: List[List[int]]):
        self._times = times
        self._codes = codes

    def next_access(self, cell: str, time: int) -> Optional[bool]:
        """What the first access at or after ``time`` does to ``cell``, a
        path below the cache such as ``line3.word1``: True when it reads
        the cell, False when it overwrites it, None when no access
        touches it again. A cell the replay does not know reads as True.

        The rules are :meth:`Cache.read` and :meth:`Cache.write`'s. Every
        access reads the line's valid bit. An access to a valid line
        checks its tag against the tag parity bit and compares it, so
        both are read. A read hit reads its word and that word's parity
        bit. A read miss fills the line: tag, tag parity and every word
        and parity bit are overwritten. A store hit overwrites its word
        and parity bit; a store miss changes nothing in the line."""
        match = _CELL_RE.match(cell)
        if match is None:
            return True
        found = self._next(match, time)
        return None if found is None else found[0]

    def next_access_time(self, cell: str, time: int) -> Optional[int]:
        """When the access :meth:`next_access` describes happens: the
        time of the first access at or after ``time`` that reads or
        overwrites ``cell`` (None: none does, or the cell is unknown)."""
        match = _CELL_RE.match(cell)
        found = None if match is None else self._next(match, time)
        return None if found is None else found[1]

    def _next(self, match: "re.Match", time: int) -> Optional[Tuple[bool, int]]:
        """(reads, time) of the first access at or after ``time`` that
        touches the cell ``match`` names."""
        line, name, word = match.groups()
        times = self._times[int(line)]
        codes = self._codes[int(line)]
        start = bisect.bisect_left(times, time)
        if name == "valid":
            return (True, times[start]) if start < len(codes) else None
        if name in ("tag", "tag_parity"):
            for position in range(start, len(codes)):
                code = codes[position]
                if code & _VALID:
                    return True, times[position]
                if not code & _STORE:
                    return False, times[position]
            return None
        offset = int(word)
        for position in range(start, len(codes)):
            code = codes[position]
            if not code & _HIT:
                if not code & _STORE:
                    return False, times[position]
            elif code & _OFFSET == offset:
                return not code & _STORE, times[position]
        return None


_CELL_RE = re.compile(r"line(\d+)\.(valid|tag|tag_parity|word|parity)(\d*)$")
