"""Main memory of the THOR-lite target.

Memory is word-addressed (32-bit words). The default address space is
64 Ki words. Accesses outside the physical address space raise
:class:`IllegalAddress`, which the CPU converts into the ILLEGAL_ADDRESS
trap — one of the target's error-detection mechanisms. This matters for
fault injection: a bit flip in an address register frequently produces an
out-of-range access and is therefore *detected* rather than escaping.

Memory map convention used by the workload library (not enforced by
hardware except where noted)::

    0x0000 .. 0x00FF   reserved page (vectors / scratch)
    0x0100 .. ...      workload code + data (assembler default origin)
    ...    .. 0xEFFF   heap / stack (stack grows down from 0xF000)
    0xFF00 .. 0xFF3F   environment-simulator INPUT window (env -> target)
    0xFF40 .. 0xFF7F   environment-simulator OUTPUT window (target -> env)
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.thor.isa import WORD_MASK

DEFAULT_SIZE = 65536

#: Typecode of the contiguous word store. "I" is 32-bit on every current
#: CPython platform; fall back to "L" where it is not — values are always
#: masked to WORD_MASK before storage, so either code holds them.
WORD_TYPECODE = "I" if array("I").itemsize == 4 else "L"
#: Words per page for checkpoint dirty-page tracking (must match
#: repro.core.checkpoint.PAGE_WORDS; kept local so the simulator layer
#: stays import-independent of the algorithm layer).
PAGE_WORDS = 256
STACK_TOP = 0xF000
ENV_INPUT_BASE = 0xFF00
ENV_OUTPUT_BASE = 0xFF40
ENV_WINDOW_WORDS = 64


class IllegalAddress(Exception):
    """Access outside the physical address space."""

    def __init__(self, address: int, kind: str):
        self.address = address
        self.kind = kind
        super().__init__(f"illegal {kind} address {address:#x}")


class Memory:
    """Flat word-addressed RAM with bounds checking and write protection.

    The word store is a contiguous ``array`` rather than a Python list:
    page reads, page loads and checkpoint fingerprints then move whole
    buffers (``tobytes``/slice assignment) instead of walking per-word
    Python objects, and :meth:`nonzero_pages` reduces to byte compares.
    """

    def __init__(self, size: int = DEFAULT_SIZE):
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self._words: array = array(WORD_TYPECODE, (0,)) * size
        # Optional write-protected range [lo, hi] (inclusive), used to
        # protect the code image when the campaign asks for it.
        self._protected: Tuple[int, int] = (1, 0)  # empty
        # Dirty-page tracking for golden-run checkpointing: off by
        # default (zero overhead on the experiment hot path), enabled by
        # the port for the duration of the reference run.
        self._track_dirty = False
        self._dirty_pages: Set[int] = set()

    def reset(self) -> None:
        self._words = array(WORD_TYPECODE, (0,)) * self.size
        self._protected = (1, 0)
        self._dirty_pages.clear()

    def protect(self, lo: int, hi: int) -> None:
        """Write-protect the inclusive word range [lo, hi]."""
        self._protected = (lo, hi)

    def unprotect(self) -> None:
        self._protected = (1, 0)

    def read(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise IllegalAddress(address, "read")
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise IllegalAddress(address, "write")
        lo, hi = self._protected
        if lo <= address <= hi:
            raise IllegalAddress(address, "write-protected")
        self._words[address] = value & WORD_MASK
        if self._track_dirty:
            self._dirty_pages.add(address // PAGE_WORDS)

    # -- raw access for the test card / fault injectors -------------------
    # The test card's download port and the pre-runtime SWIFI injector
    # bypass protection: they model physical access to the RAM chips.

    def poke(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise IllegalAddress(address, "poke")
        self._words[address] = value & WORD_MASK
        if self._track_dirty:
            self._dirty_pages.add(address // PAGE_WORDS)

    def peek(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise IllegalAddress(address, "peek")
        return self._words[address]

    def load_image(self, image: Dict[int, int]) -> None:
        for address, value in image.items():
            self.poke(address, value)

    def dump(self, lo: int, hi: int) -> List[int]:
        """Words in [lo, hi) — used to build logged state vectors."""
        if not (0 <= lo <= hi <= self.size):
            raise IllegalAddress(hi, "dump")
        return self._words[lo:hi].tolist()

    def nonzero_addresses(self) -> Iterable[int]:
        """Addresses of non-zero words, ascending. Skips all-zero pages
        wholesale (byte compare) before touching individual words."""
        return self._iter_nonzero()

    def _iter_nonzero(self) -> Iterator[int]:
        words = self._words
        for page in sorted(self.nonzero_pages()):
            base = page * PAGE_WORDS
            limit = min(base + PAGE_WORDS, self.size)
            for address in range(base, limit):
                if words[address]:
                    yield address

    # -- checkpoint support (golden-run warm starts) ----------------------

    @property
    def n_pages(self) -> int:
        return (self.size + PAGE_WORDS - 1) // PAGE_WORDS

    def protected_range(self) -> Tuple[int, int]:
        """The current write-protect range (empty = (1, 0)); part of the
        checkpoint payload because :meth:`reset` clears protection."""
        return self._protected

    def start_dirty_tracking(self) -> None:
        """Begin recording which pages are written (via :meth:`write`
        and :meth:`poke`); the tracked set seeds checkpoint deltas."""
        self._track_dirty = True
        self._dirty_pages = set()

    def stop_dirty_tracking(self) -> None:
        self._track_dirty = False
        self._dirty_pages = set()

    def drain_dirty_pages(self) -> Set[int]:
        """Pages written since the previous drain; clears the set."""
        dirty = self._dirty_pages
        self._dirty_pages = set()
        return dirty

    def nonzero_pages(self) -> Set[int]:
        """Pages holding at least one non-zero word — the first
        checkpoint's page set (everything downloaded since reset).

        One ``tobytes`` of the whole store plus a memcmp-speed slice
        compare per page, instead of the former O(memory_size) per-word
        Python scan (kept as the regression-test oracle in
        ``tests/reference_core.py``)."""
        raw = self._words.tobytes()
        page_bytes = PAGE_WORDS * self._words.itemsize
        zero_page = bytes(page_bytes)
        pages: Set[int] = set()
        for page in range(self.n_pages):
            chunk = raw[page * page_bytes : (page + 1) * page_bytes]
            if chunk != zero_page and chunk.strip(b"\x00"):
                pages.add(page)
        return pages

    def read_page(self, page: int) -> Sequence[int]:
        """Full word image of one page as a typed ``array`` slice (short
        final page zero-padded to PAGE_WORDS so every stored page has
        uniform size)."""
        if not 0 <= page < self.n_pages:
            raise IllegalAddress(page * PAGE_WORDS, "read-page")
        base = page * PAGE_WORDS
        words = self._words[base : base + PAGE_WORDS]
        if len(words) < PAGE_WORDS:
            words.extend((0,) * (PAGE_WORDS - len(words)))
        return words

    def load_page(self, page: int, words: Sequence[int]) -> None:
        """Restore one page image (raw chip access: bypasses write
        protection, like :meth:`poke`). Accepts a typed ``array`` (the
        zero-copy checkpoint path) or any integer sequence."""
        if not 0 <= page < self.n_pages:
            raise IllegalAddress(page * PAGE_WORDS, "load-page")
        base = page * PAGE_WORDS
        count = min(PAGE_WORDS, self.size - base)
        image = words[:count]
        if not (
            isinstance(image, array)
            and image.typecode == self._words.typecode
        ):
            image = array(self._words.typecode, image)
        self._words[base : base + count] = image
        if self._track_dirty:
            self._dirty_pages.add(page)


class MemoryBus:
    """The data-bus pads between the chip and main memory.

    Every read the chip performs — cache line fills, uncached MMIO loads
    and instruction fetches — crosses these pads, which makes them the
    place where *pin-level* fault injection acts: boundary-scan EXTEST
    can force individual bus lines for a bounded number of transactions
    (RIFLE/MESSALINE-style forcing, armed through the boundary chain).

    Forced bits corrupt the value *before* the cache computes parity on
    the fill, so pin faults are parity-consistent and evade the cache
    parity mechanism — a genuine difference between pin-level faults and
    faults injected into the cache arrays themselves.
    """

    def __init__(self, memory: Memory):
        self.memory = memory
        self.force_mask = 0
        self.force_value = 0
        self.force_reads = 0

    def reset_force(self) -> None:
        self.force_mask = 0
        self.force_value = 0
        self.force_reads = 0

    def arm_force(self, mask: int, value: int, reads: int) -> None:
        """Force ``mask`` bus lines to ``value`` for the next ``reads``
        read transactions."""
        self.force_mask = mask & 0xFFFFFFFF
        self.force_value = value & 0xFFFFFFFF
        self.force_reads = reads

    @property
    def forcing(self) -> bool:
        return self.force_reads > 0 and self.force_mask != 0

    def read(self, address: int) -> int:
        value = self.memory.read(address)
        if self.forcing:
            value = (value & ~self.force_mask) | (
                self.force_value & self.force_mask
            )
            self.force_reads -= 1
        return value & 0xFFFFFFFF

    def write(self, address: int, value: int) -> None:
        self.memory.write(address, value)
