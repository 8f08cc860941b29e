"""Golden-run checkpointing: warm-start state snapshots (dirty-page store).

GOOFI's Figure-2 building blocks re-execute every experiment from reset
and single-step the target to the injection instant, so a campaign of N
experiments pays N full pre-injection prefixes even though the
pre-injection trajectory is — by construction — identical to the golden
(reference) run. Fast-forwarding to the injection point instead of
re-simulating the prefix is the core speed trick of ZOFI (Porpodas,
2019) and of gem5 checkpoint-restore workflows; this module provides the
target-independent half of that trick:

* :class:`CheckpointTick` — what a port's ``capture_checkpoint()``
  building block returns: a full snapshot of the small state (CPU
  registers, pipeline latches, cache arrays, traps, scan-chain image,
  environment-simulator state) plus **only the memory pages dirtied
  since the previous checkpoint**;
* :class:`CheckpointStore` — an append-only store of ticks along the
  reference run. Memory is delta-encoded: each tick stores full page
  images only for pages that changed, and :meth:`CheckpointStore.
  restore_image` reconstructs the cumulative page set for any checkpoint
  by replaying the deltas in order (later deltas win). A 1000-checkpoint
  store over a workload that touches a handful of pages therefore stays
  bounded by *pages touched*, not *checkpoints × address space*;
* :func:`state_digest` — a canonical structural hash used as the
  restore fingerprint: a port recomputes the digest over its live state
  after a restore and falls back to a cold start on any mismatch
  (:class:`CheckpointMismatch`), so warm starts can never silently
  diverge from the cold path.

The per-experiment RNG substreams (:class:`repro.util.rng.
CampaignRandom`) are derived from ``(seed, index)`` and never advanced
across experiments, so RNG state needs no capture: experiment *i* draws
the same fault whether its prefix was simulated or restored.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.errors import CampaignError

__all__ = [
    "CHECKPOINT_FORMAT",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "MAX_CHECKPOINTS",
    "PAGE_WORDS",
    "CheckpointMismatch",
    "CheckpointStore",
    "CheckpointTick",
    "RestoreImage",
    "state_digest",
]

#: Version of the checkpoint payload/fingerprint layout. Bumped whenever
#: what a tick captures (or how its fingerprint is computed) changes, so
#: persisted golden runs from an older layout miss cleanly instead of
#: tripping restore-time mismatches. v2: fingerprints cover the full CPU
#: snapshot (pipeline force flags, last-executed-instruction record) in
#: addition to the scan-visible cells, making digest equality total with
#: respect to future execution — the divergence-window soundness
#: requirement. v3: bulk payloads (memory pages, cache arrays, scan-chain
#: captures) travel as typed ``array`` buffers hashed via ``tobytes`` —
#: a different canonical encoding than the v2 int-list walk, so v2
#: stores miss cleanly through the golden-cache key. v4: the CPU
#: snapshot is a few typed arrays (registers, one scalar array, one
#: array per cache field) instead of nested per-line tuples. v5: the
#: scalar array no longer carries the last instruction's (always empty)
#: register-access tuples.
CHECKPOINT_FORMAT = 5

#: Words per memory page in the dirty-page delta encoding (2^8 words —
#: small enough that a sparse workload dirties few pages, large enough
#: that the page table stays tiny for a 64Ki-word address space).
PAGE_WORDS = 256

#: Default capture cadence along the reference run, in target cycles.
#: The expected fast-forward saving per experiment is ~interval/2 cycles
#: of re-simulation; 512 keeps the store small while bounding the warm
#: prefix replay to at most one interval.
DEFAULT_CHECKPOINT_INTERVAL = 512

#: Hard cap on checkpoints per reference run, so a pathological cadence
#: against a long workload cannot exhaust memory. Past the cap the
#: reference run simply stops capturing and runs to termination.
MAX_CHECKPOINTS = 1024


class CheckpointMismatch(CampaignError):
    """A restored target's fingerprint disagrees with the checkpoint's.

    Raised by a port's ``restore_checkpoint()`` when the recomputed
    :func:`state_digest` over the live post-restore state does not match
    the digest captured along the reference run. The algorithm layer
    treats this as a *cold fall*: the experiment silently restarts from
    reset, trading speed for guaranteed fidelity.
    """


def state_digest(parts: Any) -> str:
    """Canonical sha256 digest of a nested structure of plain state.

    Accepts ``None``, bools, ints, strings, bytes, typed ``array``
    buffers, lists/tuples and dicts (keys sorted, so insertion order
    never leaks into the fingerprint). Typed arrays — the dominant
    payload: memory pages, the CPU snapshot's registers, scalars and
    cache arrays (checkpoint format v4), scan-chain captures — enter as
    their ``tobytes``; integer lists take a packed fast path. Every node
    is type-tagged so e.g. ``0`` and ``False`` and ``""`` cannot
    collide. The encoding is collected and hashed in one ``update``.
    """
    chunks: List[bytes] = []
    _encode(chunks, parts)
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def _array_chunks(buffer: array) -> Tuple[bytes, ...]:
    # The typecode is part of the tag so e.g. array("I") and array("Q")
    # holding equal values stay distinct, mirroring the type-tagging of
    # every other node.
    return (
        b"\x00A",
        buffer.typecode.encode("ascii"),
        b"%d" % len(buffer),
        buffer.tobytes(),
    )


def _encode(chunks: List[bytes], obj: Any) -> None:
    # Most frequent node types first; bool before int (bool is an int).
    if isinstance(obj, dict):
        chunks += (b"\x00D", b"%d" % len(obj))
        for key in sorted(obj):
            # The usual string key and array value (a snapshot is
            # mostly those) are encoded inline, to the same bytes.
            if type(key) is str:
                chunks += (b"\x00S", key.encode("utf-8"))
            else:
                _encode(chunks, key)
            value = obj[key]
            if type(value) is array:
                chunks += _array_chunks(value)
            else:
                _encode(chunks, value)
    elif isinstance(obj, array):
        chunks += _array_chunks(obj)
    elif isinstance(obj, bool):
        chunks.append(b"\x00b1" if obj else b"\x00b0")
    elif isinstance(obj, int):
        chunks += (b"\x00I", b"%d" % obj)
    elif obj is None:
        chunks.append(b"\x00N")
    elif isinstance(obj, str):
        chunks += (b"\x00S", obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        chunks += (b"\x00B", obj)
    elif isinstance(obj, (list, tuple)):
        chunks += (b"\x00L", b"%d" % len(obj))
        if obj and all(type(item) is int for item in obj):
            chunks += (b"A", array("q", obj).tobytes())
        else:
            for item in obj:
                _encode(chunks, item)
    else:
        raise TypeError(
            f"state_digest cannot hash {type(obj).__name__!r} values"
        )


@dataclass
class CheckpointTick:
    """One captured snapshot along the reference run.

    ``payload`` holds the small dense state (whatever the port's
    ``capture_checkpoint`` decides: CPU scalars, cache arrays, pickled
    environment-simulator blob, memory-protection range …) — it is
    stored in full at every tick. ``dirty_pages`` maps page index to the
    page's full word image, and contains **only pages written since the
    previous tick** (for the first tick: every page that is non-zero or
    was written since reset). ``fingerprint`` is the
    :func:`state_digest` the port computed over the live state at
    capture time; restores verify against it. ``core_fingerprint`` is an
    optional cheap digest over a strict *subset* of the fingerprinted
    state (for Thor: the CPU core without memory pages or scan chains) —
    the divergence-window runner compares it first and only pays the
    full-state digest once the cores already agree, since a subset
    mismatch proves a full mismatch (checkpoint format v2).
    """

    cycle: int
    payload: Dict[str, Any]
    dirty_pages: Dict[int, Sequence[int]] = field(default_factory=dict)
    fingerprint: str = ""
    core_fingerprint: str = ""


@dataclass
class RestoreImage:
    """What a port's ``restore_checkpoint()`` receives: the checkpoint's
    dense payload plus the *cumulative* page set reconstructed by
    replaying the dirty-page deltas of every tick up to and including
    the chosen one. Pages absent from ``pages`` were never written and
    are all-zero by the reset contract."""

    cycle: int
    payload: Dict[str, Any]
    pages: Dict[int, Sequence[int]]
    fingerprint: str = ""


class CheckpointStore:
    """Append-only store of checkpoints along one reference run.

    Cycles must be appended in strictly increasing order (the reference
    run only moves forward); :meth:`nearest` then resolves "the latest
    checkpoint at or before injection time *t*" with a bisect, and
    :meth:`restore_image` materialises the cumulative memory image for a
    checkpoint by replaying the dirty-page deltas in capture order.
    """

    def __init__(self, context: str = "", page_words: int = PAGE_WORDS):
        if page_words <= 0:
            raise CampaignError("page_words must be positive")
        self.context = context
        self.page_words = page_words
        self._cycles: List[int] = []
        self._ticks: List[CheckpointTick] = []

    def __len__(self) -> int:
        return len(self._ticks)

    @property
    def cycles(self) -> List[int]:
        return list(self._cycles)

    def append(self, tick: CheckpointTick) -> None:
        if self._cycles and tick.cycle <= self._cycles[-1]:
            raise CampaignError(
                f"checkpoint cycles must increase: {tick.cycle} after "
                f"{self._cycles[-1]}"
            )
        for page, words in tick.dirty_pages.items():
            if len(words) != self.page_words:
                raise CampaignError(
                    f"page {page} has {len(words)} words, "
                    f"expected {self.page_words}"
                )
        self._cycles.append(tick.cycle)
        self._ticks.append(tick)

    def tick(self, index: int) -> CheckpointTick:
        return self._ticks[index]

    def nearest(self, cycle: int) -> Optional[int]:
        """Index of the latest checkpoint with ``tick.cycle <= cycle``,
        or None when the store is empty or every tick is later."""
        position = bisect_right(self._cycles, cycle) - 1
        return position if position >= 0 else None

    def nearest_before(self, cycle: int) -> Optional[int]:
        """Index of the latest checkpoint with ``tick.cycle < cycle``
        (strictly before), or None when no tick qualifies.

        This is the warm-restore lookup: restoring a checkpoint captured
        *at* the injection cycle would land the target on the injection
        instant and skip that cycle's trigger/pre-injection evaluation,
        so restores must approach the injection time from strictly
        earlier state."""
        position = bisect_left(self._cycles, cycle) - 1
        return position if position >= 0 else None

    def first_after(self, cycle: int) -> Optional[int]:
        """Index of the earliest checkpoint with ``tick.cycle > cycle``
        (strictly after), or None when every tick is at or before. The
        divergence-window runner uses this to find the first golden tick
        worth probing once injection is done."""
        position = bisect_right(self._cycles, cycle)
        return position if position < len(self._cycles) else None

    def restore_image(self, index: int) -> RestoreImage:
        """Reconstruct the cumulative restore image for checkpoint
        ``index`` by replaying dirty-page deltas 0..index (later deltas
        win, exactly mirroring the write order along the reference
        run)."""
        if not 0 <= index < len(self._ticks):
            raise CampaignError(f"no checkpoint at index {index}")
        pages: Dict[int, Sequence[int]] = {}
        for tick in self._ticks[: index + 1]:
            pages.update(tick.dirty_pages)
        chosen = self._ticks[index]
        return RestoreImage(
            cycle=chosen.cycle,
            payload=chosen.payload,
            pages=pages,
            fingerprint=chosen.fingerprint,
        )

    # -- accounting (docs, benchmarks, progress reporting) -----------------

    def stats(self) -> Dict[str, int]:
        """Size accounting: checkpoints, delta pages stored, distinct
        pages ever dirtied, and delta-encoded words held."""
        delta_pages = sum(len(t.dirty_pages) for t in self._ticks)
        unique: set = set()
        for tick in self._ticks:
            unique.update(tick.dirty_pages)
        return {
            "checkpoints": len(self._ticks),
            "delta_pages": delta_pages,
            "unique_pages": len(unique),
            "delta_words": delta_pages * self.page_words,
        }

    def span(self) -> Tuple[int, int]:
        """(first, last) captured cycle; (0, 0) when empty."""
        if not self._cycles:
            return (0, 0)
        return (self._cycles[0], self._cycles[-1])
