"""Golden-run disk cache: skip redundant reference executions.

Every campaign starts with a *golden* (reference) run — the fault-free
execution whose trace, duration, outputs and (since the warm-start
subsystem) checkpoint store everything else is derived from. The golden
run is a pure function of the campaign configuration: same target, same
workload, same parameters ⇒ byte-identical golden run. Repeated ``goofi
run`` invocations of an unchanged campaign, and every worker of a
parallel campaign, would each redo it from scratch.

:class:`GoldenRunCache` stores the golden run on disk keyed by the
campaign's config hash (:func:`repro.observability.runmeta
.campaign_config_hash` — a canonical digest of the *entire* campaign
record) folded with the tool version and the checkpoint format version,
so any configuration change — *or* any tool upgrade that could change
what a golden run contains or how its checkpoints are fingerprinted —
invalidates the entry automatically. Entries are pickled atomically
(write to a temp file, then ``os.replace``) so a crashed writer never
leaves a torn entry; a corrupt, stale or cross-version entry is treated
as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.checkpoint import CHECKPOINT_FORMAT, CheckpointStore
from repro.core.experiment import ReferenceRun

#: Bumped whenever the pickled layout of GoldenRun (or anything it
#: transitively contains) changes shape; old entries then miss cleanly.
CACHE_FORMAT = 2


@dataclass
class GoldenRun:
    """One cache entry: the reference run plus its checkpoint store,
    stamped with the campaign config hash, the target, and the tool /
    checkpoint-format versions that produced it (``None`` on entries
    pickled before versions were stamped — always a mismatch)."""

    config_hash: str
    target_name: str
    reference: ReferenceRun
    checkpoints: Optional[CheckpointStore] = None
    tool_version: Optional[str] = None
    checkpoint_format: Optional[int] = None


def campaign_golden_key(campaign) -> str:
    """Cache key for a campaign's golden run: the canonical config hash
    over the *bound* campaign record (compute it after the port's
    ``read_campaign_data`` so resolved fields are included), folded with
    the tool version and the checkpoint-format version.

    The version fold is load-bearing: a golden run pickled by an older
    tool can deserialise perfectly well yet carry checkpoints whose
    fingerprints were computed over a different state layout — silently
    adopting one would make every warm restore fall cold at best, or
    validate against the wrong digest at worst. A version bump must be a
    clean miss, exactly like a corrupt entry."""
    from repro.observability.runmeta import campaign_config_hash, tool_version

    base = campaign_config_hash(campaign)
    return hashlib.sha256(
        f"{base}:{tool_version()}:ckpt{CHECKPOINT_FORMAT}".encode("utf-8")
    ).hexdigest()


class GoldenRunCache:
    """Directory of pickled :class:`GoldenRun` entries, one per config
    hash. Attach to a port via ``port.golden_cache = GoldenRunCache(d)``
    (the CLI's ``--golden-cache`` flag does exactly this)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"golden-v{CACHE_FORMAT}-{key}.pickle"

    def load(self, key: Optional[str]) -> Optional[GoldenRun]:
        """The cached golden run for ``key``, or None. Corrupt,
        unreadable, mislabelled or cross-version entries count as
        misses (``getattr``: entries pickled before the version stamps
        existed deserialise without the attributes and must miss)."""
        if not key:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            return None
        if not isinstance(entry, GoldenRun) or entry.config_hash != key:
            self.misses += 1
            return None
        from repro.observability.runmeta import tool_version

        if (
            getattr(entry, "tool_version", None) != tool_version()
            or getattr(entry, "checkpoint_format", None) != CHECKPOINT_FORMAT
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, golden: GoldenRun) -> Path:
        """Atomically persist one golden run (temp file + rename),
        stamping it with the producing tool / checkpoint-format versions
        so :meth:`load` can refuse cross-version adoption."""
        from repro.observability.runmeta import tool_version

        golden.tool_version = tool_version()
        golden.checkpoint_format = CHECKPOINT_FORMAT
        path = self.path_for(golden.config_hash)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".golden-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(golden, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self.root.glob(f"golden-v{CACHE_FORMAT}-*.pickle"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(
            1 for _ in self.root.glob(f"golden-v{CACHE_FORMAT}-*.pickle")
        )
