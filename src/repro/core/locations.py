"""Fault-location spaces and the hierarchical location tree.

A *fault location* is one bit of one state element in one address space of
the target:

* ``scan:internal`` / ``scan:boundary`` — bits of scan-chain cells
  (SCIFI reaches these),
* ``memory:code`` / ``memory:data`` — bits of words in the downloaded
  workload image (pre-runtime SWIFI reaches these),
* ``sim:*`` — anything the simulation-based baseline can touch directly.

The set-up window of Figure 6 presents "a hierarchical list of possible
locations"; :class:`LocationTree` reproduces that hierarchy by splitting
cell paths on dots, and campaign definitions select locations with glob
patterns over ``space/path`` (e.g. ``scan:internal/cpu.regfile.*``).
"""

from __future__ import annotations

import fnmatch
import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class FaultLocation:
    """One injectable bit."""

    space: str
    path: str
    bit: int

    def key(self) -> str:
        return f"{self.space}/{self.path}[{self.bit}]"

    @staticmethod
    def parse(key: str) -> "FaultLocation":
        try:
            space, rest = key.split("/", 1)
            path, bit_text = rest.rsplit("[", 1)
            bit = int(bit_text.rstrip("]"))
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(f"bad location key {key!r}") from exc
        return FaultLocation(space=space, path=path, bit=bit)


@dataclass(frozen=True)
class LocationCell:
    """One state element: a named group of ``width`` injectable bits."""

    space: str
    path: str
    width: int
    read_only: bool = False

    def locations(self) -> List[FaultLocation]:
        return [FaultLocation(self.space, self.path, b) for b in range(self.width)]

    @property
    def full_path(self) -> str:
        return f"{self.space}/{self.path}"


@functools.lru_cache(maxsize=256)
def _glob_matcher(patterns: Tuple[str, ...]) -> Callable[[str], object]:
    """One compiled regex matching any of the glob ``patterns`` with
    :func:`fnmatch.fnmatchcase` semantics."""
    return re.compile(
        "|".join(f"(?:{fnmatch.translate(pattern)})" for pattern in patterns)
    ).match


class LocationSpace:
    """All injectable state of one target, with pattern-based selection."""

    def __init__(self, cells: Sequence[LocationCell]):
        self._cells: List[LocationCell] = list(cells)
        self._by_path: Dict[str, LocationCell] = {}
        for cell in self._cells:
            full_path = cell.full_path
            if full_path in self._by_path:
                raise ConfigurationError(f"duplicate cell {full_path!r}")
            self._by_path[full_path] = cell
        # Unique by construction, in cell order.
        self._full_paths: List[str] = list(self._by_path)

    def cells(self) -> List[LocationCell]:
        return list(self._cells)

    def cell(self, space: str, path: str) -> LocationCell:
        cell = self._by_path.get(f"{space}/{path}")
        if cell is None:
            raise ConfigurationError(f"unknown cell {space}/{path}")
        return cell

    def total_bits(self, writable_only: bool = True) -> int:
        return sum(
            c.width
            for c in self._cells
            if not (writable_only and c.read_only)
        )

    def select_cells(
        self, patterns: Sequence[str], writable_only: bool = True
    ) -> List[LocationCell]:
        """Cells matching any ``space/path`` glob pattern, in space order."""
        if not patterns:
            return []
        match = _glob_matcher(tuple(patterns))
        return [
            cell
            for cell, full_path in zip(self._cells, self._full_paths)
            if not (writable_only and cell.read_only) and match(full_path)
        ]

    def expand(
        self, patterns: Sequence[str], writable_only: bool = True
    ) -> List[FaultLocation]:
        """All injectable bit locations matching the patterns."""
        locations: List[FaultLocation] = []
        for cell in self.select_cells(patterns, writable_only=writable_only):
            locations.extend(cell.locations())
        if not locations:
            raise ConfigurationError(
                f"no injectable locations match patterns {list(patterns)!r}"
            )
        return locations

    def validate_selection(self, patterns: Sequence[str]) -> None:
        """Raise if the selection matches nothing or only read-only cells
        (read-only scan locations 'can only be used to observe the state',
        paper Section 3.1)."""
        matched_any = self.select_cells(patterns, writable_only=False)
        if not matched_any:
            raise ConfigurationError(
                f"patterns {list(patterns)!r} match no cells of this target"
            )
        writable = self.select_cells(patterns, writable_only=True)
        if not writable:
            raise ConfigurationError(
                f"patterns {list(patterns)!r} match only read-only "
                "(observe-only) locations"
            )

    def tree(self) -> "LocationTree":
        return LocationTree.from_cells(self._cells)


#: Path of a ``swreg`` (software-visible register) cell.
SWREG_PATH_RE = re.compile(r"^cpu\.regfile\.r(\d+)$")

#: ``(state-vector key, position in the chain's read_values, reader)``
ObservedScanCell = Tuple[str, int, Callable[[], int]]


@dataclass(frozen=True)
class ObservationPlan:
    """A campaign's observed cells, resolved once to how they are read.

    Scan cells are grouped by chain, each with its position in
    :meth:`~repro.thor.scanchain.ScanChain.read_values` order and its
    direct reader; memory cells carry their decoded word address and
    ``swreg`` cells their register index. :meth:`capture` is then a walk
    over plain tuples, with no path parsing per observation. Grouping
    keeps the cells' space order, because a location space lists each
    chain's cells, then memory, then registers, contiguously."""

    chains: Tuple[Tuple[str, Tuple[ObservedScanCell, ...]], ...] = ()
    memory: Tuple[Tuple[str, int], ...] = ()
    registers: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def build(cells: Sequence[LocationCell], chains) -> "ObservationPlan":
        """Resolve ``cells`` against ``chains`` (chain name ->
        :class:`~repro.thor.scanchain.ScanChain`) with dict lookups only."""
        by_chain: Dict[str, List[ObservedScanCell]] = {}
        memory: List[Tuple[str, int]] = []
        registers: List[Tuple[str, int]] = []
        for cell in cells:
            key = cell.full_path
            if cell.space.startswith("scan:"):
                name = cell.space.split(":", 1)[1]
                chain = chains[name]
                by_chain.setdefault(name, []).append(
                    (key, chain.index(cell.path), chain.cell(cell.path).reader)
                )
            elif cell.space.startswith("memory:"):
                memory.append((key, int(cell.path.split("0x", 1)[1], 16)))
            elif cell.space == "swreg":
                match = SWREG_PATH_RE.match(cell.path)
                if match:
                    registers.append((key, int(match.group(1))))
        return ObservationPlan(
            chains=tuple(
                (name, tuple(observed)) for name, observed in by_chain.items()
            ),
            memory=tuple(memory),
            registers=tuple(registers),
        )

    def capture(
        self,
        read_memory: Callable[[int], int],
        read_register: Optional[Callable[[int], int]] = None,
        read_chain_values: Optional[Callable[[str], List[int]]] = None,
    ) -> Dict[str, int]:
        """The state vector. With ``read_chain_values`` every observed
        chain is shifted out once, in full, and its cells are picked by
        position; without it each scan cell's reader is called directly,
        with no scan access (the simulation baseline, design decision
        D3)."""
        vector: Dict[str, int] = {}
        for name, observed in self.chains:
            if read_chain_values is None:
                for key, _, reader in observed:
                    vector[key] = reader()
            else:
                values = read_chain_values(name)
                for key, index, _ in observed:
                    vector[key] = values[index]
        for key, address in self.memory:
            vector[key] = read_memory(address)
        if self.registers:
            assert read_register is not None
            for key, register in self.registers:
                vector[key] = read_register(register)
        return vector


@dataclass
class LocationTree:
    """Hierarchical view of a location space (the Figure 6 list).

    Nodes are keyed by path component; a leaf carries its
    :class:`LocationCell`.
    """

    name: str = ""
    cell: Optional[LocationCell] = None
    children: Dict[str, "LocationTree"] = field(default_factory=dict)

    @staticmethod
    def from_cells(cells: Iterable[LocationCell]) -> "LocationTree":
        root = LocationTree(name="target")
        for cell in cells:
            parts = [cell.space] + cell.path.split(".")
            node = root
            for part in parts:
                node = node.children.setdefault(part, LocationTree(name=part))
            node.cell = cell
        return root

    def leaf_cells(self) -> List[LocationCell]:
        cells: List[LocationCell] = []
        if self.cell is not None:
            cells.append(self.cell)
        for child in self.children.values():
            cells.extend(child.leaf_cells())
        return cells

    def subtree(self, dotted: str) -> "LocationTree":
        node = self
        for part in dotted.split("."):
            if part not in node.children:
                raise ConfigurationError(f"no tree node {dotted!r}")
            node = node.children[part]
        return node

    def render(self, indent: int = 0, show_bits: bool = False) -> str:
        """ASCII rendering used by the campaign set-up window."""
        lines: List[str] = []
        pad = "  " * indent
        label = self.name or "target"
        if self.cell is not None:
            ro = " [read-only]" if self.cell.read_only else ""
            label += f"  ({self.cell.width} bits){ro}"
        lines.append(pad + label)
        for key in sorted(self.children):
            lines.append(self.children[key].render(indent + 1, show_bits))
        return "\n".join(lines)
