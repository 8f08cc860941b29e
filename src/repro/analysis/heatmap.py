"""Location × time heatmaps of campaign outcomes and error propagation.

Two streaming accumulators behind the analytics engine:

* :class:`OutcomeHeatmap` — one cell per (fault-location cell, injection
  -time bin), counting experiments, effective errors and detections.
  Answers "*where and when* do injected faults bite?" for normal-mode
  campaigns (the fault-space view the paper's analysis phase leaves to
  tailor-made scripts).
* :class:`PropagationHeatmap` — built from E8-style detail rows
  (per-instruction state logs): one cell per (architectural state cell,
  execution-time bin), counting how often that cell was *infected*
  (differed from the reference) in that window. This is the
  location×time error-propagation picture of
  :mod:`repro.analysis.propagation`, aggregated over many traces.

Both are O(rows × bins) in memory regardless of campaign size, render
to compact ASCII grids, and serialise deterministically (rows ordered
by activity, then name) so two reports of the same rows compare equal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.classify import diff_state_vectors

__all__ = ["OutcomeHeatmap", "PropagationHeatmap"]

#: Density ramp for ASCII rendering (index by fraction of the max).
_RAMP = " .:-=+*#%@"


def _bin_index(value: int, max_value: int, n_bins: int) -> int:
    """Clamp ``value`` in [0, max_value] into one of ``n_bins`` bins."""
    if value <= 0:
        return 0
    if value >= max_value:
        return n_bins - 1
    return min(n_bins - 1, value * n_bins // (max_value + 1))


def _cell_of(location_key: str) -> str:
    """Fold a bit-level location key to its state cell (drop ``[bit]``)."""
    head, _, _ = location_key.rpartition("[")
    return head or location_key


def _render_grid(
    title: str,
    rows: List[Tuple[str, List[int]]],
    n_bins: int,
    legend: str,
) -> str:
    peak = max((max(counts) for _, counts in rows), default=0)
    lines = [title]
    if not rows or peak == 0:
        lines.append("  (no data)")
        return "\n".join(lines)
    width = max(len(label) for label, _ in rows)
    for label, counts in rows:
        cells = "".join(
            _RAMP[min(len(_RAMP) - 1, count * (len(_RAMP) - 1) // peak)]
            for count in counts
        )
        lines.append(f"  {label:{width}s} |{cells}|")
    lines.append(f"  {'':{width}s} +{'-' * n_bins}+  {legend} (peak {peak})")
    return "\n".join(lines)


class OutcomeHeatmap:
    """Streaming (location cell × injection-time bin) outcome counts."""

    def __init__(
        self, max_time: int, time_bins: int = 12, max_rows: int = 16
    ) -> None:
        self.max_time = max(1, int(max_time))
        self.time_bins = max(1, int(time_bins))
        self.max_rows = max(1, int(max_rows))
        #: row label -> (counts, effective, detected) per time bin
        self._rows: Dict[str, Tuple[List[int], List[int], List[int]]] = {}

    def add(
        self,
        location_key: str,
        time: int,
        effective: bool,
        detected: bool,
    ) -> None:
        label = _cell_of(location_key)
        row = self._rows.get(label)
        if row is None:
            row = (
                [0] * self.time_bins,
                [0] * self.time_bins,
                [0] * self.time_bins,
            )
            self._rows[label] = row
        column = _bin_index(time, self.max_time, self.time_bins)
        row[0][column] += 1
        if effective:
            row[1][column] += 1
        if detected:
            row[2][column] += 1

    def _ordered(self) -> List[Tuple[str, Tuple[List[int], List[int], List[int]]]]:
        return sorted(
            self._rows.items(), key=lambda item: (-sum(item[1][0]), item[0])
        )[: self.max_rows]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "outcome",
            "time_bins": self.time_bins,
            "max_time": self.max_time,
            "n_locations": len(self._rows),
            "rows": {
                label: {
                    "counts": list(counts),
                    "effective": list(effective),
                    "detected": list(detected),
                }
                for label, (counts, effective, detected) in self._ordered()
            },
        }

    def render(self) -> str:
        rows = [(label, row[1]) for label, row in self._ordered()]
        title = (
            f"effective errors by location x injection time "
            f"({self.time_bins} bins over {self.max_time} cycles, "
            f"top {len(rows)} of {len(self._rows)} locations)"
        )
        return _render_grid(title, rows, self.time_bins, "effective count")


class PropagationHeatmap:
    """Aggregated infection counts per (state cell × execution-time bin).

    Each detail-mode trace contributes one sample per compared step:
    every cell that differs from the reference at that step increments
    its (cell, bin) bucket, with the step position normalised to the
    trace's own compared length so traces of different lengths align.
    """

    def __init__(self, time_bins: int = 12, max_rows: int = 16) -> None:
        self.time_bins = max(1, int(time_bins))
        self.max_rows = max(1, int(max_rows))
        self.n_traces = 0
        self._rows: Dict[str, List[int]] = {}

    def add_trace(
        self,
        reference_states: Sequence[Dict[str, int]],
        experiment_states: Sequence[Dict[str, int]],
    ) -> None:
        steps = min(len(reference_states), len(experiment_states))
        if steps == 0:
            return
        self.n_traces += 1
        for step in range(steps):
            diffs = diff_state_vectors(
                reference_states[step], experiment_states[step]
            )
            if not diffs:
                continue
            column = _bin_index(step, steps - 1, self.time_bins)
            for cell in diffs:
                row = self._rows.get(cell)
                if row is None:
                    row = [0] * self.time_bins
                    self._rows[cell] = row
                row[column] += 1

    def _ordered(self) -> List[Tuple[str, List[int]]]:
        return sorted(
            self._rows.items(), key=lambda item: (-sum(item[1]), item[0])
        )[: self.max_rows]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "propagation",
            "time_bins": self.time_bins,
            "n_traces": self.n_traces,
            "n_cells": len(self._rows),
            "rows": {
                label: list(counts) for label, counts in self._ordered()
            },
        }

    def render(self) -> str:
        rows = self._ordered()
        title = (
            f"error propagation: infected state cells x execution time "
            f"({self.n_traces} detail traces, top {len(rows)} of "
            f"{len(self._rows)} cells)"
        )
        return _render_grid(title, rows, self.time_bins, "infection count")
