"""Outside-in span recording for the goofibench traced rep.

Nothing in ``src/`` is instrumented for this: the recorder wraps public
calls from outside. The algorithm layer calls ``self.<block>()``, so an
instance attribute on the target replaces a building block for that
target only. The same is done to the sink's :class:`GoofiDatabase`
methods, to ``.partition`` on the oracle that
``build_preinjection_analysis`` returns, and to
:meth:`CheckpointStore.restore_image`.

A span is ``[name, start_ns, end_ns, parent, experiment_index, cycles]``.
Spans stay in memory and are written as JSON lines when the rep ends.
A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.checkpoint import CheckpointStore

#: Target building block -> span name (:data:`LAYER_OF` says which
#: layer a span's self time is charged to where that differs).
TARGET_BLOCKS = {
    "prepare_run": "setup",
    "capture_checkpoint": "capture",
    "build_preinjection_analysis": "oracle",
    "plan_experiment": "plan",
    "run_single_experiment": "experiment",
    "restore_checkpoint": "restore",
    "init_test_card": "prefix",
    "load_workload": "prefix",
    "write_memory": "prefix",
    "run_workload": "prefix",
    "wait_for_breakpoint": "simulate",
    "wait_for_termination": "simulate",
    "read_scan_chain": "scan.read",
    "inject_fault": "scan.inject",
    "write_scan_chain": "scan.write",
    "capture_core_digest": "digest.core",
    "capture_state_digest": "digest.full",
    "read_memory": "observe",
    "capture_state_vector": "observe",
}

#: Sink methods -> span name (``sink.row`` is one logged experiment row).
DB_METHODS = {
    "log_experiment": "sink.row",
    "log_reference": "sink",
    "save_campaign": "sink",
    "record_run_start": "sink",
    "record_run_end": "sink",
}

#: Span name -> the layer its self time is charged to, where they differ.
#: Inside ``setup`` everything but capture and the oracle build is the
#: reference run; the campaign loop and the controller are unattributed.
LAYER_OF = {
    "restore.image": "restore",
    "digest.core": "digest",
    "digest.full": "digest",
    "sink.row": "sink",
    "experiment": "unattributed",
    "campaign": "unattributed",
}
SETUP_LAYERS = ("capture", "oracle")

_RESTORE_IMAGE = CheckpointStore.restore_image

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "plan", "partition", "reference", "capture", "oracle", "restore",
    "prefix", "simulate", "scan.read", "scan.inject", "scan.write",
    "digest", "observe", "sink", "unattributed",
)


class SpanRecorder:
    """Records nested spans of wrapped calls (one thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Experiment index the next span belongs to (None in set-up).
        self.index: Optional[int] = None

    def wrap(
        self,
        name: str,
        fn: Callable,
        index_of: Optional[Callable] = None,
        cycles_of: Optional[Callable[[], int]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``. ``index_of(args)`` names the
        experiment the call starts; ``cycles_of()`` reads a counter
        whose growth across the call is stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if index_of is not None:
                self.index = index_of(args)
            before = cycles_of() if cycles_of is not None else None
            span = [name, 0, 0, stack[-1] if stack else None, self.index, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if before is not None:
                    span[5] = cycles_of() - before

        return wrapper

    def install(self, target, db) -> None:
        """Wrap ``target``'s building blocks and ``db``'s sink methods."""
        for block, name in TARGET_BLOCKS.items():
            fn = getattr(target, block)
            if block in ("plan_experiment", "run_single_experiment"):
                wrapped = self.wrap(name, fn, index_of=lambda args: args[0])
            elif name == "simulate":
                wrapped = self.wrap(
                    name, fn, cycles_of=lambda: target.card.cpu.cycles
                )
            elif block == "build_preinjection_analysis":
                wrapped = self.wrap(name, self._wrap_partition(fn))
            else:
                wrapped = self.wrap(name, fn)
            setattr(target, block, wrapped)
        for method, name in DB_METHODS.items():
            index_of = (lambda args: args[1].index) if name == "sink.row" else None
            setattr(db, method, self.wrap(name, getattr(db, method), index_of))
        # The store is built inside the reference run, so its method is
        # wrapped on the class; uninstall() puts the original back.
        CheckpointStore.restore_image = self.wrap(  # type: ignore[method-assign]
            "restore.image", _RESTORE_IMAGE
        )

    @staticmethod
    def uninstall() -> None:
        """Undo the class-level wrap of :meth:`install`."""
        CheckpointStore.restore_image = _RESTORE_IMAGE  # type: ignore[method-assign]

    def _wrap_partition(self, build: Callable) -> Callable:
        def build_and_wrap(*args, **kwargs):
            oracle = build(*args, **kwargs)
            if hasattr(oracle, "partition"):
                oracle.partition = self.wrap("partition", oracle.partition)
            return oracle

        return build_and_wrap

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, index, cycles in self.spans:
                record = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "index": index,
                }
                if cycles is not None:
                    record["cycles"] = cycles
                handle.write(json.dumps(record) + "\n")


def self_times_ns(spans: List[list]) -> List[int]:
    """Duration minus the direct children's durations, per span."""
    children = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] += end - start
    return [end - start - children[i] for i, (_, start, end, *_) in enumerate(spans)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[list],
    counters: Dict[str, float],
    n_experiments: int,
    bytes_per_row: float,
    analysis_s: float,
    analysis_rows: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign.

    Spans inside ``setup`` (the campaign's ``prepare_run``) are charged
    to the set-up layers only, so the experiment-phase layers account
    for exactly the time ``exp_per_s`` measures. ``_self_sum_s`` is the
    sum of every span's self time, for the check against the wall."""
    self_ns = self_times_ns(spans)
    in_setup: List[bool] = []
    layer_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    cycles = 0
    for i, (name, _, _, parent, _, span_cycles) in enumerate(spans):
        setup = name == "setup" or (parent is not None and in_setup[parent])
        in_setup.append(setup)
        if setup and name not in SETUP_LAYERS:
            layer = "reference"
        else:
            layer = LAYER_OF.get(name, name)
            calls[name] = calls.get(name, 0) + 1
            if span_cycles is not None:
                cycles += span_cycles
        layer_ns[layer] = layer_ns.get(layer, 0) + self_ns[i]
    layer_s = {layer: ns / 1e9 for layer, ns in layer_ns.items()}
    memo_hits = counters.get("divergence.memo_hits", 0)
    executed = calls.get("experiment", 0) - memo_hits
    metrics = {f"{layer}.self_s": layer_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    metrics.update(
        {
            "plan.calls": calls.get("plan", 0),
            "equivalence.derived_frac": _ratio(
                counters.get("equivalence.collapsed", 0), n_experiments
            ),
            "capture.calls": calls.get("capture", 0),
            "restore.calls": calls.get("restore", 0),
            "restore.hit_frac": _ratio(counters.get("checkpoint.hits", 0), executed),
            "simulate.calls": calls.get("simulate", 0),
            "simulate.cycles": cycles,
            "simulate.cycles_per_s": _ratio(cycles, layer_s.get("simulate", 0.0)),
            "scan.calls": calls.get("scan.read", 0),
            "digest.core.calls": calls.get("digest.core", 0),
            "digest.full.calls": calls.get("digest.full", 0),
            "digest.exit_frac": _ratio(
                counters.get("divergence.early_exits", 0),
                counters.get("divergence.full_digests", 0),
            ),
            "memo.hit_frac": _ratio(
                memo_hits, memo_hits + counters.get("divergence.memo_inserts", 0)
            ),
            "observe.calls": calls.get("observe", 0),
            "sink.rows": calls.get("sink.row", 0),
            "sink.bytes_per_row": bytes_per_row,
            "analysis.self_s": analysis_s,
            "analysis.rows_per_s": _ratio(analysis_rows, analysis_s),
            "_self_sum_s": sum(self_ns) / 1e9,
        }
    )
    return metrics
