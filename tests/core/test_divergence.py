"""Tests for divergence-window execution and outcome memoization
(repro.core.divergence + the algorithm-layer integration).

Covers the memo table's hit/miss/merge/drain mechanics, the memo key's
sensitivity to restore state and injection delta, the divergence
window's early-exit behaviour on the real Thor target (byte-identical
to full-tail execution, observable through the ``divergence.*``
counters, disabled by the ``early_exit`` knob), the warm-restore
strict-boundary regression (injection pinned exactly on checkpoint
cadence), and memo sharing across parallel workers.
"""

import multiprocessing

import pytest

from repro.core import create_target
from repro.core.divergence import (
    MemoEntry,
    OutcomeMemo,
    memo_key,
    plan_delta,
)
from repro.core.experiment import ExperimentResult, Termination
from repro.core.faultmodels import InjectionAction, InjectionPlan
from repro.core.locations import FaultLocation
from repro.core.triggers import TriggerSpec
from repro.observability import configure, disable, get_observability
from tests.conftest import make_campaign


def loc(path="cpu.regfile.r1", bit=0):
    return FaultLocation(space="scan:internal", path=path, bit=bit)


def plan(time=100, bit=0, op="flip", path="cpu.regfile.r1"):
    return InjectionPlan(
        actions=[
            InjectionAction(time=time, locations=(loc(path, bit),), op=op)
        ]
    )


def entry(kind="halt", outputs=None):
    return MemoEntry(
        termination={"kind": kind, "pc": 0, "cycle": 9, "iterations": 1,
                     "trap_name": None, "trap_detail": None,
                     "trap_code": None},
        outputs=dict(outputs or {"0x100": 7}),
        state_vector={"r1": 1},
        injections=[{"time": 100, "location": loc().key(), "op": "flip",
                     "bit_before": 0, "bit_after": 1}],
    )


class TestMemoKey:
    def test_same_plan_same_key(self):
        assert memo_key("abc", plan()) == memo_key("abc", plan())

    def test_restore_digest_distinguishes(self):
        assert memo_key("abc", plan()) != memo_key("def", plan())
        # None canonicalises to the cold sentinel, stably.
        assert memo_key(None, plan()) == memo_key(None, plan())
        assert memo_key(None, plan()) != memo_key("abc", plan())

    def test_delta_distinguishes_time_op_location(self):
        base = memo_key("abc", plan())
        assert memo_key("abc", plan(time=101)) != base
        assert memo_key("abc", plan(bit=1)) != base
        assert memo_key("abc", plan(op="stuck0")) != base
        assert memo_key("abc", plan(path="cpu.regfile.r2")) != base

    def test_delta_is_canonical(self):
        a = FaultLocation(space="scan:internal", path="cpu.regfile.r1", bit=0)
        b = FaultLocation(space="scan:internal", path="cpu.regfile.r2", bit=3)
        p1 = InjectionPlan(
            actions=[InjectionAction(time=50, locations=(a, b))]
        )
        p2 = InjectionPlan(
            actions=[InjectionAction(time=50, locations=(b, a))]
        )
        assert plan_delta(p1) == plan_delta(p2)
        assert memo_key("x", p1) == memo_key("x", p2)


class TestOutcomeMemo:
    def test_lookup_counts_hits_and_misses(self):
        memo = OutcomeMemo()
        key = memo_key(None, plan())
        assert memo.lookup(key) is None
        memo.record(key, entry())
        assert memo.lookup(key) is not None
        assert memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1

    def test_record_ignores_duplicates(self):
        memo = OutcomeMemo()
        memo.record("k", entry(kind="halt"))
        memo.record("k", entry(kind="trap"))
        assert memo.lookup("k").termination["kind"] == "halt"
        assert len(memo) == 1

    def test_drain_new_returns_only_fresh_rows(self):
        memo = OutcomeMemo()
        memo.record("k1", entry())
        rows = memo.drain_new()
        assert [row["key"] for row in rows] == ["k1"]
        assert memo.drain_new() == []
        memo.record("k2", entry())
        assert [row["key"] for row in memo.drain_new()] == ["k2"]

    def test_merge_adopts_without_marking_new(self):
        source, sink = OutcomeMemo(), OutcomeMemo()
        source.record("k1", entry())
        assert sink.merge(source.drain_new()) == 1
        assert sink.lookup("k1") is not None
        # Merged rows never echo back on the next drain.
        assert sink.drain_new() == []
        # Re-merging the same rows is a no-op.
        source2 = OutcomeMemo()
        source2.record("k1", entry(kind="trap"))
        assert sink.merge(source2.drain_new()) == 0
        assert sink.lookup("k1").termination["kind"] == "halt"

    def test_rows_since_cursor(self):
        memo = OutcomeMemo()
        memo.record("k1", entry())
        memo.record("k2", entry())
        rows, cursor = memo.rows_since(0)
        assert [row["key"] for row in rows] == ["k1", "k2"]
        rows, cursor = memo.rows_since(cursor)
        assert rows == []
        memo.merge([{"key": "k3", "entry": entry().to_row()}])
        rows, cursor = memo.rows_since(cursor)
        assert [row["key"] for row in rows] == ["k3"]

    def test_entry_round_trip_and_fresh_copies(self):
        original = entry()
        row = original.to_row()
        restored = MemoEntry.from_row(row)
        result = ExperimentResult(name="e", index=0, campaign_name="c")
        restored.apply(result)
        assert result.termination.kind == "halt"
        assert result.outputs == original.outputs
        assert result.state_vector == original.state_vector
        assert [i.to_dict() for i in result.injections] == original.injections
        # apply() hands out copies: mutating one result never leaks into
        # the shared entry or a second application.
        result.outputs["0x100"] = 999
        result2 = ExperimentResult(name="e2", index=1, campaign_name="c")
        restored.apply(result2)
        assert result2.outputs["0x100"] == 7
        assert result.termination is not result2.termination


def _late_trigger_campaign(name, duration, **overrides):
    """A SCIFI campaign with a fixed late trigger — the divergence
    window's target regime (long golden tail after injection)."""
    defaults = dict(
        campaign_name=name,
        workload_name="bubblesort",
        workload_params={"n": 16},
        n_experiments=6,
        seed=77,
        trigger=TriggerSpec(
            kind="time-fixed", time=max(1, duration // 4)
        ),
        warm_start=True,
    )
    defaults.update(overrides)
    return make_campaign(**defaults)


def _reference_duration(**overrides):
    target = create_target("thor-rd")
    probe = _late_trigger_campaign("probe", duration=4, n_experiments=1,
                                   **overrides)
    return target.prepare_run(probe).duration_cycles


def _rows(sink):
    return [
        (
            r.termination.kind,
            tuple(
                tuple(sorted(i.to_dict().items())) for i in r.injections
            ),
            tuple(sorted(r.outputs.items())),
            tuple(sorted(r.state_vector.items())),
        )
        for r in sink.results
    ]


class TestDivergenceWindow:
    def test_early_exit_matches_full_tail(self):
        """The headline byte-identity gate: a campaign with early exits
        and memoization produces exactly the rows the plain full-tail
        path produces."""
        duration = _reference_duration()

        def leg(early):
            target = create_target("thor-rd")
            target.early_exit = early
            campaign = _late_trigger_campaign("div-leg", duration)
            return _rows(target.run_campaign(campaign))

        assert leg(True) == leg(False)

    def test_early_exit_counters(self):
        """An early-injection campaign on a long workload must actually
        take early exits (and skip real cycles) — otherwise the
        identity test above proves nothing. Only a modest fraction of
        register flips re-converge (one in five to ten on bubblesort),
        so the sample is sized well above that rate."""
        duration = _reference_duration()
        campaign = _late_trigger_campaign("div-counters", duration,
                                          n_experiments=32)
        configure(metrics=True)
        try:
            target = create_target("thor-rd")
            target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert counters.get("divergence.probes", 0) > 0
        assert counters.get("divergence.early_exits", 0) > 0
        assert counters.get("divergence.cycles_skipped", 0) > 0

    def test_no_early_exit_knob_suppresses_probing(self):
        duration = _reference_duration()
        campaign = _late_trigger_campaign("div-off", duration)
        configure(metrics=True)
        try:
            target = create_target("thor-rd")
            target.early_exit = False
            target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert counters.get("divergence.probes", 0) == 0
        assert counters.get("divergence.early_exits", 0) == 0
        assert counters.get("divergence.memo_hits", 0) == 0

    def test_detail_mode_never_probes(self):
        """Detail mode must observe every instruction of the real tail;
        probing (and memo replay) is disabled there."""
        duration = _reference_duration()
        campaign = _late_trigger_campaign(
            "div-detail", duration, n_experiments=2, logging_mode="detail"
        )
        configure(metrics=True)
        try:
            target = create_target("thor-rd")
            sink = target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert counters.get("divergence.probes", 0) == 0
        assert all(r.detail_states for r in sink.results)


class TestOutcomeMemoIntegration:
    def test_repeated_plans_hit_the_memo(self):
        """A single-location fault space with a fixed trigger draws the
        same (time, op, location) plan repeatedly — every repeat must
        replay from the memo, byte-identically."""
        duration = _reference_duration()
        campaign = _late_trigger_campaign(
            "memo-hit",
            duration,
            location_patterns=["scan:internal/cpu.regfile.r1"],
            n_experiments=24,
        )
        configure(metrics=True)
        try:
            target = create_target("thor-rd")
            sink = target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        hits = counters.get("divergence.memo_hits", 0)
        assert hits > 0
        # Replays are observationally indistinguishable: identical plans
        # produced identical rows.
        rows = _rows(sink)
        by_injections = {}
        for row in rows:
            by_injections.setdefault(
                tuple(
                    tuple(sorted((k, v) for k, v in fields if k != "time"))
                    for fields in row[1]
                ),
                set(),
            ).add((row[0], row[2], row[3]))
        for outcomes in by_injections.values():
            assert len(outcomes) == 1

    def test_memo_resets_on_rebind(self):
        """A memo recorded under one campaign binding must never leak
        into the next (same delta + cold key but a different workload
        would corrupt outcomes)."""
        target = create_target("thor-rd")
        duration = _reference_duration()
        target.run_campaign(_late_trigger_campaign(
            "memo-a", duration,
            location_patterns=["scan:internal/cpu.regfile.r1"],
            n_experiments=4,
        ))
        assert target._memo is not None and len(target._memo) > 0
        target.read_campaign_data(_late_trigger_campaign(
            "memo-b", duration, workload_name="vecsum",
            workload_params={},
        ))
        assert target._memo is None

    def test_verify_derived_bypasses_memo(self):
        """--verify-equivalence re-executions must not be served from
        the memo: a replayed copy would verify nothing."""
        duration = _reference_duration()
        campaign = _late_trigger_campaign(
            "memo-verify", duration,
            preinjection_mode="equivalence",
            n_experiments=8,
        )
        target = create_target("thor-rd")
        target.verify_equivalence = 1.0
        configure(metrics=True)
        try:
            sink = target.run_campaign(campaign)
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        assert len(sink.results) == 8
        # Every derived member was re-executed for real and matched.
        assert counters.get("equivalence.verified", 0) == counters.get(
            "equivalence.collapsed", 0
        )


class TestWarmRestoreBoundary:
    """Satellite regression: an injection pinned exactly on checkpoint
    cadence must restore from the checkpoint strictly *before* the
    injection cycle, never the one captured at it."""

    def _campaign_on_cadence(self, name, **overrides):
        target = create_target("thor-rd")
        probe = make_campaign(
            campaign_name=f"{name}-probe",
            workload_name="bubblesort",
            workload_params={"n": 16},
            n_experiments=1,
            warm_start=True,
        )
        target.prepare_run(probe)
        store = target._checkpoints
        assert store is not None and len(store) >= 2
        # Pin the trigger on the second captured cycle exactly.
        on_cadence = store.cycles[1]
        return make_campaign(
            campaign_name=name,
            workload_name="bubblesort",
            workload_params={"n": 16},
            trigger=TriggerSpec(kind="time-fixed", time=on_cadence),
            warm_start=True,
            n_experiments=4,
            **overrides,
        ), on_cadence

    def test_restore_is_strictly_before_injection(self):
        campaign, on_cadence = self._campaign_on_cadence("boundary-spy")
        target = create_target("thor-rd")
        restored_cycles = []
        original = target.restore_checkpoint

        def spy(image):
            restored_cycles.append(image.cycle)
            return original(image)

        target.restore_checkpoint = spy
        target.run_campaign(campaign)
        assert restored_cycles, "warm path never engaged"
        assert all(cycle < on_cadence for cycle in restored_cycles)

    def test_on_cadence_outcomes_match_cold(self):
        campaign, _ = self._campaign_on_cadence("boundary-rows")

        def leg(warm):
            target = create_target("thor-rd")
            if not warm:
                target.early_exit = False
            sink = target.run_campaign(
                campaign.modified(warm_start=warm)
            )
            return _rows(sink)

        assert leg(True) == leg(False)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)
class TestParallelMemoSharing:
    def test_parallel_rows_match_serial_and_memo_merges(self):
        from repro.core.framework import worker_factory
        from repro.core.parallel import ParallelConfig, run_parallel_campaign

        duration = _reference_duration()
        campaign = _late_trigger_campaign(
            "memo-par", duration,
            location_patterns=["scan:internal/cpu.regfile.r1"],
            n_experiments=10,
        )
        serial_target = create_target("thor-rd")
        serial_rows = _rows(serial_target.run_campaign(campaign))

        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=ParallelConfig(n_workers=2, shard_size=2),
        )
        parallel_rows = _rows(sink)
        assert sorted(parallel_rows) == sorted(serial_rows)

    def test_early_exit_off_propagates_to_workers(self):
        from repro.core.framework import worker_factory
        from repro.core.parallel import ParallelConfig, run_parallel_campaign

        duration = _reference_duration()
        campaign = _late_trigger_campaign(
            "memo-par-off", duration, n_experiments=4
        )
        sink = run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=ParallelConfig(
                n_workers=2, shard_size=2, early_exit=False
            ),
        )
        assert len(sink.results) == 4
