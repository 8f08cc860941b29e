"""Tests for divergence-window execution and outcome memoization
(repro.core.divergence + the algorithm-layer integration).

Covers memo entries (exact replay, fresh copies), the memo key's
sensitivity to restore state and injection delta, the divergence
window's early-exit behaviour on the real Thor target (byte-identical
to full-tail execution, observable through the ``divergence.*``
counters, disabled by the ``early_exit`` knob), the warm-restore
strict-boundary regression (injection pinned exactly on checkpoint
cadence), and memoization and early exit inside parallel workers.
"""

import multiprocessing

import pytest

from repro.core import create_target
from repro.core.divergence import MemoEntry, memo_key, plan_delta
from repro.core.experiment import ExperimentResult
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
    def test_entry_round_trip_and_fresh_copies(self):
        original = entry()
        result = ExperimentResult(name="e", index=0, campaign_name="c")
        original.apply(result)
        assert result.termination.kind == "halt"
        assert result.outputs == original.outputs
        assert result.state_vector == original.state_vector
        assert [i.to_dict() for i in result.injections] == original.injections
        # Recording the replayed result gives back the same entry.
        assert MemoEntry.from_result(result) == original
        # apply() hands out copies: mutating one result never leaks into
        # the shared entry or a second application.
        result.outputs["0x100"] = 999
        result2 = ExperimentResult(name="e2", index=1, campaign_name="c")
        original.apply(result2)
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
    """Workers memoize the experiments of their own shards and honour
    ``ParallelConfig.early_exit``. One worker sees every shard, so its
    merged ``worker0.*`` counters must equal the serial run's."""

    COUNTERS = ("divergence.memo_hits", "divergence.probes")

    @staticmethod
    def _campaign(name):
        return _late_trigger_campaign(
            name, _reference_duration(),
            location_patterns=["scan:internal/cpu.regfile.r1"],
            n_experiments=10,
        )

    @staticmethod
    def _with_metrics(run):
        configure(metrics=True)
        try:
            sink = run()
            counters = get_observability().metrics.snapshot()["counters"]
        finally:
            disable()
        return sink, counters

    @staticmethod
    def _parallel(campaign, **config):
        from repro.core.framework import worker_factory
        from repro.core.parallel import ParallelConfig, run_parallel_campaign

        return run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=ParallelConfig(shard_size=2, **config),
        )

    def test_parallel_rows_match_serial_and_memo_merges(self):
        campaign = self._campaign("memo-par")
        serial_sink, serial = self._with_metrics(
            lambda: create_target("thor-rd").run_campaign(campaign)
        )
        assert serial["divergence.memo_hits"] > 0
        assert serial["divergence.probes"] > 0

        sink = self._parallel(campaign, n_workers=2)
        assert sorted(_rows(sink)) == sorted(_rows(serial_sink))

        _, merged = self._with_metrics(
            lambda: self._parallel(campaign, n_workers=1)
        )
        for name in self.COUNTERS:
            assert merged.get(f"worker0.{name}", 0) == serial[name], name

    def test_early_exit_off_propagates_to_workers(self):
        campaign = self._campaign("memo-par-off")
        sink, merged = self._with_metrics(
            lambda: self._parallel(campaign, n_workers=1, early_exit=False)
        )
        assert len(sink.results) == 10
        # The worker's deltas did arrive; they just hold no memo or probe.
        assert merged["worker0.experiments_total"] == 10
        for name in self.COUNTERS:
            assert merged.get(f"worker0.{name}", 0) == 0, name
