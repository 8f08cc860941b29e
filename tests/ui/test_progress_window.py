"""Tests for the progress window (Figure 7 / F7)."""

from repro.core.controller import CampaignController
from repro.ui.progress_window import ProgressWindow
from tests.conftest import make_campaign


class TestLiveUpdates:
    def test_snapshots_accumulate(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)
        controller.run(make_campaign(n_experiments=5))
        assert len(window.snapshots) >= 5
        assert window.latest.n_done == 5
        assert window.latest.state == "finished"

    def test_render_shows_counts_and_bar(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)
        controller.run(make_campaign(n_experiments=4))
        text = window.render()
        assert "4/4" in text
        assert "100.0%" in text
        assert "#" * 40 in text
        assert "faults injected: 4" in text

    def test_render_shows_terminations_and_detections(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)
        campaign = make_campaign(
            n_experiments=20,
            location_patterns=["scan:internal/icache.*"],
            workload_name="bubblesort",
            seed=9,
        )
        controller.run(campaign)
        text = window.render()
        assert "terminations:" in text
        # I-cache faults are frequently parity-detected at this seed.
        assert "detections:" in text

    def test_render_before_run_is_safe(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)
        assert "[idle]" in window.render()


class TestButtons:
    def test_end_button_stops_campaign(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)

        def auto_end(progress):
            if progress.n_done == 2:
                window.end()

        controller.add_listener(auto_end)
        sink = controller.run(make_campaign(n_experiments=30))
        assert len(sink.results) == 2
        assert window.latest.state == "stopped"

    def test_pause_and_restart_buttons_delegate(self, thor_target):
        controller = CampaignController(thor_target)
        window = ProgressWindow(controller)
        window.pause()
        assert controller.paused
        window.restart()
        assert not controller.paused

    def test_stream_output(self, thor_target, capsys):
        import sys

        controller = CampaignController(thor_target)
        ProgressWindow(controller, stream=sys.stdout)
        controller.run(make_campaign(n_experiments=2))
        captured = capsys.readouterr()
        assert "Campaign: test-campaign" in captured.out


class TestParallelDigest:
    """The live window under a ParallelCampaignController: worker lines
    and the metrics digest with two or more workers."""

    @staticmethod
    def _parallel_controller(n_workers=2):
        import multiprocessing

        import pytest as _pytest

        if "fork" not in multiprocessing.get_all_start_methods():
            _pytest.skip("parallel tests need the fork start method")
        from repro.core import (
            ParallelCampaignController,
            ParallelConfig,
            worker_factory,
        )

        return ParallelCampaignController(
            worker_factory("thor-rd"),
            config=ParallelConfig(
                n_workers=n_workers,
                shard_size=3,
                timeout_seconds=30.0,
                start_method="fork",
            ),
        )

    def test_worker_line_and_metrics_digest(self):
        from repro import observability

        observability.configure(metrics=True)
        try:
            controller = self._parallel_controller(n_workers=2)
            window = ProgressWindow(controller)
            controller.run(make_campaign(n_experiments=12, seed=21))
            text = window.render()
            assert "workers: 2" in text
            assert "12/12" in text
            # The digest folds the per-worker counters into the total.
            assert "metrics: experiments=12" in text
        finally:
            observability.disable()

    def test_pause_resume_preserved_under_parallel(self):
        controller = self._parallel_controller(n_workers=2)
        window = ProgressWindow(controller)
        resumed = []

        def pause_once(progress):
            if progress.n_done == 3 and not resumed:
                window.pause()
                assert controller.paused
                resumed.append(True)
                window.restart()

        controller.add_listener(pause_once)
        sink = controller.run(make_campaign(n_experiments=12, seed=4))
        assert resumed
        assert not controller.paused
        assert len(sink.results) == 12
        assert window.latest.state == "finished"

    def test_eta_appears_while_running(self):
        from repro import observability

        observability.configure(metrics=True)
        try:
            controller = self._parallel_controller(n_workers=2)
            window = ProgressWindow(controller)
            mid_render = []

            def snoop(progress):
                if 0 < progress.n_done < 18:
                    mid_render.append(window.render())

            controller.add_listener(snoop)
            controller.run(make_campaign(n_experiments=18, seed=7))
            assert mid_render
            assert any("eta:" in text for text in mid_render)
            # Finished runs drop the ETA from the final render.
            assert "eta:" not in window.render()
        finally:
            observability.disable()

    def test_health_alert_line_rendered(self):
        from repro.core import create_target
        from repro.observability.health import (
            CampaignHealthMonitor,
            HealthAlert,
            set_health,
        )

        monitor = CampaignHealthMonitor()
        monitor.begin("c1", n_total=10)
        monitor.alerts.append(
            HealthAlert(kind="stall", message="no progress in 9.0s", ts=0.0)
        )
        previous = set_health(monitor)
        try:
            controller = CampaignController(create_target("thor-rd"))
            window = ProgressWindow(controller)
            text = window.render()
            assert "health [stall]: no progress in 9.0s" in text
        finally:
            set_health(previous)
