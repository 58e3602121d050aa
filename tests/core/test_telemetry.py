"""Tests for the scraper-backed fleet signals and the health report."""

import math

import pytest

from repro.core.system import RaiSystem
from repro.core.telemetry import gauge_window, health_report

FILES = {
    "main.cu": "// @rai-sim quality=0.7 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture
def system():
    return RaiSystem.standard(num_workers=2, seed=12)


def _start_scraping(system, interval):
    system.scraper.interval = interval
    return system.sim.process(system.scraper.process(system.sim))


class TestSampler:
    def test_samples_signals_over_time(self, system):
        _start_scraping(system, 10.0)
        clients = []
        for i in range(4):
            c = system.new_client(team=f"t{i}")
            c.stage_project(FILES)
            clients.append(c)
        procs = [system.sim.process(c.submit()) for c in clients]
        system.sim.run(until=system.sim.all_of(procs))
        now = system.sim.now
        for signal in ("queue_depth", "workers_running", "jobs_active",
                       "storage_bytes", "in_flight"):
            assert system.scraper.gauge_samples(signal, now, math.inf)
        assert gauge_window(system.scraper, "workers_running")[1] == 2
        assert gauge_window(system.scraper, "jobs_active")[1] >= 1
        assert gauge_window(system.scraper, "storage_bytes")[1] > 0

    def test_stop_halts_sampling(self, system):
        _start_scraping(system, 5.0)
        system.run(until=20.0)
        system.scraper.stop()
        count = len(system.scraper)
        system.run(until=100.0)
        assert len(system.scraper) <= count + 1

    def test_peak_of_unsampled_signal_is_nan(self, system):
        avg, peak = gauge_window(system.scraper, "never_sampled")
        assert math.isnan(avg) and math.isnan(peak)


class TestGaugeWindow:
    def test_time_weighted_step_average(self, system):
        # queue_depth is 0 throughout; a settable gauge shows weighting.
        gauge = system.metrics.gauge("probe")
        for t, value in [(0.0, 0.0), (10.0, 10.0), (20.0, 0.0)]:
            system.sim._now = t
            gauge.set(value)
            system.scraper.scrape_now()
        avg, peak = gauge_window(system.scraper, "probe")
        assert avg == pytest.approx(5.0)
        assert peak == 10.0

    def test_single_sample_is_its_own_average(self, system):
        system.metrics.gauge("probe").set(3.0)
        system.scraper.scrape_now()
        assert gauge_window(system.scraper, "probe") == (3.0, 3.0)


class TestHealthReport:
    def test_snapshot_without_sampler(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        system.run(client.submit())
        report = health_report(system)
        assert "jobs completed" in report
        assert "file server" in report
        assert "2/2" in report
        assert "(avg," not in report

    def test_with_sampler_includes_averages(self, system):
        _start_scraping(system, 5.0)
        system.run(until=30.0)
        report = health_report(system)
        # Rows name the scraper's retained window (interval x ring size).
        window = f"{system.scraper.retention / 3600:.1f} h window"
        assert f"queue_depth (avg, {window})" in report
        assert f"workers_running (peak, {window})" in report

    def test_default_window_is_about_four_hours(self):
        system = RaiSystem.standard(num_workers=1, seed=12)
        system.start_observability()
        system.run(until=120.0)
        assert "(avg, 4.3 h window)" in health_report(system)
