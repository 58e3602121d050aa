"""Measuring a simulation: sim-clock samples, counts and distributions.

A simulation records its measurements in a
:class:`~repro.obs.metrics.MetricsRegistry` and samples it over
simulated time with a :class:`~repro.obs.scrape.MetricsScraper`.
"""

from repro.obs.metrics import CounterGroup, MetricsRegistry
from repro.obs.scrape import MetricsScraper
from repro.sim import Simulator


class TestMonitor:
    def test_record_uses_sim_clock(self):
        sim = Simulator()
        registry = MetricsRegistry()
        scraper = MetricsScraper(registry, clock=lambda: sim.now)
        sim.timeout(5)
        sim.run()
        registry.gauge("depth").set(3)
        scraper.scrape_now()
        assert scraper.gauge_samples("depth", sim.now, 60.0) == [(5.0, 3.0)]

    def test_counters(self):
        counters = CounterGroup(MetricsRegistry())
        counters.incr("jobs")
        counters.incr("jobs", 2)
        assert counters.get("jobs") == 3
        assert counters.get("missing") == 0

    def test_tally_namespacing(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(1)
        registry.histogram("b").observe(2)
        assert registry.histogram("a").count == 1
        assert registry.histogram("b").value == 2
