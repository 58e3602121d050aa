"""Tier-1 guard for the metering acceptance bar: usage metering adds
< 5% CPU overhead to the medium hotpath workload versus metering
disabled.  Metering is on by default, so this is the cost every
deployment pays — the meter must stay a handful of dict adds per job.
"""

import pytest

from repro.core.config import SystemConfig
from repro.workload.hotpath import DEFAULT_SCALES, run_hotpath
from tests.perf.overhead import cpu_seconds, overhead_ratio

pytestmark = [pytest.mark.perf, pytest.mark.usage]

#: The ISSUE pins the bar at the medium tier: 10 students x 6
#: resubmissions on 4 workers — enough jobs that a per-job metering
#: regression is visible over interpreter noise.
MEDIUM_SCALE = next(s for s in DEFAULT_SCALES if s.name == "medium")


def _run(metering_enabled: bool) -> None:
    config = SystemConfig()
    config.usage_metering_enabled = metering_enabled
    run_hotpath(MEDIUM_SCALE, config=config)


def test_metering_overhead_under_five_percent():
    # CPU time, not wall clock, as in the build-cache smoke.
    ratio = overhead_ratio(cpu_seconds(lambda: _run(True)),
                           cpu_seconds(lambda: _run(False)),
                           bound=1.05)
    assert ratio < 1.05, (
        f"usage metering overhead {100 * (ratio - 1):.1f}% exceeds "
        "5% budget")


def test_metering_on_changes_no_results():
    on = run_hotpath(MEDIUM_SCALE, config=SystemConfig())
    config_off = SystemConfig()
    config_off.usage_metering_enabled = False
    off = run_hotpath(MEDIUM_SCALE, config=config_off)
    assert on["submissions_completed"] == off["submissions_completed"]
    assert on["latency_s"] == off["latency_s"]
