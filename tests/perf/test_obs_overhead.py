"""Tracing must be (nearly) free: overhead smoke for repro.obs.

Tier-1 guard for the obs PR's acceptance bar — running the smoke-scale
hot path with tracing ON costs < 10% wall clock over tracing OFF, and
changes *nothing* about the simulation itself (same completions, same
simulated latencies: spans are passive observers, never sim events).
"""

import pytest

from repro.core.config import SystemConfig
from repro.workload.hotpath import SMOKE_SCALE, run_hotpath
from tests.perf.overhead import overhead_ratio

pytestmark = pytest.mark.perf


def _run(tracing: bool) -> dict:
    return run_hotpath(SMOKE_SCALE,
                       config=SystemConfig(tracing_enabled=tracing))


def test_tracing_does_not_perturb_simulation():
    on = _run(tracing=True)
    off = _run(tracing=False)
    # Identical simulated outcomes; only the wall clock may differ.
    on.pop("wall_clock_s")
    off.pop("wall_clock_s")
    assert on == off


def test_tracing_overhead_under_ten_percent():
    ratio = overhead_ratio(lambda: _run(tracing=True)["wall_clock_s"],
                           lambda: _run(tracing=False)["wall_clock_s"],
                           bound=1.10)
    assert ratio < 1.10, (
        f"tracing overhead {100 * (ratio - 1):.1f}% exceeds 10% budget")
