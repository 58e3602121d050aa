"""Tier-1 guards for the incremental-build acceptance bars.

The build cache must be (nearly) free when it cannot help — a course of
first-time builds with the cache enabled costs < 5% wall clock over the
cache disabled — and must be *invisible* in results: the grading digest
of a whole course is byte-identical with the cache on and off.
"""

import pytest

from repro.core.config import SystemConfig
from repro.workload.hotpath import (
    HotpathScale,
    SMOKE_SCALE,
    grading_digest,
    run_hotpath,
)
from tests.perf.overhead import cpu_seconds, overhead_ratio

pytestmark = [pytest.mark.perf, pytest.mark.buildcache]

#: First-submissions only: every build is a miss-then-capture, the
#: cache's worst case (tracking + snapshot cost, no replay wins).
#: Big enough that the 5% budget is measured against real work, not
#: interpreter startup noise — 12 students proved too small for a
#: stable ratio on loaded machines (sub-0.2 s runs jitter past 5%
#: on their own), so the measured run is 32.
FIRST_BUILD_SCALE = HotpathScale("firstbuild", n_students=32,
                                 n_resubmissions=0, n_workers=4)


def _run(cache_enabled: bool) -> dict:
    config = SystemConfig()
    config.buildcache_enabled = cache_enabled
    return run_hotpath(FIRST_BUILD_SCALE, config=config)


def test_first_build_overhead_under_five_percent():
    # CPU time, not wall clock: the workload is sub-second, and wall
    # clock picks up scheduler noise that dwarfs a 5% effect.  Eight
    # pairs, not four, for the same reason.
    ratio = overhead_ratio(cpu_seconds(lambda: _run(True)),
                           cpu_seconds(lambda: _run(False)),
                           bound=1.05, pairs=8)
    assert ratio < 1.05, (
        f"build-cache first-build overhead {100 * (ratio - 1):.1f}% "
        "exceeds 5% budget")


def test_grading_digest_identical_cache_on_vs_off():
    on = grading_digest(cache_enabled=True)
    off = grading_digest(cache_enabled=False)
    assert on == off


def test_resubmissions_hit_at_smoke_scale():
    metrics = run_hotpath(SMOKE_SCALE)
    bc = metrics["buildcache"]
    assert bc is not None
    assert bc["resubmission_hit_rate"] >= 0.8
    assert metrics["resubmission_latency_s"]["p50"] < 2.0
