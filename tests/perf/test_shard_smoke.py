"""Sharding off must cost nothing: N=1 identity and overhead smoke.

Tier-1 guard for the shard PR's acceptance bar — ``shards=1`` is not an
"equivalent mode", it is byte-for-byte the pre-shard control plane: the
same delivery order (golden digest), and wall clock within noise of the
default config (the only added work is a config check at construction).
"""

import pytest

from repro.core.config import SystemConfig
from repro.workload.hotpath import SMOKE_SCALE, run_hotpath
from repro.workload.shardbench import GOLDEN_DIGEST, control_plane_digest
from tests.perf.overhead import overhead_ratio

pytestmark = [pytest.mark.perf, pytest.mark.shard]


def test_shards_one_reproduces_the_golden_digest():
    digest, statuses, n = control_plane_digest(
        config=SystemConfig(shards=1))
    assert digest == GOLDEN_DIGEST
    assert statuses == ["succeeded"]
    assert n == 18


def test_default_config_reproduces_the_golden_digest():
    digest, _, _ = control_plane_digest()
    assert digest == GOLDEN_DIGEST


def test_shards_one_wall_clock_overhead_under_five_percent():
    ratio = overhead_ratio(
        lambda: run_hotpath(SMOKE_SCALE,
                            config=SystemConfig(shards=1))["wall_clock_s"],
        lambda: run_hotpath(SMOKE_SCALE)["wall_clock_s"],
        bound=1.05)
    assert ratio < 1.05, (
        f"shards=1 overhead {100 * (ratio - 1):.1f}% exceeds 5% budget")
