"""Smoke test of the full-stack benchmark at tiny scale.

Every workload must pass its output checks, traced and untraced, and
print exactly the metrics ``BENCHMARK.json`` names, with their units.
Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_checks_and_prints_declared_metrics(workload,
                                                            trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if trace:
        stem = HERE / "results" / f"{workload}-seed{SEED}-trace1-smoke"
        report = json.loads(stem.with_suffix(".json").read_text())
        layer = report["layers"]
        # Layer self times plus the residual add up to the traced wall.
        total = (sum(layer["_layer_self_ms_per_job"].values())
                 + layer["sim.residual_ms_per_job"])
        assert total == pytest.approx(layer["trace.wall_ms_per_job"],
                                      rel=1e-9)
        spans = json.loads(
            (stem.parent / (stem.name + "-spans.json")).read_text())
        assert spans["spans"] and spans["fields"][0] == "name"


def test_checks_reject_a_wrong_output(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import SMOKE_SHAPES, LightBurst
    finally:
        del sys.path[:2]
    workload = LightBurst(SEED, SMOKE_SHAPES["light_burst"], str(tmp_path))
    try:
        workload.build()
        workload.drive()
        errors, digest = workload.check()
        assert errors == []
        workload.submissions[0].expect["lines"] += 1
        errors, again = workload.check()
        assert len(errors) == 1 and "wc printed" in errors[0]
        assert again == digest
    finally:
        workload.close()
