"""Deterministic twin of the instrumentation-overhead checks.

Wall-clock overhead ratios are noisy; the number of registry lookups
(``MetricsRegistry._get_or_create`` calls: key build, dict probe, type
check) is not.  Hot paths hold bound metric handles, so lookups happen
when a series is first touched, not on every call.  These tests count
them, using no clock at all.
"""

import pytest

from repro.core.system import RaiSystem
from repro.docdb.database import DocumentDB
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.obs

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

#: Registry lookups a batch of analytic submissions may make, per job
#: (16 jobs, 2 workers, seed 7; measured: 29 lookups in all).  Each is a
#: series' first touch: per-job histograms and counters are bound once
#: per component and label value.
MAX_LOOKUPS_PER_JOB = 29 / 16

#: Series a job touches through a bound handle.
BOUND_SERIES = ("buildcache_hits_total", "buildcache_misses_total",
                "sched_queue_wait_seconds", "container_acquire_seconds",
                "jobs_finished", "job_turnaround_seconds")


@pytest.fixture
def lookups(monkeypatch):
    calls = []
    original = MetricsRegistry._get_or_create

    def counting(self, cls, name, labels, **kwargs):
        calls.append(name)
        return original(self, cls, name, labels, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting)
    return calls


def test_existing_collection_reads_and_writes_make_no_lookups(lookups):
    db = DocumentDB()
    coll = db.collection("submissions")
    coll.create_index("job_id")
    coll.insert_one({"job_id": "j1", "status": "queued"})
    lookups.clear()
    for _ in range(10):
        coll.find({"job_id": "j1"}).to_list()
        coll.find({"status": "queued"}).to_list()
        coll.update_one({"job_id": "j1"}, {"$set": {"status": "done"}})
    assert lookups == []
    assert coll.planner_stats["index_hits"] == 20


def test_analytic_batch_lookups_per_job_are_pinned(lookups):
    n_jobs = 16
    system = RaiSystem.standard(num_workers=2, seed=7)
    clients = []
    for i in range(n_jobs):
        client = system.new_client(team=f"team{i:02d}")
        client.stage_project(FILES)
        clients.append(client)
    # Binding is lazy: no series exists before its first observation.
    assert not [m for m in system.metrics if m.name in BOUND_SERIES]
    lookups.clear()
    results = system.run_all(c.submit() for c in clients)
    assert all(r.status.value == "succeeded" for r in results)
    assert len(lookups) / n_jobs <= MAX_LOOKUPS_PER_JOB
    # Planning a docdb query never resolves its counters again.
    assert not [name for name in lookups if name.startswith("planner_")]
