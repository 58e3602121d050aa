"""Every way a job can leave a worker reports it exactly once.

One table of exits — rejection, fetch failures, deadline, stop, crash,
success, failure, cache-hit replay — each driven through a real
deployment.  For the job under test the worker must write at most one
``submissions`` document, bill ``usage.record_job`` once, count
``jobs_finished`` once and publish one End message; a crashed worker
does none of these (the redelivery attempt reports instead), and a
rejected job is billed and answered but not recorded.
"""

import pytest

from repro.core.config import WorkerConfig
from repro.core.system import RaiSystem
from repro.errors import TransientStorageError

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

BROKEN = dict(FILES, **{"main.cu": "// broken\nCOMPILE_ERROR\n"})

SLEEPY_BUILD = ("rai:\n  version: 0.2\n  image: webgpu/rai:root\n"
                "commands:\n  build: [\"sleep 100\"]\n")


class Tally:
    """Counts the four terminal side effects of the jobs it watches."""

    def __init__(self, system):
        self.system = system
        self.billed = []
        self.ends = []
        record_job = system.usage.record_job
        publish = system.broker.publish

        def counting_record_job(tenant, **kwargs):
            self.billed.append(kwargs.get("job_id"))
            return record_job(tenant, **kwargs)

        def counting_publish(topic, body, *args, **kwargs):
            if topic.startswith("log_") and isinstance(body, dict) \
                    and body.get("type") == "end":
                self.ends.append(topic[len("log_"):])
            return publish(topic, body, *args, **kwargs)

        system.usage.record_job = counting_record_job
        system.broker.publish = counting_publish

    def snapshot(self) -> dict:
        finished = {m.labels["status"]: m.value
                    for m in self.system.metrics.series("jobs_finished")}
        return {
            "submissions": self.system.db.collection(
                "submissions").count_documents({}),
            "billed": len(self.billed),
            "finished": finished,
            "ends": len(self.ends),
        }


def _system(**worker_kwargs):
    return RaiSystem.standard(num_workers=1, seed=11,
                              worker_config=WorkerConfig(**worker_kwargs))


def _submit(system, files=FILES, build_file=None):
    client = system.new_client(team="exits")
    client.stage_project(files)
    if build_file is not None:
        client.set_build_file(build_file)
    return client


def _kill_mid_build(system, action: str):
    """Stop or crash the worker 5 s into the job's container run."""
    worker = system.workers[0]

    def killer():
        while not any(e.fields.get("status") == "running"
                      for e in system.events.query(type="job.state_change")):
            yield system.sim.timeout(1.0)
        yield system.sim.timeout(5.0)
        getattr(worker, action)()

    system.sim.process(killer())


def _upload_fault(system, fault):
    bucket = system.config.upload_bucket

    def hook(op, bucket_name, key):
        if op == "get" and bucket_name == bucket:
            fault(bucket_name, key)

    system.storage.fault_hook = hook


def spec_rejected():
    system = _system()
    client = _submit(system, build_file=(
        "rai:\n  version: 99.0\n  image: webgpu/rai:root\n"
        "commands:\n  build: [make]\n"))
    return system, [lambda: system.run(client.submit())]


def permanent_fetch_failure():
    system = _system()
    _upload_fault(system, lambda bucket, key:
                  system.storage.delete_object(bucket, key))
    client = _submit(system)
    return system, [lambda: system.run(client.submit())]


def transient_fetch_failure():
    system = _system()

    def flaky(bucket, key):
        raise TransientStorageError(f"{bucket}/{key}: link down")

    _upload_fault(system, flaky)
    client = _submit(system)
    return system, [lambda: system.run(client.submit())]


def job_deadline():
    system = _system(job_deadline_seconds=10.0, storage_bandwidth_bps=1e6)
    client = _submit(system)
    client.project_padding_bytes = 50_000_000   # 50 s at 1 MB/s
    return system, [lambda: system.run(client.submit())]


def stop_mid_build():
    system = _system()
    client = _submit(system, build_file=SLEEPY_BUILD)
    _kill_mid_build(system, "stop")
    return system, [lambda: system.run(client.submit())]


def crash_mid_build():
    system = _system()
    client = _submit(system, build_file=SLEEPY_BUILD)
    _kill_mid_build(system, "crash")

    def drive():
        system.sim.process(client.submit())
        system.run(until=500.0)

    return system, [drive]


def success():
    system = _system()
    client = _submit(system)
    return system, [lambda: system.run(client.submit())]


def nonzero_exit():
    system = _system()
    client = _submit(system, files=BROKEN)
    return system, [lambda: system.run(client.submit())]


def cache_hit_nonzero_exit():
    """A second identical broken build replays its exit 2 from cache."""
    system = _system()
    client = _submit(system, files=BROKEN)
    gap = system.config.rate_limit_seconds + 1.0

    def second():
        yield system.sim.timeout(gap)
        return (yield from client.submit())

    return system, [lambda: system.run(client.submit()),
                    lambda: system.run(second())]


ONCE = {"submissions": 1, "billed": 1, "ends": 1}
UNRECORDED = {"submissions": 0, "billed": 1, "ends": 1}
NOTHING = {"submissions": 0, "billed": 0, "ends": 0}

#: scenario → (expected side-effect counts, the jobs_finished status,
#: a line the student sees on stderr).
EXITS = {
    "spec_rejected": (spec_rejected, UNRECORDED, "rejected",
                      "job rejected"),
    "permanent_fetch_failure": (permanent_fetch_failure, UNRECORDED,
                                "rejected", "cannot fetch project: "),
    "transient_fetch_failure": (transient_fetch_failure, ONCE, "failed",
                                "cannot fetch project after retries"),
    "job_deadline": (job_deadline, ONCE, "failed", "deadline"),
    "stop_mid_build": (stop_mid_build, ONCE, "failed",
                       "worker shutting down mid-job"),
    "crash_mid_build": (crash_mid_build, NOTHING, None, None),
    "success": (success, ONCE, "succeeded", None),
    "nonzero_exit": (nonzero_exit, ONCE, "failed",
                     "command exited with status 2"),
    "cache_hit_nonzero_exit": (cache_hit_nonzero_exit, ONCE, "failed",
                               "command exited with status 2"),
}


@pytest.mark.parametrize("name", list(EXITS))
def test_every_exit_reports_exactly_once(name):
    build, expected, status, stderr_line = EXITS[name]
    system, steps = build()
    tally = Tally(system)
    *warmup, measured = steps
    for step in warmup:
        step()
    before = tally.snapshot()
    result = measured()
    after = tally.snapshot()

    if stderr_line is not None:
        assert stderr_line in result.stderr_text()

    for key, count in expected.items():
        assert after[key] - before[key] == count, key
    finished = {s: after["finished"][s] - before["finished"].get(s, 0)
                for s in after["finished"]}
    finished = {s: n for s, n in finished.items() if n}
    assert finished == ({status: 1} if status is not None else {})
    if name == "cache_hit_nonzero_exit":
        hits = system.events.query(type="buildcache.hit",
                                   job_id=result.job_id)
        assert "make" in {e.fields["command"] for e in hits}
    if name == "crash_mid_build":
        assert system.events.query(type="worker.crash")
    worker = system.workers[0]
    assert worker.active_jobs == 0
    assert worker._active_spans == []
