"""The configuration surface and the defaults that live outside it.

``WorkerConfig``/``SystemConfig`` hold only the knobs some caller sets;
every other value has one home next to its single reader.  The first test
pins the field lists, so adding a knob is a deliberate test edit.  The
rest check that a stock deployment still runs with each of those values,
read from the component or, where only the timeline shows it, from the
simulated clock.
"""

import dataclasses

import pytest

from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobStatus
from repro.core.system import RaiSystem
from repro.errors import ExpiredToken
from repro.faults import FaultPlan, StorageFault

DAY = 24 * 3600.0

FILES = {
    "main.cu": "// @rai-sim quality=0.85 impl=analytic\nint main(){}\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}

WORKER_FIELDS = [
    "max_concurrent_jobs", "limits", "gpu_model", "storage_bandwidth_bps",
    "task_route", "enable_interactive", "job_deadline_seconds",
    "fetch_cache_bytes", "warm_pool_size", "container_create_seconds",
    "container_reset_seconds",
]

SYSTEM_FIELDS = [
    "upload_bucket", "build_bucket", "rate_limit_seconds",
    "client_wait_timeout_seconds", "tracing_enabled", "trace_max_traces",
    "scheduler_enabled", "course_deadline_at",
    "deadline_boost_window_seconds", "event_log_enabled",
    "scrape_interval_seconds", "slo_fast_window_seconds",
    "slo_slow_window_seconds", "shards", "shard_seed",
    "shard_steal_threshold", "shard_balance_interval_seconds",
    "buildcache_enabled", "usage_metering_enabled", "usage_window_seconds",
    "course_name",
]


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_config_field_lists_are_pinned():
    assert _names(WorkerConfig) == WORKER_FIELDS
    assert _names(SystemConfig) == SYSTEM_FIELDS


def _submit_twice(system, client):
    """Two identical submissions, rate-limit gapped (the second replays
    its build from the cache)."""
    results = []

    def driver():
        for i in range(2):
            if i:
                yield system.sim.timeout(
                    system.config.rate_limit_seconds + 1.0)
            results.append((yield from client.submit()))

    system.run(driver())
    return results


class TestEffectiveDefaults:
    @pytest.fixture
    def system(self):
        return RaiSystem.standard(num_workers=1, seed=3)

    def test_component_defaults(self, system):
        worker = system.workers[0]
        assert system.storage.chunk_store.chunk_size == 4096
        assert system.build_cache.max_bytes == 256 << 20
        assert system.build_cache.ttl_seconds == 14 * DAY
        assert system.scheduler.policy.quantum_seconds == 5.0
        assert system.scheduler.hit_cost_factor == 0.35
        assert system.events.max_events == 4096
        assert system.scraper._samples.maxlen == 256
        assert system.slo_engine.burn_rate_threshold == 1.0
        specs = {spec.name: spec for spec in system.slo_engine.specs}
        assert specs["queue-wait-p95"].threshold == 30.0
        assert specs["submission-success"].target == 0.99
        assert system.cost_allocator.budget_window_seconds == 7 * DAY
        assert worker.pool.ttl_seconds == 900.0
        assert worker.runtime.pull_bandwidth_bps == 100e6

    def test_lifecycle_rules(self, system):
        uploads = system.storage.bucket(system.config.upload_bucket)
        builds = system.storage.bucket(system.config.build_bucket)
        assert [(r.expire_after, r.since) for r in uploads.lifecycle_rules] \
            == [(30 * DAY, "last_use")]
        assert [(r.expire_after, r.since) for r in builds.lifecycle_rules] \
            == [(90 * DAY, "creation")]

    def test_upload_rate_replay_latency_and_presign_expiry(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        first, second = _submit_twice(system, client)
        assert first.status is JobStatus.SUCCEEDED
        assert second.status is JobStatus.SUCCEEDED
        trace = system.tracer.trace_for_job(second.job_id)

        upload, = trace.find("client.upload")
        assert upload.duration == pytest.approx(
            upload.attributes["bytes"] / 20e6)

        bandwidth = system.workers[0].config.storage_bandwidth_bps
        hits = [s for s in trace.find("container.exec")
                if s.attributes.get("cache") == "hit"]
        assert hits
        for span in hits:
            (_, _, replay), = [e for e in span.events
                               if e[1] == "buildcache.replay"]
            assert span.duration == pytest.approx(
                0.05 + replay["artifact_bytes"] / bandwidth)

        put, = trace.find("storage.put")
        expires_at = put.end_time + 7 * DAY
        system.run(until=expires_at - 1.0)
        assert system.storage.redeem_get(second.build_url)
        system.run(until=expires_at + 1.0)
        with pytest.raises(ExpiredToken):
            system.storage.redeem_get(second.build_url)

    def test_storage_retry_policy(self, system):
        system.start_fault_plan(FaultPlan(storage_faults=[StorageFault(
            op="get", failures_per_key=100,
            bucket=system.config.upload_bucket)]))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        result = system.run(client.submit())
        assert result.status is JobStatus.FAILED
        get, = system.tracer.trace_for_job(result.job_id).find("storage.get")
        retries = [at for at, name, _ in get.events if name == "retry"]
        # RetryPolicy(): four attempts, 0.5 s base doubling, 25% jitter.
        assert len(retries) == 3
        gaps = [b - a for a, b in zip(retries, retries[1:] + [get.end_time])]
        for gap, base in zip(gaps, (0.5, 1.0, 2.0)):
            assert base <= gap <= base * 1.25

    def test_dead_letter_sweep_interval(self, system):
        sweeps = []
        system.drain_dead_letters = lambda: sweeps.append(system.sim.now)
        system.start_dead_letter_consumer()
        system.run(until=1000.0)
        assert sweeps == [300.0, 600.0, 900.0]
