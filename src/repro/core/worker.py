"""The RAI worker: §V "Worker Operations", implemented step by step.

1. subscribe to the ``rai`` topic's task channel;
2. on a message: parse, check credentials, extract the build spec;
3. start a Docker container from the job's base image (pulling on a cache
   miss), with limited RAM, no network, the CUDA volume mounted, and all
   stdout/stderr piped to the ``log_${job_id}`` topic;
4. download the client's project archive and mount it at ``/src``
   (read-only), with a writable ``/build`` working directory;
5. execute the build-file commands in the container;
6. archive ``/build``, upload it to the file server, send its URL and the
   ``End`` message, and destroy the container.

A worker runs ``max_concurrent_jobs`` executor loops.  Near deadlines the
course set this to 1 because exclusive use "makes the performance timing
more accurate and repeatable" — reproduced here as contention jitter that
scales with the number of co-running jobs.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import List, Optional

from repro.broker.client import Consumer, Producer
from repro.buildspec.parser import parse_build_spec
from repro.buildspec.spec import command_cacheable
from repro.container.pool import WarmContainerPool
from repro.container.runtime import ContainerRuntime
from repro.container.volumes import VolumeMount, cuda_volume
from repro.core.config import WorkerConfig
from repro.core.job import Job, JobKind, JobStatus, _CORRECTNESS_RE, _ELAPSED_RE, _TIME_RE
from repro.errors import (
    BuildSpecError,
    ContainerError,
    InvalidCredentials,
    Interrupt,
    JobDeadlineExceeded,
    SignatureMismatch,
    StorageError,
    TransientStorageError,
)
from repro.faults.retry import RetryPolicy
from repro.gpu.device import get_device
from repro.obs.events import EventType
from repro.obs.metrics import MetricHandles
from repro.storage.buildcache import REPLAY_SECONDS, image_cache_key
from repro.storage.chunkstore import digest_file_map
from repro.vfs import VirtualFileSystem, file_digest, pack_tree, unpack_tree

_worker_counter = itertools.count(1)

#: Relative runtime jitter when running alone (measurement noise).
SOLO_JITTER = 0.02
#: Additional relative jitter per concurrent co-running job (contention;
#: drives the single-vs-multi timing-accuracy ablation).
CONTENTION_JITTER = 0.35
#: Retry budget for storage fetch/upload (transient errors only).
STORAGE_RETRY = RetryPolicy()
#: Presigned build-URL validity (``presign_get`` defaults to one hour).
PRESIGN_EXPIRY_SECONDS = 7 * 24 * 3600.0


def _defuse_interrupt_failure(process_event) -> None:
    if not process_event._ok and isinstance(process_event._value, Interrupt):
        process_event._defused = True


class RaiWorker:
    """One worker node (an "agent that starts a sandboxed environment to
    execute students' code", §IV)."""

    def __init__(self, system, config: Optional[WorkerConfig] = None,
                 worker_id: Optional[str] = None):
        self.system = system
        self.sim = system.sim
        self.config = config or WorkerConfig()
        self.id = worker_id or f"worker-{next(_worker_counter):04d}"
        self.gpu = get_device(self.config.gpu_model)
        self.runtime = ContainerRuntime(
            registry=system.registry,
            clock=lambda: self.sim.now,
        )
        self.pool = WarmContainerPool(
            self.runtime,
            clock=lambda: self.sim.now,
            max_per_image=self.config.warm_pool_size,
            create_seconds=self.config.container_create_seconds,
            reset_seconds=self.config.container_reset_seconds,
            events=system.events,
            owner=self.id,
            usage=system.usage,
        )
        self._rng = system.rng.stream(f"worker:{self.id}")
        # Backoff jitter draws from its own stream so retries never perturb
        # the timing-noise sequence of a fault-free run with the same seed.
        self._retry_rng = system.rng.stream(f"worker:{self.id}:retry")
        self._stopped = False
        self._crashed = False
        #: Home partition index on a sharded deployment (set by
        #: ``RaiSystem.add_worker``); None = consume ``task_route`` as-is.
        self.partition: Optional[int] = None
        # Manifest-aware fetch cache: content digests (chunk hashes, or
        # whole-object etags for non-chunked objects) this worker already
        # transferred, LRU-bounded by fetch_cache_bytes.  A repeat fetch
        # of identical content is near-free; a resubmission with small
        # edits transfers only its changed chunks.
        self._fetch_cache: "OrderedDict[str, int]" = OrderedDict()
        self._fetch_cache_bytes = 0
        self.fetch_cache_hit_bytes = 0
        self.fetch_cache_miss_bytes = 0
        self.fetch_cache_evictions = 0
        #: Open worker.job spans (one per in-flight job) so a crash can
        #: annotate and close them — the interrupted generators never
        #: reach their own finally blocks' span bookkeeping in time.
        self._active_spans: List = []
        # Per-job series, bound on first use per label value.
        self._acquire_seconds = MetricHandles(
            lambda outcome: system.metrics.histogram(
                "container_acquire_seconds", outcome=outcome))
        self._jobs_finished = MetricHandles(
            lambda status: system.metrics.counter("jobs_finished",
                                                  status=status))
        self.active_jobs = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        self.started_at = self.sim.now
        self.stopped_at: Optional[float] = None
        # Per-slot live-time accounting: utilization's denominator counts
        # only seconds each concurrency slot actually existed, so slots
        # added or removed mid-run do not skew the busy fraction the
        # autoscaler reads.
        self._slot_counter = itertools.count()
        self._slot_open: dict = {}
        self._slot_seconds_closed = 0.0
        self._executors: List = []
        for _ in range(self.config.max_concurrent_jobs):
            self._spawn_slot()
        if self.config.enable_interactive:
            from repro.core.interactive import serve_sessions

            proc = self.sim.process(serve_sessions(self))
            proc.callbacks.append(_defuse_interrupt_failure)
            self._executors.append(proc)

    def _emit(self, type: str, span=None, **fields) -> None:
        self.system.events.emit(type, span=span, worker=self.id, **fields)

    def _spawn_slot(self) -> int:
        slot = next(self._slot_counter)
        self._slot_open[slot] = self.sim.now
        self._emit("worker.slot", action="open", slot=slot)
        proc = self.sim.process(self._executor_loop(slot))
        # A stop() interrupt can land before an executor's generator has
        # even started, in which case the Interrupt escapes the loop's try
        # blocks; mark it handled so it cannot crash the simulation.
        proc.callbacks.append(_defuse_interrupt_failure)
        self._executors.append(proc)
        return slot

    def add_slots(self, count: int = 1) -> None:
        """Grow concurrency mid-run (each new slot starts an executor)."""
        if self._stopped:
            raise RuntimeError("cannot add slots to a stopped worker")
        if count < 1:
            raise ValueError("count must be >= 1")
        for _ in range(count):
            self._spawn_slot()

    def _close_slot(self, slot: int) -> None:
        opened_at = self._slot_open.pop(slot, None)
        if opened_at is not None:
            self._slot_seconds_closed += self.sim.now - opened_at
            self._emit("worker.slot", action="close", slot=slot)

    @property
    def slot_count(self) -> int:
        """Concurrency slots currently live."""
        return len(self._slot_open)

    def slot_seconds(self) -> float:
        """Total slot-seconds of capacity this worker has offered."""
        now = self.sim.now
        return self._slot_seconds_closed + \
            sum(now - opened for opened in self._slot_open.values())

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return not self._stopped

    def stop(self) -> None:
        """Stop accepting new jobs; in-flight jobs are interrupted."""
        if self._stopped:
            return
        self._stopped = True
        self.stopped_at = self.sim.now
        self.pool.close()
        for slot in list(self._slot_open):
            self._close_slot(slot)
        for proc in self._executors:
            if proc.is_alive:
                proc.interrupt("worker stopped")

    def crash(self) -> None:
        """Abrupt death (spot-instance reclaim, kernel panic).

        Unlike :meth:`stop`, nothing is acked, published, or recorded:
        any in-flight job message stays un-acked on its channel until the
        broker caretaker's stale sweep redelivers it to another worker —
        the failure-robustness path of §V ("these operations need to ...
        be robust to failures").
        """
        self._crashed = True
        self._emit("worker.crash", active_jobs=self.active_jobs)
        tracer = self.system.tracer
        for span in list(self._active_spans):
            span.add_event("fault.worker_crash", worker=self.id)
            tracer.end_subtree(span, status="error",
                               message=f"worker {self.id} crashed mid-job")
        self._active_spans.clear()
        self.stop()

    @property
    def uptime(self) -> float:
        end = self.stopped_at if self.stopped_at is not None else self.sim.now
        return end - self.started_at

    def utilization(self) -> float:
        """Busy fraction of the slot-seconds this worker actually offered.

        The denominator is per-slot live time (not uptime × configured
        concurrency), so slots added via :meth:`add_slots` or retired
        mid-run are weighted by how long they really existed.
        """
        denom = self.slot_seconds()
        return self.busy_seconds / denom if denom > 0 else 0.0

    def pool_hit_rate(self) -> float:
        """Warm-pool hit fraction over this worker's container acquires."""
        return self.pool.hit_rate()

    # -- the executor loop ------------------------------------------------------

    def _make_consumer(self):
        """The task consumer an executor slot opens.

        Partition-homed workers on a sharded deployment get a
        :class:`~repro.shard.steal.StealingConsumer` (home-channel
        claims with pull-steal fallback); everything else — unsharded
        systems, custom-pinned routes — gets a plain
        :class:`~repro.broker.client.Consumer`.
        """
        if self.system.shards is not None and self.partition is not None:
            return self.system.shards.consumer(self.partition)
        return Consumer(self.system.broker, self.config.task_route)

    def _executor_loop(self, slot: int):
        consumer = self._make_consumer()
        try:
            while not self._stopped:
                # Prefetch: claim an already-queued message synchronously
                # (one scheduler round-trip per *batch*, not per message);
                # park on the blocking get only when nothing is ready.
                # try_deliver never steals from another executor's pending
                # blocking get, so idle slots still wake fairly.
                message = consumer.try_get()
                if message is not None:
                    self.system.counters.incr("worker_prefetch_claims")
                else:
                    get_event = consumer.get()
                    try:
                        message = yield get_event
                    except Interrupt:
                        self._cancel_get(consumer, get_event)
                        break
                if self._stopped:
                    consumer.requeue(message)
                    break
                start = self.sim.now
                try:
                    outcome = yield from self._process_job(message)
                except Interrupt:
                    self.busy_seconds += self.sim.now - start
                    if not self._crashed:
                        # Graceful scale-down: the job was already
                        # consumed and its failure reported; ack it.
                        # A *crash* acks nothing — the caretaker will
                        # redeliver the message to another worker.
                        consumer.ack(message)
                    break
                self.busy_seconds += self.sim.now - start
                if outcome is False:
                    # Unparseable message: requeue it (another worker
                    # generation might understand it) until the attempt
                    # budget routes it to the dead-letter list, where the
                    # system dead-letter consumer picks it up.
                    if not consumer.requeue(message):
                        self.system.counters.incr(
                            "task_messages_dead_lettered")
                        self._emit(EventType.WORKER_TASK_DEAD_LETTERED,
                                   message_id=message.id,
                                   attempts=message.attempts)
                else:
                    # The job was parsed out of the body long ago and the
                    # envelope is never touched again: recycle it.
                    consumer.ack_release(message)
        finally:
            consumer.close()
            self._close_slot(slot)

    @staticmethod
    def _cancel_get(consumer, get_event) -> None:
        if not get_event.triggered:
            # Withdraw the pending get so no message is delivered into
            # the void after this executor exits.
            get_event.succeed(None)
        else:
            # Raced with a delivery: hand the message back to the channel.
            get_event.callbacks.append(
                lambda evt: evt.value is not None and
                consumer.requeue(evt.value))

    # -- job processing ------------------------------------------------------
    # Stages share one _JobRun; one that ends the job early sets run.status
    # and returns None.  Every exit leaves through _finish.

    def _process_job(self, message):
        try:
            job = Job.from_message(message.body)
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed task message (version skew, junk injected onto
            # the queue) must not crash the worker.  Returning False makes
            # the executor requeue it toward the dead-letter path; count
            # and log the parse error once, on first sight.
            if message.attempts <= 1:
                self.system.counters.incr("malformed_job_messages")
                self.jobs_failed += 1
            self._emit(EventType.WORKER_MALFORMED_MESSAGE,
                       message_id=message.id, attempts=message.attempts,
                       error=f"{type(exc).__name__}: {exc}")
            return False
        self.active_jobs += 1
        # Parent on the message headers: the broker.deliver span the
        # channel minted on claim (or the client's publish span if this
        # message never carried delivery tracing).
        span = self.system.tracer.start_span(
            "worker.job", parent=message.headers, kind="worker",
            attributes={"worker": self.id, "attempt": message.attempts},
            job_id=job.id)
        self._active_spans.append(span)
        run = _JobRun(self, job, message.attempts, span)
        settled = False     # stays False on a crash or unexpected unwind
        try:
            run.publish("status", status="accepted")
            self._emit("job.state_change", span=span, job_id=job.id,
                       team=job.team, status="accepted",
                       attempt=message.attempts)
            spec = self._parse(run)
            if spec is not None:
                project_fs = yield from self._fetch(run)
                if project_fs is not None:
                    yield from self._build(run, spec, project_fs)
            settled = True
        except JobDeadlineExceeded as exc:
            # The paper's 1-hour cap, applied wall-clock: kill whatever is
            # left (the container was released on the way out) and report
            # a terminal failure so the executor slot frees up.
            run.log("stderr", f"✗ {exc}\n")
            run.status, run.exit_code = JobStatus.FAILED, 124
            self.system.counters.incr("jobs_deadline_exceeded")
            self._emit(EventType.JOB_DEADLINE_EXCEEDED, span=span,
                       job_id=job.id, team=job.team)
            span.add_event("deadline_exceeded",
                           deadline_s=self.config.job_deadline_seconds)
            settled = True
        except Interrupt:
            if not self._crashed:
                run.log("stderr", "✗ worker shutting down mid-job\n")
                run.status = JobStatus.FAILED
                settled = True
            raise
        finally:
            self._finish(run, settled)

    def _parse(self, run: "_JobRun"):
        """Step 2 — credentials and build spec; None rejects the job."""
        try:
            with self.system.tracer.start_span("buildspec.parse",
                                               parent=run.span,
                                               kind="worker"):
                self._verify(run.job)
                spec = parse_build_spec(run.job.spec_yaml)
                spec.validate(
                    image_whitelist=self.system.registry.whitelist or None)
        except (InvalidCredentials, SignatureMismatch,
                BuildSpecError, ContainerError) as exc:
            run.log("stderr", f"✗ job rejected: {exc}\n")
            run.status = JobStatus.REJECTED
            return None
        return spec

    def _fetch(self, run: "_JobRun"):
        """Step 4 — fetch and unpack the project; None ends the job:
        failed once transient errors exhaust their retries, rejected on a
        permanent one (NoSuchKey after lifecycle expiry etc.)."""
        job = run.job
        get_span = self.system.tracer.start_span(
            "storage.get", parent=run.span, kind="storage",
            attributes={"bucket": job.upload_bucket, "key": job.upload_key})
        try:
            archive = yield from self._storage_call(
                run, "project fetch",
                lambda: self.system.storage.get_object(
                    job.upload_bucket, job.upload_key),
                span=get_span)
        except StorageError as exc:
            transient = isinstance(exc, TransientStorageError)
            run.log("stderr", "✗ cannot fetch project"
                    f"{' after retries' if transient else ''}: {exc}\n")
            get_span.end(status="error", message=str(exc))
            run.status = (JobStatus.FAILED if transient
                          else JobStatus.REJECTED)
            return None
        transfer_bytes = self._fetch_transfer_bytes(archive)
        run.fetch_bytes = transfer_bytes
        get_span.set_attribute("transfer_bytes", transfer_bytes)
        get_span.set_attribute("object_bytes", archive.size)
        yield self.sim.timeout(
            transfer_bytes / self.config.storage_bandwidth_bps)
        get_span.end()
        self._check_deadline(run.deadline)
        project_fs = VirtualFileSystem(clock=lambda: self.sim.now)
        unpack_tree(archive.data, project_fs, "/")
        run.source_digest = self._source_digest(archive, project_fs)
        return project_fs

    def _build(self, run: "_JobRun", spec, project_fs):
        """Steps 3, 5 and 6 — container, build commands, artifact upload."""
        job = run.job
        # Pull missing image layers on a cache miss, then acquire warm
        # from the pool or create cold.
        pull_cost = self.runtime.pull_cost_seconds(spec.image)
        if pull_cost > 0:
            run.log("stdout", f"Pulling image {spec.image} ...\n")
            run.span.add_event("image.pull", image=spec.image,
                               seconds=pull_cost)
            self.system.counters.incr(
                "image_bytes_pulled",
                int(pull_cost * self.runtime.pull_bandwidth_bps))
            yield self.sim.timeout(pull_cost)
            self._check_deadline(run.deadline)
        container, run.pool_hit, acquire_cost = self.pool.acquire(
            spec.image,
            limits=self.config.limits,
            mounts=[VolumeMount("/src", read_only=True, source_fs=project_fs),
                    cuda_volume()],
            gpu_device=self.gpu,
            on_output=run.log,
            usage_key=job.team or job.username,
        )
        try:
            if acquire_cost > 0:
                yield self.sim.timeout(acquire_cost)
            run.span.add_event("container.acquire", pool_hit=run.pool_hit,
                               seconds=acquire_cost, container=container.id,
                               generation=container.generation)
            self._acquire_seconds[
                "warm" if run.pool_hit else "cold"].observe(acquire_cost)
            self._check_deadline(run.deadline)
            # Contention noise flows into the container's measured times:
            # alone on a worker it is ~SOLO_JITTER; with co-running jobs
            # it grows — the single-job-mode ablation's mechanism.
            container.time_dilation = self._timing_noise
            container.start()
            run.publish("status", status="running", container=container.id)
            self._emit("job.state_change", span=run.span, job_id=job.id,
                       team=job.team, status="running",
                       container=container.id)
            run_span = self.system.tracer.start_span(
                "container.run", parent=run.span, kind="container",
                attributes={"image": spec.image, "container": container.id})
            cache_key = None
            if self.system.build_cache is not None and spec.cache_enabled:
                cache_key = image_cache_key(
                    self.runtime.registry.get(spec.image))
            run.exit_code = 0
            for command in spec.build_commands:
                run.exit_code = yield from self._run_command(
                    run, container, command, run_span, cache_key)
                if run.exit_code != 0:
                    break
            run.status = (JobStatus.SUCCEEDED if run.exit_code == 0
                          else JobStatus.FAILED)
            run_span.set_attribute("exit_code", run.exit_code)
            run_span.end(status=None if run.exit_code == 0 else "error")
            if container.fs is not None and container.fs.isdir("/build"):
                yield from self._upload(run, container)
        finally:
            self.pool.release(container)

    def _run_command(self, run: "_JobRun", container, command: str,
                     run_span, cache_key: Optional[str]):
        """Step 5 for one command: replay it from the build cache or run
        it.  Returns its exit code."""
        self._check_deadline(run.deadline)
        run.publish("command", command=command)
        exec_span = self.system.tracer.start_span(
            "container.exec", parent=run_span, kind="container",
            attributes={"command": command})
        build_cache = self.system.build_cache
        cacheable = cache_key is not None and command_cacheable(command)
        entry = None
        if cacheable:
            entry = build_cache.lookup(cache_key, container.workdir,
                                       command, container.fs,
                                       job_id=run.job.id)
        if entry is not None:
            # Cache hit: replay the recorded artifact tree, streams, and
            # exit code instead of executing.  Burn the timing-noise draws
            # the real execution would have taken, so every downstream RNG
            # consumer sees the exact same sequence and run output stays
            # byte-identical cache on or off.
            for _ in range(entry.rng_draws):
                self._timing_noise()
            artifact_bytes = build_cache.apply(entry, container.fs)
            replay_seconds = (REPLAY_SECONDS + artifact_bytes
                              / self.config.storage_bandwidth_bps)
            exec_span.set_attribute("cache", "hit")
            exec_span.add_event(
                "buildcache.replay", key=entry.key[:16],
                artifact_bytes=artifact_bytes,
                saved_seconds=round(entry.charged_seconds - replay_seconds,
                                    6))
            run.exec_seconds += replay_seconds
            run.saved_seconds += max(0.0,
                                     entry.charged_seconds - replay_seconds)
            yield self.sim.timeout(replay_seconds)
            if entry.stdout:
                run.log("stdout", entry.stdout)
            if entry.stderr:
                run.log("stderr", entry.stderr)
            exit_code = entry.exit_code
            exec_span.set_attribute("exit_code", exit_code)
        else:
            if cacheable:
                # Record what the command observes (reads, stat probes,
                # tree walks) and writes; the container counts the
                # timing-noise draws it consumes.
                trace = container.fs.start_tracking()
                draws_before = container.dilation_draws
            try:
                result = container.exec_line(command)
            finally:
                if cacheable and container.fs is not None:
                    container.fs.stop_tracking()
            # sim_duration already includes contention dilation (applied
            # at charge time inside the container).
            run.exec_seconds += result.sim_duration
            yield self.sim.timeout(result.sim_duration)
            exit_code = result.exit_code
            exec_span.set_attribute("exit_code", exit_code)
            if result.error is not None:
                run.log("stderr", f"✗ {result.error}\n")
                exec_span.add_event("error", error=result.error)
                exec_span.end(status="error", message=result.error)
                return exit_code
            if cacheable:
                # Publish only after the execution's sim time has fully
                # elapsed: an interrupt (crash) inside the timeout above
                # unwinds this generator before the entry exists, so no
                # partial artifact can ever be observed.  Non-zero exits
                # are cached too — a deterministic compile error replays
                # as cheaply as a success.
                build_cache.capture(
                    cache_key, container.workdir, command, trace,
                    container.fs, result.stdout, result.stderr, exit_code,
                    result.sim_duration,
                    container.dilation_draws - draws_before,
                    source_digest=run.source_digest, job_id=run.job.id)
                exec_span.set_attribute("cache", "miss")
        if exit_code != 0:
            run.log("stderr", f"✗ command exited with status {exit_code}\n")
            exec_span.end(status="error", message=f"exit {exit_code}")
        else:
            exec_span.end()
        return exit_code

    def _upload(self, run: "_JobRun", container):
        """Step 6 — archive /build, upload it, and announce its URL."""
        config = self.system.config
        blob = pack_tree(container.fs, "/build")
        key = f"{run.job.id}/build.tar.bz2"
        put_span = self.system.tracer.start_span(
            "storage.put", parent=run.span, kind="storage",
            attributes={"bucket": config.build_bucket, "key": key,
                        "bytes": len(blob)})
        yield self.sim.timeout(len(blob) / self.config.storage_bandwidth_bps)
        try:
            yield from self._storage_call(
                run, "build upload",
                lambda: self.system.storage.put_object(
                    config.build_bucket, key, blob,
                    metadata={"job_id": run.job.id,
                              "username": run.job.username,
                              "team": run.job.team or "",
                              "kind": run.job.kind.value}),
                span=put_span)
        except TransientStorageError as exc:
            # Degrade rather than fail the whole job: the build ran; only
            # its artifact is lost.
            run.log("stderr", f"⚠ build upload failed after retries: {exc}\n")
            put_span.end(status="error", message=str(exc))
            self.system.counters.incr("build_upload_failures")
            return
        put_span.end()
        run.upload_bytes = len(blob)
        run.build_url = self.system.storage.presign_get(
            config.build_bucket, key,
            expires_in=PRESIGN_EXPIRY_SECONDS)
        run.publish("build", url=run.build_url, key=key,
                    bucket=config.build_bucket, size=len(blob))

    def _finish(self, run: "_JobRun", settled: bool) -> None:
        """The one terminal path: record, bill, count, publish End, close."""
        job, span = run.job, run.span
        if settled and run.status is not JobStatus.REJECTED:
            # Record the submission and, for finals, the ranking.
            self._record(run)
        if run.status is JobStatus.SUCCEEDED:
            self.jobs_completed += 1
        else:
            self.jobs_failed += 1
        if not self._crashed:
            # A crashed worker's job is not *finished*: the redelivered
            # attempt (which re-runs the work) reports, counts toward the
            # success-ratio SLO, and bills — its originating team, since
            # attribution rides the job document.
            self.system.usage.record_job(
                job.team or job.username, job_id=job.id,
                trace_id=span.trace_id,
                container_seconds=run.exec_seconds,
                gpu_seconds=(run.exec_seconds
                             if self.gpu is not None else 0.0),
                slot_seconds=self.sim.now - run.started,
                bytes_downloaded=run.fetch_bytes,
                bytes_uploaded=run.upload_bytes,
                build_seconds_saved=run.saved_seconds)
            self._jobs_finished[run.status.value].inc()
            self._emit("job.state_change", span=span, job_id=job.id,
                       team=job.team, status=run.status.value,
                       exit_code=run.exit_code, worker_final=True)
            # The End message carries the publish span's context so the
            # client-side delivery joins the trace.
            end_span = self.system.tracer.start_span(
                "result.publish", parent=span, kind="worker",
                attributes={"status": run.status.value})
            run.publish("end", status=run.status.value,
                        exit_code=run.exit_code, _headers=end_span.headers())
            end_span.end()
        span.set_attribute("status", run.status.value)
        # Safety net: ends whatever children an exceptional unwind
        # (deadline, interrupt) left open, then the job span itself.  A
        # crash already ended the subtree with an error status.
        self.system.tracer.end_subtree(span)
        if span in self._active_spans:
            self._active_spans.remove(span)
        run.producer.close()
        self.active_jobs -= 1

    # -- helpers ------------------------------------------------------------

    def _fetch_transfer_bytes(self, obj) -> int:
        """Bytes a project fetch moves, given the worker's content cache.

        Chunked objects are accounted per chunk digest (plus a padding
        pseudo-entry keyed on the object's etag); plain objects by their
        whole-object etag.  Every ref touched is promoted/inserted into
        the LRU, then the cache is trimmed to its byte budget.
        """
        manifest = getattr(obj, "manifest", None)
        if manifest is not None:
            refs = [(c.digest, c.size) for c in manifest.chunks]
            if obj.padding_bytes:
                refs.append((f"{obj.etag}:padding", obj.padding_bytes))
        else:
            refs = [(obj.etag, obj.size)]
        budget = self.config.fetch_cache_bytes
        transferred = 0
        saved = 0
        for digest, size in refs:
            if budget and digest in self._fetch_cache:
                self._fetch_cache.move_to_end(digest)
                saved += size
                continue
            transferred += size
            if budget:
                self._fetch_cache[digest] = size
                self._fetch_cache_bytes += size
        while self._fetch_cache_bytes > budget:
            _, evicted = self._fetch_cache.popitem(last=False)
            self._fetch_cache_bytes -= evicted
            self.fetch_cache_evictions += 1
        self.fetch_cache_hit_bytes += saved
        self.fetch_cache_miss_bytes += transferred
        self.system.counters.incr("worker_fetch_bytes", transferred)
        if saved:
            self.system.counters.incr("worker_fetch_bytes_saved", saved)
        return transferred

    def fetch_cache_stats(self) -> dict:
        """Occupancy and effectiveness of the chunk fetch cache."""
        total = self.fetch_cache_hit_bytes + self.fetch_cache_miss_bytes
        return {
            "entries": len(self._fetch_cache),
            "bytes": self._fetch_cache_bytes,
            "budget_bytes": self.config.fetch_cache_bytes,
            "hit_bytes": self.fetch_cache_hit_bytes,
            "miss_bytes": self.fetch_cache_miss_bytes,
            "evictions": self.fetch_cache_evictions,
            "hit_rate": (self.fetch_cache_hit_bytes / total) if total
            else 0.0,
        }

    def _source_digest(self, archive, project_fs) -> Optional[str]:
        """Content identity of the fetched source tree.

        Free when the upload's manifest carries per-file digests (the
        delta-ingest path); otherwise derived by hashing the unpacked
        tree once — same canonical form either way.
        """
        manifest = getattr(archive, "manifest", None)
        if manifest is not None and manifest.files:
            return manifest.tree_digest()
        files = {path: file_digest(project_fs.read_file(path))
                 for path in project_fs.iter_files("/")}
        return digest_file_map(files) if files else None

    def _check_deadline(self, deadline) -> None:
        if deadline is not None and self.sim.now >= deadline:
            raise JobDeadlineExceeded(
                f"job exceeded its "
                f"{self.config.job_deadline_seconds:.0f}s deadline")

    def _storage_call(self, run: "_JobRun", label: str, fn, span):
        """Run a storage operation under the worker's retry policy.

        Generator (``yield from`` it): backoff sleeps happen in simulated
        time.  Only :class:`TransientStorageError` is retried; permanent
        errors and the final transient failure propagate unaltered.
        ``span`` gets a ``retry`` event per attempt.
        """
        policy = STORAGE_RETRY

        def on_retry(attempt, exc):
            self._check_deadline(run.deadline)
            self.system.counters.incr("storage_retries")
            span.add_event("retry", attempt=attempt,
                           error=f"{type(exc).__name__}: {exc}")
            run.log("stderr", f"⚠ {label} failed ({exc}); "
                    f"retry {attempt}/{policy.max_attempts - 1}\n")

        return (yield from policy.call(
            self.sim, fn, rng=self._retry_rng,
            retry_on=(TransientStorageError,), on_retry=on_retry))

    def _verify(self, job: Job):
        credential = self.system.keystore.lookup(job.access_key)
        from repro.auth.signing import verify_request

        body = job.to_message()
        signature = body.pop("signature")
        verify_request(credential.secret_key, body, job.submitted_at,
                       signature)
        return credential

    def _timing_noise(self) -> float:
        """Runtime multiplier; grows with co-running jobs (contention)."""
        base = 1.0 + SOLO_JITTER * float(self._rng.random())
        others = max(0, self.active_jobs - 1)
        contention = CONTENTION_JITTER * others * float(self._rng.random())
        return base + contention

    def _record(self, run: "_JobRun") -> None:
        # At-least-once delivery means a job can be processed twice (e.g.
        # a premature stale-sweep redelivered it while the original worker
        # was still alive).  Recording is made effectively-once: whichever
        # delivery records first wins; later ones are suppressed so the
        # submissions collection and the ranking never double-count.
        job = run.job
        record_span = self.system.tracer.start_span(
            "docdb.record", parent=run.span, kind="docdb",
            attributes={"collection": "submissions"})
        submissions = self.system.db.collection("submissions")
        if submissions.find_one({"job_id": job.id}) is not None:
            self.system.counters.incr("duplicate_records_suppressed")
            self._emit(EventType.JOB_DUPLICATE_SUPPRESSED, span=run.span,
                       job_id=job.id, team=job.team, attempts=run.attempts)
            record_span.set_attribute("duplicate", True)
            record_span.end()
            return
        stdout = "".join(t for s, t in run.outputs if s == "stdout")
        stderr = "".join(t for s, t in run.outputs if s == "stderr")
        elapsed = _ELAPSED_RE.findall(stdout)
        correctness = _CORRECTNESS_RE.findall(stdout)
        correctness = float(correctness[-1]) if correctness else None
        time_match = _TIME_RE.search(stderr)
        internal_time = float(elapsed[-1]) if elapsed else None
        instructor_time = float(time_match.group(1)) if time_match else None
        service_seconds = self.sim.now - run.started

        submissions.insert_one({
            "job_id": job.id,
            "attempts": run.attempts,
            "kind": job.kind.value,
            "username": job.username,
            "team": job.team,
            "worker": self.id,
            "status": run.status.value,
            "exit_code": run.exit_code,
            "submitted_at": job.submitted_at,
            "finished_at": self.sim.now,
            # Worker-side service time (fetch + acquire + build + upload):
            # the scheduler's runtime estimator seeds SJF from this.
            "service_seconds": service_seconds,
            "pool_hit": run.pool_hit,
            "internal_time": internal_time,
            "instructor_time": instructor_time,
            "correctness": correctness,
            "build_url": run.build_url,
            "log_bytes": sum(len(t) for _, t in run.outputs),
            "stdout_tail": stdout[-2000:],
            "stderr_tail": stderr[-2000:],
        })
        self.system.counters.incr("jobs_recorded")
        # Feed the fair-share estimator that owns this job's key: the
        # shared scheduler, or its partition's instance when sharded.
        self.system.note_completion(job.team or job.username,
                                    service_seconds)

        if job.kind is JobKind.SUBMIT and run.status is JobStatus.SUCCEEDED \
                and internal_time is not None and job.team:
            self.system.ranking.record_final(
                team=job.team,
                internal_time=internal_time,
                instructor_time=instructor_time or internal_time,
                correctness=correctness or 0.0,
                username=job.username,
                job_id=job.id,
                at=self.sim.now,
            )
            record_span.add_event("ranking.recorded", team=job.team)
        record_span.set_attribute("duplicate", False)
        record_span.end()


class _JobRun:
    """One job's state as it moves through the worker's stages."""

    __slots__ = ("worker", "job", "attempts", "span", "producer", "outputs",
                 "deadline", "started", "status", "exit_code", "build_url",
                 "pool_hit", "source_digest", "exec_seconds",
                 "saved_seconds", "fetch_bytes", "upload_bytes")

    def __init__(self, worker: RaiWorker, job: Job, attempts: int, span):
        now = worker.sim.now
        self.worker = worker
        self.job = job
        self.attempts = attempts
        self.span = span
        self.producer = Producer(worker.system.broker, f"log_{job.id}")
        #: (stream, text) of everything the job printed, for the record.
        self.outputs: List[tuple] = []
        limit = worker.config.job_deadline_seconds
        self.deadline = now + limit if limit is not None else None
        self.started = now
        self.status = JobStatus.FAILED
        self.exit_code: Optional[int] = None
        self.build_url: Optional[str] = None
        self.pool_hit: Optional[bool] = None
        self.source_digest: Optional[str] = None
        # Usage tallies, folded into ONE meter call by _finish (metering
        # must stay off the per-command path).
        self.exec_seconds = 0.0
        self.saved_seconds = 0.0
        self.fetch_bytes = 0
        self.upload_bytes = 0

    def publish(self, kind: str, _headers=None, **payload) -> None:
        """One message on the job's ``log_${job_id}`` topic."""
        self.producer.publish({"type": kind, "t": self.worker.sim.now,
                               "worker": self.worker.id, **payload},
                              headers=_headers)

    def log(self, stream: str, text: str) -> None:
        """Student-visible output: kept for the record and published."""
        self.outputs.append((stream, text))
        self.publish("log", stream=stream, text=text)
