"""Interactive sessions — the paper's stated future work, implemented.

§VIII: "Future work of RAI includes allowing instructors to configure
interactive sessions to enable more debugging and profiling tools."

An interactive session gives a student a live container on a worker for a
bounded time: commands are sent one at a time over the broker and state
persists *between* commands (unlike batch jobs, where each submission gets
a fresh container).  The same sandbox contract applies — whitelisted
image, no network, memory cap — plus a session deadline and an idle
timeout so an absent student cannot squat on a GPU.

Wire protocol (all over ordinary broker topics, ephemeral like job logs):

- requests:  ``rai-interactive/sessions`` (competing consumers = workers
  with ``enable_interactive``);
- inputs:    ``log_isin_${session_id}/#in`` — ``exec`` / ``detach``;
- outputs:   ``log_isout_${session_id}/#out`` — ``attached`` / ``log`` /
  ``result`` / ``end``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.auth.signing import sign_request, verify_request
from repro.broker.client import Consumer, Producer
from repro.errors import (
    BuildSpecError,
    ImageNotFound,
    ImageNotWhitelisted,
    Interrupt,
    InvalidCredentials,
    RaiError,
    RateLimited,
    SignatureMismatch,
)
from repro.vfs import VirtualFileSystem, pack_tree, unpack_tree

#: Route interactive-capable workers consume from.
SESSION_ROUTE = "rai-interactive/sessions"

#: Default wall-clock budget of a session (instructor-configurable).
DEFAULT_SESSION_SECONDS = 1800.0

#: A session with no commands for this long is reclaimed.
DEFAULT_IDLE_SECONDS = 300.0

_session_counter = itertools.count(1)


def new_session_id() -> str:
    return f"isess-{next(_session_counter):06d}"


def reset_session_ids() -> None:
    global _session_counter
    _session_counter = itertools.count(1)


@dataclass
class CommandOutcome:
    """Result of one interactive command."""

    command: str
    exit_code: int
    stdout: str
    stderr: str
    duration: float


@dataclass
class SessionTranscript:
    """Everything that happened in one session (recorded in the DB)."""

    session_id: str
    status: str = "pending"          # attached/ended/rejected/expired
    worker_id: Optional[str] = None
    outcomes: List[CommandOutcome] = field(default_factory=list)
    error: Optional[str] = None
    end_reason: Optional[str] = None


class InteractiveSession:
    """Client-side handle.

    Usage (inside a simulation process)::

        session = InteractiveSession(client)
        yield from session.start()
        outcome = yield from session.run("nvprof ./ece408 ...")
        yield from session.close()
    """

    def __init__(self, client, image: str = "webgpu/rai:root",
                 max_duration: float = DEFAULT_SESSION_SECONDS,
                 upload_project: bool = True):
        self.client = client
        self.system = client.system
        self.sim = client.sim
        self.image = image
        self.max_duration = max_duration
        self.upload_project = upload_project
        self.session_id = new_session_id()
        self.transcript = SessionTranscript(session_id=self.session_id)
        self._out: Optional[Consumer] = None
        self._in: Optional[Producer] = None
        self._seq = itertools.count(1)
        self._ended = False

    @property
    def is_attached(self) -> bool:
        return self.transcript.status == "attached" and not self._ended

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Request a session and wait for a worker to attach (generator)."""
        profile = self.client.profile
        try:
            self.system.keystore.verify_pair(profile.access_key,
                                             profile.secret_key)
            self.system.rate_limiter.check(
                f"interactive:{self.client.team or profile.username}")
        except (InvalidCredentials, RateLimited) as exc:
            self.transcript.status = "rejected"
            self.transcript.error = str(exc)
            return self.transcript

        upload_key = None
        if self.upload_project and self.client.project_fs.file_count("/"):
            archive = pack_tree(self.client.project_fs, "/")
            yield self.sim.timeout(
                len(archive) / self.system.config.client_bandwidth_bps)
            upload_key = f"{profile.username}/{self.session_id}.tar.bz2"
            self.system.storage.put_object(
                self.system.config.upload_bucket, upload_key, archive,
                metadata={"session": self.session_id})

        body = {
            "session_id": self.session_id,
            "username": profile.username,
            "team": self.client.team,
            "access_key": profile.access_key,
            "image": self.image,
            "max_duration": self.max_duration,
            "upload_key": upload_key,
            "requested_at": self.sim.now,
        }
        body["signature"] = sign_request(profile.secret_key,
                                         {k: v for k, v in body.items()
                                          if k != "signature"},
                                         self.sim.now)
        # Subscribe to outputs before publishing the request.
        self._out = Consumer(self.system.broker,
                             f"log_isout_{self.session_id}/#out")
        self._in = Producer(self.system.broker,
                            f"log_isin_{self.session_id}")
        self.system.broker.publish("rai-interactive", body)
        self.system.counters.incr("interactive_sessions_requested")

        while True:
            message = yield self._out.get()
            self._out.ack(message)
            payload = message.body
            if payload["type"] == "attached":
                self.transcript.status = "attached"
                self.transcript.worker_id = payload["worker"]
                return self.transcript
            if payload["type"] in ("rejected", "end"):
                self.transcript.status = "rejected"
                self.transcript.error = payload.get("error", "rejected")
                self._teardown()
                return self.transcript

    def run(self, command: str):
        """Execute one command in the live container (generator)."""
        if not self.is_attached:
            raise RaiError("session is not attached")
        seq = next(self._seq)
        self._in.publish({"type": "exec", "command": command, "seq": seq})
        stdout_parts: List[str] = []
        stderr_parts: List[str] = []
        while True:
            message = yield self._out.get()
            self._out.ack(message)
            payload = message.body
            if payload["type"] == "log":
                (stdout_parts if payload["stream"] == "stdout"
                 else stderr_parts).append(payload["text"])
                if self.client.on_line is not None:
                    self.client.on_line(payload["stream"], payload["text"])
            elif payload["type"] == "result" and payload["seq"] == seq:
                outcome = CommandOutcome(
                    command=command,
                    exit_code=payload["exit_code"],
                    stdout="".join(stdout_parts),
                    stderr="".join(stderr_parts),
                    duration=payload["duration"],
                )
                self.transcript.outcomes.append(outcome)
                return outcome
            elif payload["type"] == "end":
                self._mark_ended(payload)
                raise RaiError(
                    f"session ended mid-command: {payload.get('reason')}")

    def close(self):
        """Detach cleanly (generator)."""
        if self._ended:
            return self.transcript
        if self._in is not None:
            self._in.publish({"type": "detach"})
        while not self._ended:
            message = yield self._out.get()
            self._out.ack(message)
            if message.body["type"] == "end":
                self._mark_ended(message.body)
        return self.transcript

    # -- internals ----------------------------------------------------------

    def _mark_ended(self, payload: dict) -> None:
        self._ended = True
        self.transcript.status = "ended"
        self.transcript.end_reason = payload.get("reason")
        self._teardown()

    def _teardown(self) -> None:
        if self._out is not None:
            self._out.close()
            self._out = None
        if self._in is not None:
            self._in.close()
            self._in = None


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def serve_sessions(worker):
    """Worker process: serve interactive sessions one at a time.

    Started by :class:`~repro.core.worker.RaiWorker` when its config has
    ``enable_interactive``.
    """
    consumer = Consumer(worker.system.broker, SESSION_ROUTE)
    try:
        while not worker._stopped:
            get_event = consumer.get()
            try:
                message = yield get_event
            except Interrupt:   # worker stop
                worker._cancel_get(consumer, get_event)
                break
            if worker._stopped:
                consumer.requeue(message)
                break
            yield from _serve_one(worker, message.body)
            consumer.ack(message)
    finally:
        consumer.close()


def _serve_one(worker, request: dict):
    sim = worker.sim
    system = worker.system
    session_id = request.get("session_id", "unknown")
    out = Producer(system.broker, f"log_isout_{session_id}")

    def publish(kind: str, **payload) -> None:
        out.publish({"type": kind, "t": sim.now, "worker": worker.id,
                     **payload})

    transcript_rows: List[Tuple[str, int, float]] = []
    reason = "detached"
    container = None
    try:
        # Authenticate exactly like batch jobs.
        try:
            credential = system.keystore.lookup(request["access_key"])
            body = {k: v for k, v in request.items() if k != "signature"}
            verify_request(credential.secret_key, body,
                           request["requested_at"], request["signature"])
            image = system.registry.get(request["image"])
        except (KeyError, InvalidCredentials, SignatureMismatch,
                ImageNotFound, ImageNotWhitelisted, BuildSpecError) as exc:
            publish("rejected", error=str(exc))
            return

        # Project mount (optional).
        from repro.container.volumes import VolumeMount, cuda_volume

        mounts = [cuda_volume()]
        if request.get("upload_key"):
            try:
                archive = system.storage.get_object(
                    system.config.upload_bucket, request["upload_key"])
                yield sim.timeout(
                    archive.size / worker.config.storage_bandwidth_bps)
                project_fs = VirtualFileSystem(clock=lambda: sim.now)
                unpack_tree(archive.data, project_fs, "/")
                mounts.insert(0, VolumeMount("/src", read_only=True,
                                             source_fs=project_fs))
            except Exception as exc:
                publish("rejected", error=f"cannot fetch project: {exc}")
                return

        pull = worker.runtime.pull_cost_seconds(request["image"])
        if pull > 0:
            yield sim.timeout(pull)
        container = worker.runtime.create_container(
            request["image"],
            limits=worker.config.limits,
            mounts=mounts,
            gpu_device=worker.gpu,
            on_output=lambda stream, text: publish("log", stream=stream,
                                                   text=text),
        )
        container.time_dilation = worker._timing_noise
        container.start()
        worker.active_jobs += 1
        publish("attached", container=container.id)
        system.counters.incr("interactive_sessions_served")

        deadline = sim.now + min(float(request.get("max_duration",
                                                   DEFAULT_SESSION_SECONDS)),
                                 worker.config.limits.max_lifetime_seconds)
        inbox = Consumer(system.broker, f"log_isin_{session_id}/#in")
        try:
            while True:
                remaining = deadline - sim.now
                if remaining <= 0:
                    reason = "session-deadline"
                    break
                get_event = inbox.get()
                idle_timer = sim.timeout(min(remaining,
                                             DEFAULT_IDLE_SECONDS))
                yield sim.any_of([get_event, idle_timer])
                if not get_event.triggered:
                    get_event.succeed(None)   # cancel the pending get
                    reason = ("session-deadline" if sim.now >= deadline
                              else "idle-timeout")
                    break
                message = get_event.value
                if message is None:
                    continue
                inbox.ack(message)
                payload = message.body
                if payload["type"] == "detach":
                    reason = "detached"
                    break
                if payload["type"] != "exec":
                    continue
                result = container.exec_line(payload["command"])
                yield sim.timeout(result.sim_duration)
                transcript_rows.append((payload["command"],
                                        result.exit_code,
                                        result.sim_duration))
                publish("result", seq=payload["seq"],
                        exit_code=result.exit_code,
                        duration=result.sim_duration,
                        error=result.error)
                from repro.container.container import ContainerState

                if container.state is not ContainerState.RUNNING:
                    # OOM-kill or lifetime cap ends the session; mere
                    # command failures (incl. network denial) do not —
                    # debugging failed commands is what sessions are FOR.
                    reason = f"container-{container.state.value}"
                    break
        finally:
            inbox.close()
    finally:
        if container is not None:
            worker.runtime.destroy_container(container)
            worker.active_jobs -= 1
        publish("end", reason=reason)
        out.close()
        system.db.collection("interactive_sessions").insert_one({
            "session_id": session_id,
            "username": request.get("username"),
            "team": request.get("team"),
            "worker": worker.id,
            "commands": [{"command": c, "exit_code": e, "duration": d}
                         for c, e, d in transcript_rows],
            "end_reason": reason,
            "ended_at": sim.now,
        })
