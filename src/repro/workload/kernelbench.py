"""Kernel-scale workload: the event storm that stresses ``repro.sim`` itself.

Every other workload in this package measures the *system under test* —
dedup uploads, warm pools, SLO loops.  This one measures the simulator:
at semester scale the event calendar, the broker's per-delivery object
churn, and the metrics/event-log hot paths become the bottleneck, so the
kernel needs its own standing regression bench (the Ray observation:
serving millions of tasks is a fight against per-task overhead).

Two layers:

- **Sub-benches** (`bench_event_loop`, `bench_broker`, `bench_obs`,
  `bench_docdb`) isolate one subsystem each, so a regression report can
  attribute a slowdown to the kernel, the broker, the observability
  plane, or the document store.
- **The tier ladder** (`run_kernel_workload`) drives the real
  student → broker → worker → docdb path with every heavyweight
  component (containers, storage, buildspecs) stripped away: tens of
  thousands of student processes publishing through one genuine
  topic/channel to competing worker slots, with metrics, the event log,
  and sampled docdb records on the side.  The ``giant`` tier — 10,000
  students, 1,000,000 submissions — completes in minutes and is the
  scale at which ``BENCH_kernel.json`` tracks throughput.

Determinism is part of the contract: every run folds its delivery order
into a SHA-256 digest (`KernelResult.trace_digest`), and the golden-trace
test asserts two same-seed runs produce identical digests — the guard
that kernel optimizations never trade away reproducibility.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.broker.broker import MessageBroker
from repro.broker.client import Consumer
from repro.broker.message import message_pool, reset_message_ids
from repro.docdb.database import DocumentDB
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

#: Latency buckets matched to the sub-minute service times this workload
#: simulates (the default registry buckets start at 100 ms and would put
#: every observation in the first two buckets).
_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                    60.0, 300.0)


@dataclass(frozen=True)
class KernelScale:
    """One operating point of the kernel tier ladder."""

    name: str
    n_students: int
    n_submissions: int          # total across the whole class
    n_workers: int
    worker_slots: int = 4
    #: Record one in N completions to docdb (a full 1M-document insert
    #: would measure memory allocation, not the kernel).
    docdb_sample: int = 16
    #: Mean think time between one student's submissions (sim seconds).
    mean_think_s: float = 60.0
    #: Mean per-submission service time at a worker slot (sim seconds).
    mean_service_s: float = 0.2


SMOKE_TIER = KernelScale("smoke", n_students=50, n_submissions=2_000,
                         n_workers=2)
SMALL_TIER = KernelScale("small", n_students=500, n_submissions=20_000,
                         n_workers=4)
MEDIUM_TIER = KernelScale("medium", n_students=2_000, n_submissions=100_000,
                          n_workers=8)
LARGE_TIER = KernelScale("large", n_students=5_000, n_submissions=300_000,
                         n_workers=16)
#: The paper's course was 176 students / ~40k submissions; this is the
#: "every course on campus at once" tier the ROADMAP names.
GIANT_TIER = KernelScale("giant", n_students=10_000,
                         n_submissions=1_000_000, n_workers=32)

LADDER = (SMALL_TIER, MEDIUM_TIER, LARGE_TIER)


@dataclass
class KernelResult:
    """What one tier run reports back to the bench."""

    scale: KernelScale
    obs_enabled: bool
    submissions: int
    wall_s: float
    sim_duration_s: float
    kernel_events: int
    trace_digest: str
    latency_p50: float
    latency_p95: float
    events_emitted: int
    docdb_docs: int
    message_pool_stats: Optional[dict] = None

    @property
    def events_per_s(self) -> float:
        return self.kernel_events / self.wall_s if self.wall_s else 0.0

    @property
    def submissions_per_s(self) -> float:
        return self.submissions / self.wall_s if self.wall_s else 0.0

    def to_dict(self) -> dict:
        return {
            "scale": {"name": self.scale.name,
                      "n_students": self.scale.n_students,
                      "n_submissions": self.scale.n_submissions,
                      "n_workers": self.scale.n_workers},
            "obs_enabled": self.obs_enabled,
            "submissions": self.submissions,
            "wall_s": round(self.wall_s, 3),
            "sim_duration_s": round(self.sim_duration_s, 1),
            "kernel_events": self.kernel_events,
            "events_per_s": round(self.events_per_s),
            "submissions_per_s": round(self.submissions_per_s),
            "latency_s": {"p50": round(self.latency_p50, 4),
                          "p95": round(self.latency_p95, 4)},
            "obs_events_emitted": self.events_emitted,
            "docdb_docs": self.docdb_docs,
            "trace_digest": self.trace_digest,
            "message_pool": self.message_pool_stats,
        }


class _ChunkedExponential:
    """Amortised exponential draws: one numpy array refill per 4096 draws.

    Per-scalar ``Generator.exponential`` calls cost ~1 µs each; at a
    million submissions that is pure harness overhead, so workers draw
    service times in bulk.  Chunking changes *when* numbers are drawn
    but not their sequence, so determinism is unaffected.
    """

    __slots__ = ("rng", "mean", "_chunk", "_buf", "_i")

    def __init__(self, rng: np.random.Generator, mean: float,
                 chunk: int = 4096):
        self.rng = rng
        self.mean = mean
        self._chunk = chunk
        # ``.tolist()`` up front: handing np.float64 scalars to the kernel
        # makes every simulated timestamp a numpy scalar, which slows heap
        # comparisons stack-wide.  Conversion is exact, so determinism is
        # unaffected.
        self._buf = rng.exponential(mean, size=chunk).tolist()
        self._i = 0

    def next(self) -> float:
        i = self._i
        buf = self._buf
        if i >= len(buf):
            buf = self._buf = self.rng.exponential(
                self.mean, size=self._chunk).tolist()
            i = 0
        self._i = i + 1
        return buf[i]


def run_kernel_workload(scale: KernelScale, seed: int = 408,
                        obs: bool = True) -> KernelResult:
    """Drive one tier through the real broker path; returns the metrics.

    ``obs=False`` disables the event log and skips per-completion metric
    observations, so the bench can price the observability plane at any
    volume (`overhead = wall_on / wall_off - 1`).
    """
    reset_message_ids()
    wall_start = time.perf_counter()
    sim = Simulator()
    metrics = MetricsRegistry()
    # Ring sized to what an operator actually pages through, and the
    # one seven-figure-volume stream ring-sampled 1:16 — emission counts
    # stay exact (the SLO plane reads those), only the debugging window
    # is thinned.  Together with event recycling this bounds the obs
    # plane's resident working set to well under L2 even at giant-tier
    # heaps.
    events = EventLog(lambda: sim.now, max_events=512, enabled=obs,
                      sample={"job.state_change": 16})
    broker = MessageBroker(sim, metrics=metrics, events=events if obs else None)
    db = DocumentDB(sim, metrics=metrics)
    submissions = db.collection("submissions")
    submissions.create_index("job_id")

    channel = broker.channel("tasks/workers")
    total = scale.n_submissions
    digest = hashlib.sha256()
    latency = metrics.histogram("kernel_submit_latency",
                                buckets=_LATENCY_BUCKETS)
    published = metrics.counter("kernel_submissions_published")
    done = sim.event()
    state = {"completed": 0}

    root = np.random.SeedSequence(seed)
    student_seeds = root.spawn(scale.n_students)
    worker_seed = np.random.SeedSequence(entropy=root.entropy,
                                         spawn_key=(0x57F,))
    worker_rng = np.random.default_rng(worker_seed)

    per_student = total // scale.n_students
    remainder = total - per_student * scale.n_students

    def student(idx: int, n_subs: int):
        rng = np.random.default_rng(student_seeds[idx])
        thinks = rng.exponential(scale.mean_think_s, size=n_subs).tolist()
        timeout = sim.timeout
        publish = broker.publish
        base = idx * (per_student + 1)
        for k in range(n_subs):
            yield timeout(thinks[k])
            publish("tasks", {"j": base + k, "s": idx, "t": sim.now})
            published.inc()

    # Opt-in fan-out-copy recycling: this loop provably drops its message
    # reference after ack, so it may return copies to the broker freelist.
    release = channel.ack_release

    def worker(wid: int, service: _ChunkedExponential):
        consumer = Consumer(broker, "tasks/workers")
        timeout = sim.timeout
        update = digest.update
        sample = scale.docdb_sample
        observe = latency.observe
        emit = events.emit
        while state["completed"] < total:
            msg = consumer.try_get()
            if msg is None:
                msg = yield consumer.get()
                if msg is None:
                    break
            yield timeout(service.next())
            body = msg.body
            now = sim.now
            n = state["completed"] = state["completed"] + 1
            update(b"%d;%d;%r;%d" % (body["j"], wid, now, msg.attempts))
            if obs:
                observe(now - body["t"])
                # ``at=now`` skips the log's clock() indirection — the
                # loop already has the timestamp in hand.
                emit("job.state_change", at=now, job_id=body["j"],
                     worker=wid, state="finished")
            if n % sample == 0:
                submissions.insert_one({"job_id": body["j"],
                                        "student": body["s"],
                                        "finished_at": now})
            release(msg)
            if n >= total:
                done.succeed()
                break
        consumer.close()

    for idx in range(scale.n_students):
        n_subs = per_student + (1 if idx < remainder else 0)
        if n_subs:
            sim.process(student(idx, n_subs))
    for w in range(scale.n_workers * scale.worker_slots):
        sim.process(worker(w, _ChunkedExponential(
            worker_rng, scale.mean_service_s)))

    sim.run(until=done)
    wall = time.perf_counter() - wall_start
    return KernelResult(
        scale=scale,
        obs_enabled=obs,
        submissions=state["completed"],
        wall_s=wall,
        sim_duration_s=sim.now,
        kernel_events=sim.scheduled_events,
        trace_digest=digest.hexdigest(),
        latency_p50=latency.percentile(50),
        latency_p95=latency.percentile(95),
        events_emitted=events.total_emitted,
        docdb_docs=len(submissions),
        message_pool_stats=message_pool.stats(),
    )


# -- per-subsystem sub-benches -------------------------------------------------


def bench_event_loop(n_events: int = 200_000, n_procs: int = 200,
                     seed: int = 7) -> dict:
    """Pure kernel throughput: timeout cascades, no payload work.

    The event count here is structural — ``n_procs`` bootstraps, one
    Timeout per yield, one completion per process — so pre- and
    post-optimization runs process the *same* number of events and the
    events/sec ratio is a clean kernel speedup.
    """
    sim = Simulator()
    rng = np.random.default_rng(seed)
    per_proc = n_events // n_procs

    def cascade(delays):
        timeout = sim.timeout
        for d in delays:
            yield timeout(d)

    wall_start = time.perf_counter()
    for p in range(n_procs):
        sim.process(cascade(rng.exponential(1.0, size=per_proc).tolist()))
    sim.run()
    wall = time.perf_counter() - wall_start
    # Timeouts + one bootstrap and one completion event per process.
    events = n_procs * per_proc + 2 * n_procs
    return {"events": events, "wall_s": round(wall, 3),
            "events_per_s": round(events / wall)}


def bench_broker(n_messages: int = 100_000, n_consumers: int = 8,
                 seed: int = 7) -> dict:
    """Publish → fan-out → deliver → ack churn through one real channel."""
    reset_message_ids()
    sim = Simulator()
    broker = MessageBroker(sim)
    rng = np.random.default_rng(seed)
    state = {"done": 0}
    finished = sim.event()

    def producer(gaps):
        timeout = sim.timeout
        publish = broker.publish
        for i in range(n_messages):
            yield timeout(gaps[i])
            publish("bench", {"i": i})

    release = broker.channel("bench/c").ack_release

    def consumer_proc():
        consumer = Consumer(broker, "bench/c")
        while state["done"] < n_messages:
            msg = consumer.try_get()
            if msg is None:
                msg = yield consumer.get()
                if msg is None:
                    break
            release(msg)
            state["done"] += 1
            if state["done"] >= n_messages:
                finished.succeed()
                break
        consumer.close()

    wall_start = time.perf_counter()
    sim.process(producer(rng.exponential(0.01, size=n_messages).tolist()))
    for _ in range(n_consumers):
        sim.process(consumer_proc())
    sim.run(until=finished)
    wall = time.perf_counter() - wall_start
    return {"messages": n_messages, "wall_s": round(wall, 3),
            "messages_per_s": round(n_messages / wall)}


def bench_obs(n_ops: int = 200_000) -> dict:
    """Nanoseconds per operation on the three obs hot paths."""
    metrics = MetricsRegistry()
    counter = metrics.counter("bench_counter")
    hist = metrics.histogram("bench_hist")
    log_on = EventLog(lambda: 0.0, max_events=1024, enabled=True)
    log_off = EventLog(lambda: 0.0, max_events=1024, enabled=False)

    def timed(fn) -> float:
        start = time.perf_counter()
        for i in range(n_ops):
            fn(i)
        return (time.perf_counter() - start) / n_ops * 1e9

    from repro.obs.metrics import CounterGroup
    group = CounterGroup(metrics, prefix="bench_")
    return {
        "ops": n_ops,
        "counter_inc_ns": round(timed(lambda i: counter.inc())),
        "counter_group_incr_ns": round(timed(lambda i: group.incr("grouped"))),
        "histogram_observe_ns": round(timed(lambda i: hist.observe(i % 512))),
        "event_emit_ns": round(timed(
            lambda i: log_on.emit("bench.tick", job_id=i))),
        "event_emit_disabled_ns": round(timed(
            lambda i: log_off.emit("bench.tick", job_id=i))),
    }


def bench_docdb(n_docs: int = 50_000, n_probes: int = 20_000,
                seed: int = 7) -> dict:
    """Indexed insert and point-probe throughput."""
    db = DocumentDB()
    coll = db.collection("bench")
    coll.create_index("job_id")
    rng = np.random.default_rng(seed)

    start = time.perf_counter()
    for i in range(n_docs):
        coll.insert_one({"job_id": i, "team": i & 63, "x": float(i)})
    insert_wall = time.perf_counter() - start

    probe_ids = rng.integers(0, n_docs, size=n_probes)
    start = time.perf_counter()
    for jid in probe_ids:
        coll.find_one({"job_id": int(jid)})
    probe_wall = time.perf_counter() - start
    return {
        "docs": n_docs,
        "inserts_per_s": round(n_docs / insert_wall),
        "probes_per_s": round(n_probes / probe_wall),
    }


__all__ = [
    "KernelScale", "KernelResult",
    "SMOKE_TIER", "SMALL_TIER", "MEDIUM_TIER", "LARGE_TIER", "GIANT_TIER",
    "LADDER", "run_kernel_workload",
    "bench_event_loop", "bench_broker", "bench_obs", "bench_docdb",
]
