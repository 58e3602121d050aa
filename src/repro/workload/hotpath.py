"""Submission hot-path driver: N students × M resubmissions, measured.

The paper's load profile is not "many submissions" but "many
*re*-submissions": the same teams pushing near-identical projects dozens
of times against shared workers (§V, Figure 4 — 30,782 submissions in
two weeks from 58 teams).  This driver replays that shape at a chosen
scale and reports exactly the quantities the hot-path optimisations
target:

- p50/p95 simulated submit latency (queue → End), overall and split
  first-submission vs. resubmission (the build cache collapses the
  latter);
- build-artifact cache hits on resubmissions: every resubmission edits
  only a tuning file no build command reads, so its build inputs are
  identical and both build commands should replay from cache;
- upload dedup: wire bytes vs. the full re-upload cost, overall and for
  resubmissions alone;
- docdb access paths: the per-job dedup probe must run on the
  ``submissions.job_id`` index (``explain()`` proves it), and planner
  counters show how many scans the course avoided;
- worker fetch-cache savings and broker encode-once byte accounting.

``benchmarks/bench_hotpath.py`` runs this at several scales and writes
``BENCH_hotpath.json``; the tier-1 smoke test runs one tiny scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import SystemConfig, WorkerConfig
from repro.core.system import RaiSystem

#: Course scaffolding every student's project shares verbatim — the
#: cross-student dedup opportunity (starter code, datasets, build glue).
_SCAFFOLD_BLOB = ("// ECE408 course scaffold\n" * 64).encode()


def _scaffold_files() -> dict:
    files = {
        "CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 40,
        "USAGE": "cmake /src && make && ./ece408 data/model\n",
        "report.pdf": b"%PDF-1.4" + bytes(6144),
    }
    for i in range(4):
        files[f"support/common_{i}.h"] = _SCAFFOLD_BLOB
    return files


def _student_source(student: int) -> str:
    # Unique per student, stable across that student's resubmissions.
    return ("// @rai-sim quality=0.9 impl=im2col\n"
            "#define TILE_WIDTH 16\n"
            + f"// student {student}\n" * 100)


def _tuning_file(student: int, attempt: int) -> str:
    # The file a resubmission edits.  Named to sort last so the edit
    # stays in the archive's tail chunks (fixed-size chunking).
    return (f"// student {student} attempt {attempt}\n"
            f"#define BLOCK_DIM {8 + attempt}\n")


@dataclass
class HotpathScale:
    """One benchmarked operating point."""

    name: str
    n_students: int
    n_resubmissions: int        # per student, beyond the first submit
    n_workers: int = 4


SMOKE_SCALE = HotpathScale("smoke", n_students=3, n_resubmissions=2,
                           n_workers=2)

DEFAULT_SCALES = (
    HotpathScale("small", n_students=4, n_resubmissions=3, n_workers=2),
    HotpathScale("medium", n_students=10, n_resubmissions=6, n_workers=4),
    HotpathScale("large", n_students=20, n_resubmissions=10, n_workers=6),
)


def run_hotpath(scale: HotpathScale, seed: int = 408,
                dedup: bool = True,
                config: Optional[SystemConfig] = None,
                observability: bool = False,
                durability_path: Optional[str] = None) -> dict:
    """Replay the resubmission storm at ``scale``; returns the metrics.

    ``observability=True`` additionally starts the periodic scrape →
    SLO-judge → alert loop (:meth:`RaiSystem.start_observability`), so
    the bench can price the full event-log + alerting pipeline against
    a run with the event log disabled and no scraping.

    ``durability_path`` attaches a write-ahead log + snapshot directory
    (:meth:`RaiSystem.attach_durability`) so the durability bench can
    price journaling against the memory-only baseline.
    """
    wall_start = time.perf_counter()
    config = config or SystemConfig()
    config.dedup_uploads = dedup
    system = RaiSystem.standard(
        num_workers=scale.n_workers, seed=seed, config=config,
        worker_config=WorkerConfig(max_concurrent_jobs=2))
    if observability:
        system.start_observability()
    if durability_path is not None:
        system.attach_durability(durability_path)
    # Range-capable index so time-window queries below run indexed too.
    submissions = system.db.collection("submissions")
    submissions.create_index("finished_at", ordered=True)

    latencies: List[float] = []
    first_latencies: List[float] = []
    resub_latencies: List[float] = []
    first_results = []
    resub_results = []
    gap = system.config.rate_limit_seconds + 1.0

    def student(i: int):
        client = system.new_client(username=f"student{i:03d}")
        files = _scaffold_files()
        files["main.cu"] = _student_source(i)
        files["zz_tuning.cfg"] = _tuning_file(i, 0)
        client.stage_project(files)
        # Stagger arrivals so the fleet sees a ragged burst, not a wall.
        yield system.sim.timeout(0.5 * i)
        for attempt in range(scale.n_resubmissions + 1):
            if attempt:
                client.stage_project(
                    {"zz_tuning.cfg": _tuning_file(i, attempt)})
                yield system.sim.timeout(gap)
            started = system.sim.now
            result = yield from client.submit()
            if result.finished_at is not None:
                latency = result.finished_at - started
                latencies.append(latency)
                (resub_latencies if attempt
                 else first_latencies).append(latency)
            (resub_results if attempt else first_results).append(result)

    system.run_all([student(i) for i in range(scale.n_students)])

    # -- docdb probe proof: the per-job dedup lookup runs indexed --------
    some_job = (first_results[0].job_id if first_results else None)
    probe = submissions.find({"job_id": some_job})
    probe_plan = probe.explain()
    window_plan = submissions.find(
        {"finished_at": {"$gte": 0.0}}).explain()

    def _upload_stats(results):
        wire = sum(r.upload_bytes or 0 for r in results)
        full = sum(r.upload_bytes_full or 0 for r in results)
        return {"submissions": len(results), "wire_bytes": wire,
                "full_bytes": full,
                "reduction": round(full / wire, 2) if wire else None}

    def _latency_stats(values):
        if not values:
            return None
        return {"p50": round(float(np.percentile(values, 50)), 3),
                "p95": round(float(np.percentile(values, 95)), 3),
                "mean": round(float(np.mean(values)), 3)}

    # Build-cache hit rate *on resubmissions*: attribute each
    # buildcache.hit/miss event to its job, then restrict to jobs that
    # were resubmissions (identical build inputs by construction).
    buildcache = None
    if system.build_cache is not None:
        resub_ids = {r.job_id for r in resub_results}
        resub_hits = sum(
            1 for e in system.events.query(type="buildcache.hit")
            if e.fields.get("job_id") in resub_ids)
        resub_misses = sum(
            1 for e in system.events.query(type="buildcache.miss")
            if e.fields.get("job_id") in resub_ids)
        resub_lookups = resub_hits + resub_misses
        buildcache = dict(system.build_cache.stats())
        buildcache["resubmission_lookups"] = resub_lookups
        buildcache["resubmission_hit_rate"] = (
            round(resub_hits / resub_lookups, 4) if resub_lookups else None)

    chunk_stats = system.storage.chunk_store.stats()
    counters = system.counters
    metrics = {
        "scale": {"name": scale.name, "n_students": scale.n_students,
                  "n_resubmissions": scale.n_resubmissions,
                  "n_workers": scale.n_workers},
        "dedup_enabled": dedup,
        "submissions_completed": len(latencies),
        "latency_s": _latency_stats(latencies),
        "first_latency_s": _latency_stats(first_latencies),
        "resubmission_latency_s": _latency_stats(resub_latencies),
        "buildcache": buildcache,
        "upload": {
            "first": _upload_stats(first_results),
            "resubmissions": _upload_stats(resub_results),
            "dedup_ratio": round(
                counters.get("bytes_uploaded_logical")
                / max(1, counters.get("bytes_uploaded")), 2),
        },
        "storage": {"chunk_store": chunk_stats,
                    "logical_bytes": system.storage.total_bytes},
        "worker_fetch": {
            "bytes": int(counters.get("worker_fetch_bytes")),
            "bytes_saved": int(counters.get("worker_fetch_bytes_saved")),
        },
        "docdb": {
            "job_id_probe": probe_plan,
            "finished_at_window": window_plan,
            "planner": system.db.planner_stats(),
        },
        "broker": {
            "bytes_published": system.broker.total_bytes_published,
            "messages_published":
                int(system.broker.counters.get("messages_published")),
        },
        "obs": {
            "events_emitted": system.events.total_emitted,
            "scrapes": system.scraper.total_scrapes,
            "alerts_fired": system.alerts.total_fired,
        },
        "durability": (system.durability.stats()
                       if system.durability is not None else None),
        "wall_clock_s": round(time.perf_counter() - wall_start, 3),
    }
    return metrics


def grading_digest(seed: int = 408, cache_enabled: bool = True,
                   n_students: int = 2, n_resubmissions: int = 2) -> str:
    """Digest every grading-relevant output of a tiny sequential course.

    One worker, one student at a time, so scheduling cannot reorder
    anything; the digest covers each job's status, concatenated
    stdout/stderr (per stream — replay publishes one chunk per stream
    where a live build streams many, but the bytes must concatenate
    identically), and the content of every file in the downloaded build
    archive (path → sha256; archive bytes themselves embed mtimes, so
    they are hashed per file, not as a blob).

    The golden check: this digest must be byte-identical with the build
    cache on and off — replay never changes what students see or what
    grading records.
    """
    import hashlib

    from repro.vfs import VirtualFileSystem, file_digest, unpack_tree

    config = SystemConfig()
    config.buildcache_enabled = cache_enabled
    system = RaiSystem.standard(num_workers=1, seed=seed, config=config)
    digest = hashlib.sha256()
    gap = system.config.rate_limit_seconds + 1.0

    def course():
        for i in range(n_students):
            client = system.new_client(username=f"golden{i:02d}")
            files = _scaffold_files()
            files["main.cu"] = _student_source(i)
            files["zz_tuning.cfg"] = _tuning_file(i, 0)
            client.stage_project(files)
            for attempt in range(n_resubmissions + 1):
                if attempt:
                    client.stage_project(
                        {"zz_tuning.cfg": _tuning_file(i, attempt)})
                    yield system.sim.timeout(gap)
                result = yield from client.submit()
                digest.update(f"job {i}/{attempt} "
                              f"{result.status.value}\n".encode())
                for stream in ("stdout", "stderr"):
                    text = "".join(chunk for _t, s, chunk in result.log
                                   if s == stream)
                    digest.update(f"{stream} {len(text)}\n".encode())
                    digest.update(text.encode())
                blob = client.download_build(result)
                digest.update(b"build none\n" if blob is None
                              else b"build tree\n")
                if blob is not None:
                    tree = VirtualFileSystem()
                    unpack_tree(blob, tree, "/")
                    for path in tree.iter_files("/"):
                        content = file_digest(tree.read_file(path))
                        digest.update(f"{path}\0{content}\n".encode())

    system.run(course())
    return digest.hexdigest()
