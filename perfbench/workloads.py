"""The three course workloads the full-stack benchmark drives.

Every job goes through the real deployment: ``RaiClient.submit`` packs
and uploads the project, the broker queues the request, the scheduler
picks it, a worker fetches and unpacks it, runs the build file in a warm
container (build cache, CNN payload, coreutils), archives ``/build``,
records the submission in the document database and publishes the End.

Load comes from one process and one thread.  Each team is a closed loop:
it submits, waits for its job's End, waits the client rate-limit gap and
submits again.  A workload's inputs are a pure function of its seed.

Each run builds a fresh deployment (``Workload.build``), drives it
(``Workload.drive``) and then checks every output and digests it
(``Workload.check``), outside the timed phase.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.broker.message import message_pool, reset_message_ids
from repro.core.config import SystemConfig, WorkerConfig
from repro.core.job import JobKind, JobStatus, reset_job_ids
from repro.core.system import RaiSystem
from repro.obs.context import reset_obs_ids
from repro.vfs import VirtualFileSystem, file_digest, unpack_tree


@dataclass(frozen=True)
class Shape:
    """How big one run of a workload is."""

    teams: int
    jobs_per_team: int
    workers: int
    slots: int = 2

    @property
    def jobs(self) -> int:
        return self.teams * self.jobs_per_team


@dataclass
class Submission:
    """One job as the benchmark saw it."""

    team: int
    attempt: int
    submitted_at: float
    result: object
    #: What the benchmark staged for this job, for the output checks.
    expect: dict = field(default_factory=dict)


class Workload:
    """Base class: deployment set-up, closed-loop teams, output checks."""

    name = ""
    kind = JobKind.RUN
    durable = False

    def __init__(self, seed: int, shape: Shape, scratch_dir: str):
        self.seed = seed
        self.shape = shape
        self.scratch_dir = scratch_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.system: Optional[RaiSystem] = None
        self.clients: list = []
        self.submissions: List[Submission] = []
        self._wal_dir: Optional[str] = None

    # -- set-up ------------------------------------------------------------

    def build(self) -> None:
        """Deployment, credentials, clients and staged projects."""
        # Job, message and span ids are process-global counters; reset
        # them so every run of a seed produces byte-identical outputs.
        reset_job_ids()
        reset_message_ids()
        reset_obs_ids()
        message_pool.clear()
        self.system = RaiSystem.standard(
            num_workers=self.shape.workers, seed=self.seed,
            config=SystemConfig(),
            worker_config=WorkerConfig(max_concurrent_jobs=self.shape.slots))
        if self.durable:
            self._wal_dir = tempfile.mkdtemp(prefix="wal-",
                                             dir=self.scratch_dir)
            self.system.attach_durability(self._wal_dir)
        for team in range(self.shape.teams):
            client = self.system.new_client(team=f"team{team:02d}",
                                            username=f"student{team:02d}")
            client.stage_project(self.project(team))
            self.clients.append(client)

    def close(self) -> None:
        if self.system is not None and self.system.durability is not None:
            self.system.durability.close()
        if self._wal_dir is not None:
            shutil.rmtree(self._wal_dir, ignore_errors=True)
            self._wal_dir = None

    # -- the load ------------------------------------------------------------

    def project(self, team: int) -> Dict[str, object]:
        raise NotImplementedError

    def edit(self, team: int, attempt: int) -> Dict[str, object]:
        """Files a team changes before its ``attempt``-th resubmission."""
        raise NotImplementedError

    def arrival(self, team: int) -> float:
        """Sim seconds before a team's first submission."""
        return self.rng.uniform(0.0, 5.0)

    def expectation(self, team: int, attempt: int) -> dict:
        return {}

    def after_result(self, team: int) -> None:
        """Reads a team or instructor makes once a result arrives."""

    def drive(self) -> None:
        """Run every team's closed loop to completion."""
        system = self.system
        gap = system.config.rate_limit_seconds + 1.0
        arrivals = [self.arrival(t) for t in range(self.shape.teams)]

        def team_loop(team: int):
            client = self.clients[team]
            yield system.sim.timeout(arrivals[team])
            for attempt in range(self.shape.jobs_per_team):
                if attempt:
                    yield system.sim.timeout(gap)
                    client.stage_project(self.edit(team, attempt))
                expect = self.expectation(team, attempt)
                started = system.sim.now
                result = yield from client.submit(kind=self.kind)
                self.submissions.append(
                    Submission(team, attempt, started, result, expect))
                self.after_result(team)

        system.run_all([team_loop(t) for t in range(self.shape.teams)])

    # -- checks ------------------------------------------------------------

    def check(self) -> tuple:
        """Check every job's output; returns ``(errors, digest)``.

        The digest covers each job's status, exit code, stdout and
        stderr, and the content of every file in its build archive
        (hashed per file: archive bytes embed mtimes), in team/attempt
        order, like ``repro.workload.hotpath.grading_digest``.
        """
        errors: List[str] = []
        digest = hashlib.sha256()
        for sub in sorted(self.submissions,
                          key=lambda s: (s.team, s.attempt)):
            result = sub.result
            label = f"team{sub.team:02d}/{sub.attempt}"
            streams = {"stdout": [], "stderr": []}
            for _t, stream, text in result.log:
                streams[stream].append(text)
            stdout = "".join(streams["stdout"])
            stderr = "".join(streams["stderr"])
            files: Dict[str, str] = {}
            blob = self.clients[sub.team].download_build(result)
            if blob is not None:
                tree = VirtualFileSystem()
                unpack_tree(blob, tree, "/")
                for path in tree.iter_files("/"):
                    files[path] = file_digest(tree.read_file(path))
            digest.update(f"{label} {result.status.value} "
                          f"{result.exit_code}\n".encode())
            for stream, text in (("stdout", stdout), ("stderr", stderr)):
                digest.update(f"{stream} {len(text)}\n{text}".encode())
            for path in sorted(files):
                digest.update(f"{path}\0{files[path]}\n".encode())
            if result.status is not JobStatus.SUCCEEDED:
                errors.append(f"{label}: status {result.status.value} "
                              f"(exit {result.exit_code}): {stderr[-200:]}")
                continue
            errors.extend(f"{label}: {problem}" for problem in
                          self.check_job(sub, stdout, files))
        if len(self.submissions) != self.shape.jobs:
            errors.append(f"{len(self.submissions)} results for "
                          f"{self.shape.jobs} submissions")
        return errors, digest.hexdigest()

    def check_job(self, sub: Submission, stdout: str,
                  files: Dict[str, str]) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# resubmit: the paper's dominant traffic
# ---------------------------------------------------------------------------

#: Course scaffolding every team's project shares verbatim.
_SCAFFOLD = ("// ECE408 course scaffold\n" * 64).encode()


class Resubmit(Workload):
    """Teams resubmitting Listing 1 jobs that edit only a tuning file.

    Every resubmission's build inputs equal the previous attempt's, so
    ``cmake``/``make`` replay from the build cache and the upload dedup
    ships little more than the edited tail chunk.  The NumPy CNN runs
    twice per job (the run and the ``nvprof`` run).
    """

    name = "resubmit"

    def project(self, team: int) -> Dict[str, object]:
        token = self.rng.getrandbits(64)
        tile = self.rng.choice((8, 16, 32))
        files: Dict[str, object] = {
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n" * 40,
            "USAGE": "cmake /src && make && ./ece408 data/model\n",
            "report.pdf": b"%PDF-1.4" + bytes(6144),
            "main.cu": ("// @rai-sim quality=0.9 impl=im2col\n"
                        f"#define TILE_WIDTH {tile}\n"
                        + f"// team {team:02d} kernel {token:016x}\n" * 100),
            "zz_tuning.cfg": self._tuning(team, 0),
        }
        for i in range(4):
            files[f"support/common_{i}.h"] = _SCAFFOLD
        return files

    def _tuning(self, team: int, attempt: int) -> str:
        # Sorts last, so the edit stays in the archive's tail chunks.
        return (f"// team {team:02d} attempt {attempt:02d}\n"
                f"#define BLOCK_DIM {self.rng.randrange(8, 64):02d}\n")

    def edit(self, team: int, attempt: int) -> Dict[str, object]:
        return {"zz_tuning.cfg": self._tuning(team, attempt)}

    def arrival(self, team: int) -> float:
        return self.rng.uniform(0.0, 10.0)

    def check_job(self, sub, stdout, files):
        problems = []
        if "Correctness:" not in stdout:
            problems.append("no Correctness: line")
        if "/timeline.nvprof" not in files:
            problems.append("archive lacks timeline.nvprof")
        return problems


# ---------------------------------------------------------------------------
# finals: the final-submission burst
# ---------------------------------------------------------------------------


class Finals(Workload):
    """Every team files a few enforced Listing 2 final submissions.

    Teams edit ``main.cu`` between finals, so build-cache lookups miss
    across distinct sources while entries pile up per command; the full
    dataset takes the analytic path (no CNN); ``cp -r /src`` puts the
    submission into ``/build`` and so into the archive.  Each team reads
    the leaderboard after every result.
    """

    name = "finals"
    kind = JobKind.SUBMIT

    def project(self, team: int) -> Dict[str, object]:
        return {
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
            "USAGE": "cmake /src && make && ./ece408 /data/testfull.hdf5\n",
            "report.pdf": (b"%PDF-1.4 team " + str(team).encode()
                           + bytes(4096)),
            "include/layers.h": _SCAFFOLD,
            "main.cu": self._source(team, 0),
        }

    def _source(self, team: int, attempt: int) -> str:
        quality = 0.6 + 0.05 * attempt + self.rng.uniform(0.0, 0.1)
        token = self.rng.getrandbits(64)
        return (f"// @rai-sim quality={quality:.4f} impl=analytic "
                f"correctness=0.9{team % 10}\n"
                + f"// team {team:02d} final {attempt} {token:016x}\n" * 60)

    def edit(self, team: int, attempt: int) -> Dict[str, object]:
        return {"main.cu": self._source(team, attempt)}

    def after_result(self, team: int) -> None:
        self.clients[team].check_ranking()

    def check_job(self, sub, stdout, files):
        problems = []
        if not any(p.startswith("/submission_code/") for p in files):
            problems.append("archive lacks submission_code/")
        if "Elapsed time:" not in stdout:
            problems.append("no Elapsed time: line")
        if sub.result.rank is None:
            problems.append("no leaderboard rank")
        return problems


# ---------------------------------------------------------------------------
# light_burst: near-zero payload, control-plane bound
# ---------------------------------------------------------------------------


class LightBurst(Workload):
    """Many quick sanity jobs with a minimal, uncacheable build file.

    The payload is ``echo``/``ls``/``wc`` on a tiny project, so the
    broker, scheduler, document database, observability, metering,
    write-ahead log and container bookkeeping dominate.  Every few
    results the instructor reads the leaderboard and one team's history.
    """

    name = "light_burst"
    durable = True
    #: Instructor reads run after every this-many results.
    READ_EVERY = 4

    def __init__(self, seed: int, shape: Shape, scratch_dir: str):
        super().__init__(seed, shape, scratch_dir)
        self._notes: Dict[int, str] = {}
        self._results_seen = 0

    def project(self, team: int) -> Dict[str, object]:
        self._notes[team] = self._lines(team, 0)
        return {
            "rai-build.yml": (
                "rai:\n"
                "  version: '0.1'\n"
                "  image: webgpu/rai:root\n"
                "commands:\n"
                "  build:\n"
                f"    - echo \"sanity check team{team:02d}\"\n"
                "    - ls /src\n"
                "    - wc -l /src/notes.txt\n"),
            "main.cu": f"// team {team:02d}\nint main(){{}}\n",
            "notes.txt": self._notes[team],
        }

    def _lines(self, team: int, attempt: int) -> str:
        count = self.rng.randrange(3, 30)
        return "".join(f"team {team:02d} attempt {attempt} note {i}\n"
                       for i in range(count))

    def edit(self, team: int, attempt: int) -> Dict[str, object]:
        self._notes[team] += self._lines(team, attempt)
        return {"notes.txt": self._notes[team]}

    def expectation(self, team: int, attempt: int) -> dict:
        return {"lines": self._notes[team].count("\n")}

    def after_result(self, team: int) -> None:
        self._results_seen += 1
        if self._results_seen % self.READ_EVERY == 0:
            self.system.ranking.leaderboard()
            self.system.db.collection("submissions").find(
                {"team": f"team{team:02d}"}).to_list()

    def check_job(self, sub, stdout, files):
        want = f"{sub.expect['lines']} /src/notes.txt\n"
        if want not in stdout:
            return [f"wc printed no {want.strip()!r}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Resubmit, Finals, LightBurst)}

#: Full-size runs.  Each has at least 200 jobs, so at least ten latency
#: samples lie beyond the 95th percentile.
SHAPES = {
    "resubmit": Shape(teams=20, jobs_per_team=11, workers=6),
    "finals": Shape(teams=58, jobs_per_team=4, workers=8),
    "light_burst": Shape(teams=58, jobs_per_team=8, workers=4),
}

#: Tiny runs for the smoke test.
SMOKE_SHAPES = {
    "resubmit": Shape(teams=2, jobs_per_team=2, workers=1),
    "finals": Shape(teams=3, jobs_per_team=2, workers=1),
    "light_burst": Shape(teams=3, jobs_per_team=3, workers=1),
}
