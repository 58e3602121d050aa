"""Additional interactive-session coverage."""

import pytest

from repro.core.config import WorkerConfig
from repro.core.interactive import InteractiveSession, reset_session_ids
from repro.core.system import RaiSystem
from repro.errors import RaiError

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


@pytest.fixture(autouse=True)
def _reset_ids():
    reset_session_ids()


@pytest.fixture
def system():
    s = RaiSystem(seed=77)
    s.add_worker(WorkerConfig(enable_interactive=True))
    return s


class TestSessionVariants:
    def test_session_without_project_upload(self, system):
        client = system.new_client(team="t")
        session = InteractiveSession(client, upload_project=False)

        def student(sim):
            yield from session.start()
            no_src = yield from session.run("ls /src")
            data = yield from session.run("ls /data")
            yield from session.close()
            return no_src, data

        no_src, data = system.run(student(system.sim))
        assert no_src.exit_code != 0          # nothing mounted at /src
        assert "model.hdf5" in data.stdout    # image data still there

    def test_sequential_sessions_reuse_worker(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)

        def one_session(sim, marker):
            session = InteractiveSession(client)
            yield from session.start()
            outcome = yield from session.run(f"echo {marker}")
            yield from session.close()
            return outcome

        def student(sim):
            first = yield from one_session(sim, "first")
            yield sim.timeout(40)   # respect the session rate limit
            second = yield from one_session(sim, "second")
            return first, second

        first, second = system.run(student(system.sim))
        assert first.stdout == "first\n"
        assert second.stdout == "second\n"
        rows = system.db.collection("interactive_sessions").find({})
        assert rows.count() == 2

    def test_sessions_rate_limited_per_team(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)

        def student(sim):
            first = InteractiveSession(client)
            yield from first.start()
            yield from first.close()
            # Force an immediate retry (the first start consumed >30 s of
            # simulated time on the image pull, so rewind the limiter).
            system.rate_limiter._last_accepted["interactive:t"] = sim.now
            second = InteractiveSession(client)
            transcript = yield from second.start()
            return transcript

        transcript = system.run(student(system.sim))
        assert transcript.status == "rejected"
        assert "rate limited" in transcript.error

    def test_oom_in_session_ends_it(self, system):
        client = system.new_client(team="t")
        client.stage_project({
            "main.cu": "// @rai-sim quality=0.5 mem_gb=32\n",
            "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
        })
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            yield from session.run("cmake /src && make")
            hog = yield from session.run(
                "./ece408 /data/test10.hdf5 /data/model.hdf5")
            transcript = yield from session.close()
            return hog, transcript

        hog, transcript = system.run(student(system.sim))
        assert hog.exit_code == 137
        assert transcript.end_reason == "container-oom-killed"

    def test_transcript_records_outcomes_in_order(self, system):
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = InteractiveSession(client)

        def student(sim):
            yield from session.start()
            for command in ("pwd", "ls /data", "hostname"):
                yield from session.run(command)
            return (yield from session.close())

        transcript = system.run(student(system.sim))
        assert [o.command for o in transcript.outcomes] == \
            ["pwd", "ls /data", "hostname"]
        assert all(o.exit_code == 0 for o in transcript.outcomes)


class TestWorkerLossEndsSession:
    """A stop or crash is reported as the worker going away — never as a
    fetch failure, and never as the student detaching."""

    @pytest.mark.parametrize("action", ["stop", "crash"])
    @pytest.mark.parametrize("phase", ["fetch", "command"])
    def test_worker_loss_reported_as_worker_stopped(self, action, phase):
        system = RaiSystem(seed=55)
        worker = system.add_worker(WorkerConfig(
            enable_interactive=True,
            # 10 B/s keeps the project fetch in flight at t=5.
            storage_bandwidth_bps=10.0 if phase == "fetch" else 1e9))
        client = system.new_client(team="t")
        client.stage_project(FILES)
        session = InteractiveSession(client)
        ended_mid_command = []

        def kill_in(seconds):
            yield system.sim.timeout(seconds)
            getattr(worker, action)()

        def student(sim):
            if phase == "fetch":
                sim.process(kill_in(5.0))
            yield from session.start()
            if phase == "command":
                assert session.is_attached
                sim.process(kill_in(5.0))
                try:
                    yield from session.run("sleep 100")
                except RaiError as exc:
                    ended_mid_command.append(str(exc))
            return session.transcript

        transcript = system.run(student(system.sim))
        (row,) = system.db.collection("interactive_sessions").find(
            {}).to_list()
        assert row["end_reason"] == "worker-stopped"
        if phase == "fetch":
            assert transcript.status == "rejected"
            assert transcript.error == "worker-stopped"
        else:
            assert transcript.end_reason == "worker-stopped"
            assert ended_mid_command == [
                "session ended mid-command: worker-stopped"]
