"""Every counter in a deployment lives in its metrics registry.

Planner tallies, system tallies, broker and object-store counters are
all registry series: ``coll.planner_stats`` is a read-only snapshot of
collection-labelled counters, and ``system.counters``,
``broker.counters`` and ``storage.counters`` are :class:`CounterGroup`
bundles with their own name prefix.
"""

import pytest

from repro.core.system import RaiSystem
from repro.docdb.database import PLANNER_KEYS, DocumentDB
from repro.obs.metrics import CounterGroup

pytestmark = pytest.mark.obs

FILES = {
    "main.cu": "// @rai-sim quality=0.8 impl=analytic\n",
    "CMakeLists.txt": "add_executable(ece408 main.cu)\n",
}


def _standard_run():
    system = RaiSystem.standard(num_workers=1, seed=11)
    client = system.new_client(team="views")
    client.stage_project(FILES)
    system.run(client.submit())
    return system


@pytest.fixture
def db():
    db = DocumentDB()
    coll = db.collection("submissions")
    coll.create_index("job_id")
    for i in range(5):
        coll.insert_one({"job_id": i, "status": "queued"})
    return db


class TestPlannerStatsView:
    def test_dict_surface(self, db):
        coll = db.collection("submissions")
        coll.find({"status": "queued"})
        coll.find({"status": "queued"})
        coll.find({"job_id": 3})
        assert coll.planner_stats == {"index_hits": 1, "range_hits": 0,
                                      "scans": 2, "docs_examined": 11}
        assert len(coll.planner_stats) == 4

    def test_reset_to_zero_supported(self, db):
        # The stats are cumulative counters: callers measure a before/
        # after delta, and writing into the snapshot changes nothing.
        coll = db.collection("submissions")
        coll.find({"status": "queued"})
        before = coll.planner_stats
        before["docs_examined"] = 0
        assert coll.planner_stats["docs_examined"] == 5
        coll.find({"job_id": 1})
        after = coll.planner_stats
        assert after["index_hits"] - before["index_hits"] == 1
        assert after["docs_examined"] == 6

    def test_data_lives_in_registry_labelled(self, db):
        db.collection("submissions").find({"status": "queued"})
        assert db.metrics.value("planner_scans",
                                collection="submissions") == 1
        # A second collection is an independent labelled series.
        users = db.collection("users")
        users.find({})
        users.find({})
        assert db.metrics.value("planner_scans", collection="users") == 2
        assert db.metrics.total("planner_scans") == 3
        snapshot = db.metrics.snapshot()
        assert "planner_scans" in snapshot["counters"]
        assert "planner_scans" not in snapshot["gauges"]

    def test_unknown_key_raises(self, db):
        with pytest.raises(KeyError):
            db.collection("submissions").planner_stats["typo"]

    def test_keys_are_fixed(self, db):
        coll = db.collection("submissions")
        stats = coll.planner_stats
        del stats["scans"]
        assert tuple(coll.planner_stats) == PLANNER_KEYS

    def test_docdb_aggregates_across_collections(self):
        db = DocumentDB()
        a = db.collection("a")
        b = db.collection("b")
        a.create_index("x")
        a.insert_one({"x": 1})
        b.insert_one({"y": 1})
        a.find({"x": 1})      # index hit on a
        b.find({"y": 1})      # collection scan on b
        agg = db.planner_stats()
        assert agg["index_hits"] >= 1
        assert agg["scans"] >= 1
        # The aggregate equals the sum of the labelled counters.
        assert agg["scans"] == db.metrics.total("planner_scans")


class TestMonitorCountersInRegistry:
    def test_incr_lands_in_system_registry(self):
        system = RaiSystem.standard(num_workers=1, seed=11)
        system.counters.incr("jobs_submitted")
        system.counters.incr("jobs_submitted", 2)
        assert system.metrics.value("jobs_submitted") == 3
        assert system.counters.get("jobs_submitted") == 3
        assert system.counters.as_dict()["jobs_submitted"] == 3

    def test_worker_tallies_flow_through(self):
        system = _standard_run()
        # Counters written deep in the worker are visible in the registry.
        assert system.metrics.value("jobs_recorded") == 1
        assert system.metrics.value("worker_fetch_bytes") > 0
        assert system.submission_times == [
            e.time for e in system.events.query(type="job.state_change")
            if e.fields.get("status") == "queued"]


class TestBrokerCountersInRegistry:
    def test_prefixed_series_and_legacy_property(self):
        system = _standard_run()
        broker = system.broker
        # Short-name accessors...
        assert broker.counters.get("messages_published") > 0
        assert broker.total_bytes_published > 0
        # ...are views over the shared, prefixed registry series.
        assert system.metrics.value("broker_messages_published") == \
            broker.counters.get("messages_published")
        assert system.metrics.value("broker_bytes_published") == \
            broker.total_bytes_published
        # And they sit in the SAME registry as the system counters.
        assert system.metrics.value("jobs_recorded") == 1


class TestObjectStoreCountersInRegistry:
    def test_prefixed_series_in_system_registry(self):
        system = _standard_run()
        store = system.storage
        assert store.counters.get("puts") > 0
        assert system.metrics.value("objstore_puts") == \
            store.counters.get("puts")
        assert system.metrics.value("objstore_bytes_in_unique") == \
            store.counters.get("bytes_in_unique")
        # The prefix takes in none of the system's own storage_* series.
        system.counters.incr("storage_retries")
        assert "retries" not in store.counters.as_dict()

    def test_standalone_store_keeps_a_private_registry(self):
        from repro.sim import Simulator
        from repro.storage.object_store import ObjectStore

        store = ObjectStore(Simulator())
        store.create_bucket("b")
        store.put_object("b", "k", b"1234")
        assert isinstance(store.counters, CounterGroup)
        assert store.counters.as_dict() == {"puts": 1, "bytes_in": 4}


class TestStatsCounterKeys:
    """The ``counters`` dicts in component ``stats()`` keep their keys."""

    def test_storage_and_broker_keys_after_standard_run(self):
        system = _standard_run()
        assert set(system.storage.stats()["counters"]) == {
            "bytes_deduped", "bytes_in", "bytes_in_unique", "bytes_out",
            "dedup_puts", "gets", "puts"}
        assert set(system.broker.stats()["counters"]) == {
            "bytes_published", "messages_published", "topics_created",
            "topics_reaped"}

    def test_registry_counter_names_after_standard_run(self):
        counters = set(_standard_run().metrics.snapshot()["counters"])
        assert counters >= {
            "broker_bytes_published", "broker_messages_published",
            "broker_topics_created", "broker_topics_reaped",
            "buildcache_misses_total", "bytes_uploaded",
            "bytes_uploaded_logical", "client_delta_chunks",
            "image_bytes_pulled", "jobs_finished", "jobs_recorded",
            "jobs_submitted", "obs_spans_started", "obs_traces_started",
            "worker_fetch_bytes", "workers_started"}
        assert {"planner_scans", "planner_index_hits",
                "objstore_puts", "objstore_bytes_in"} <= counters
        assert "submissions_total" not in counters
