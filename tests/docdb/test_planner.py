"""Query planner: indexed access paths, explain(), ordering pins."""

import pytest

from repro.docdb import DocumentDB
from repro.docdb.index import SortedIndex


@pytest.fixture
def jobs():
    db = DocumentDB()
    coll = db.collection("jobs")
    coll.create_index("job_id")
    for i in range(20):
        coll.insert_one({"_id": f"doc-{i}", "job_id": f"job-{i:03d}",
                         "status": "queued", "cost": float(i)})
    return coll


class TestExplain:
    def test_equality_on_indexed_field(self, jobs):
        plan = jobs.explain({"job_id": "job-007"})
        assert plan["path"] == "index"
        assert plan["index"] == "job_id"
        assert plan["index_kind"] == "equality"
        assert plan["docs_examined"] == 1
        assert plan["docs_total"] == 20

    def test_unindexed_field_scans(self, jobs):
        plan = jobs.explain({"status": "queued"})
        assert plan["path"] == "scan"
        assert plan["docs_examined"] == 20

    def test_cursor_explain_includes_match_count(self, jobs):
        cursor = jobs.find({"job_id": "job-003"})
        plan = cursor.explain()
        assert plan["docs_matched"] == 1
        assert plan["path"] == "index"

    def test_planner_stats_accumulate(self, jobs):
        before = dict(jobs.planner_stats)
        jobs.find({"job_id": "job-001"})
        jobs.find({"status": "queued"})
        assert jobs.planner_stats["index_hits"] == before["index_hits"] + 1
        assert jobs.planner_stats["scans"] == before["scans"] + 1


class TestWritePathUsesIndex:
    """Regression: _update/_delete used to scan every document even when
    the filter hit an indexed field."""

    def test_update_one_routes_through_index(self, jobs):
        modified = jobs.update_one({"job_id": "job-004"},
                                   {"$set": {"status": "running"}})
        assert modified == 1
        plan = jobs.last_plan
        assert plan["path"] == "index"
        assert plan["index"] == "job_id"
        assert plan["docs_examined"] == 1
        assert jobs.find_one({"job_id": "job-004"})["status"] == "running"

    def test_update_many_routes_through_index(self, jobs):
        jobs.insert_one({"job_id": "job-004"})  # duplicate key, 2 docs now
        modified = jobs.update_many({"job_id": "job-004"},
                                    {"$set": {"status": "done"}})
        assert modified == 2
        assert jobs.last_plan["docs_examined"] == 2

    def test_delete_routes_through_index(self, jobs):
        deleted = jobs.delete_one({"job_id": "job-009"})
        assert deleted == 1
        plan = jobs.last_plan
        assert plan["path"] == "index"
        assert plan["docs_examined"] == 1
        assert len(jobs) == 19

    def test_indexed_write_touches_fraction_of_collection(self, jobs):
        before = jobs.planner_stats
        for i in range(20):
            jobs.update_one({"job_id": f"job-{i:03d}"},
                            {"$set": {"cost": 0.0}})
        after = jobs.planner_stats
        # 20 indexed updates examine 20 docs total; the old scan path
        # examined 20 * 20 = 400.
        assert after["docs_examined"] - before["docs_examined"] == 20
        assert after["scans"] - before["scans"] == 0


class TestCandidateOrdering:
    """Pin insertion-order candidates (the old code sorted ids by str,
    so doc-10 came before doc-2)."""

    def test_index_candidates_preserve_insertion_order(self):
        coll = DocumentDB().collection("c")
        coll.create_index("kind")
        for i in [1, 2, 10, 3]:
            coll.insert_one({"_id": f"doc-{i}", "kind": "x", "n": i})
        got = [d["_id"] for d in coll.find({"kind": "x"})]
        assert got == ["doc-1", "doc-2", "doc-10", "doc-3"]

    def test_scan_candidates_preserve_insertion_order(self):
        coll = DocumentDB().collection("c")
        for i in [5, 50, 6]:
            coll.insert_one({"_id": f"doc-{i}", "n": i})
        got = [d["_id"] for d in coll.find({})]
        assert got == ["doc-5", "doc-50", "doc-6"]

    def test_update_one_hits_first_inserted_match(self):
        coll = DocumentDB().collection("c")
        coll.create_index("kind")
        coll.insert_one({"_id": "doc-2", "kind": "x"})
        coll.insert_one({"_id": "doc-10", "kind": "x"})
        coll.update_one({"kind": "x"}, {"$set": {"hit": True}})
        assert coll.find_one({"_id": "doc-2"}).get("hit") is True
        assert coll.find_one({"_id": "doc-10"}).get("hit") is None


class TestSortedIndexRanges:
    @pytest.fixture
    def timed(self):
        coll = DocumentDB().collection("timed")
        coll.create_index("t", ordered=True)
        for i in range(10):
            coll.insert_one({"_id": f"doc-{i}", "t": float(i)})
        return coll

    def test_range_served_by_index(self, timed):
        plan = timed.explain({"t": {"$gte": 3.0, "$lt": 7.0}})
        assert plan["path"] == "index"
        assert plan["index_kind"] == "range"
        assert plan["docs_examined"] == 4
        got = [d["t"] for d in timed.find({"t": {"$gte": 3.0, "$lt": 7.0}})]
        assert got == [3.0, 4.0, 5.0, 6.0]

    def test_open_ended_range(self, timed):
        got = [d["t"] for d in timed.find({"t": {"$gt": 7.0}})]
        assert got == [8.0, 9.0]
        assert timed.last_plan["docs_examined"] == 2

    def test_range_results_in_key_order(self, timed):
        timed.insert_one({"_id": "late-low", "t": 0.5})
        got = [d["t"] for d in timed.find({"t": {"$lt": 2.0}})]
        assert got == [0.0, 0.5, 1.0]

    def test_hash_index_upgrades_to_sorted_in_place(self):
        coll = DocumentDB().collection("c")
        coll.create_index("t")
        coll.insert_one({"t": 1.0})
        coll.insert_one({"t": 2.0})
        upgraded = coll.create_index("t", ordered=True)
        assert isinstance(upgraded, SortedIndex)
        assert coll.explain({"t": {"$gte": 1.5}})["index_kind"] == "range"

    def test_unsortable_operand_falls_back_to_scan(self, timed):
        plan = timed.explain({"t": {"$gte": [1, 2]}})
        assert plan["path"] == "scan"

    def test_mixed_type_keys_still_answer_equality(self):
        coll = DocumentDB().collection("c")
        coll.create_index("k", ordered=True)
        coll.insert_one({"_id": "a", "k": 5})
        coll.insert_one({"_id": "b", "k": "five"})
        assert coll.find_one({"k": "five"})["_id"] == "b"
        assert [d["_id"] for d in coll.find({"k": {"$gte": 4}})] == ["a"]


class TestSubmissionsAutoIndex:
    def test_system_creates_job_id_index(self):
        from repro.core.system import RaiSystem
        system = RaiSystem.standard(num_workers=1, seed=1)
        submissions = system.db.collection("submissions")
        plan = submissions.explain({"job_id": "job-000001"})
        assert plan["path"] == "index"
        assert plan["index"] == "job_id"
