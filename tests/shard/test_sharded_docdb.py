"""Golden scatter/gather tests: sharded results == unsharded results.

Every read/write below runs twice — once against a plain
:class:`Collection`, once against a :class:`ShardedCollection` holding
the same documents — and the results must agree.  Order agreement is
exact wherever the facade promises it (single-shard reads, sorted reads
on a unique key) and multiset-level where shard concatenation order is
documented to differ (unsorted scatters, cross-shard sort ties).
"""

import pytest

from repro.docdb.database import DocumentDB
from repro.errors import DocDbError
from repro.shard import ShardMap

pytestmark = pytest.mark.shard

N_PARTS = 4
TEAMS = [f"team{i:02d}" for i in range(8)]


def _docs():
    # Unique score per doc (exact-order sort tests), small quality
    # values with heavy ties (tie-handling tests), explicit _ids so the
    # two collections agree on identity (per-shard oid counters would
    # otherwise collide across shards).
    out = []
    for i in range(40):
        out.append({"_id": f"sub-{i:03d}", "team": TEAMS[i % len(TEAMS)],
                    "username": f"user{i % 5}", "score": i,
                    "quality": i % 4})
    return out


@pytest.fixture
def pair():
    db = DocumentDB()
    sharded = db.shard_collection("subs", ShardMap(N_PARTS))
    plain = db.collection("golden")
    for doc in _docs():
        sharded.insert_one(dict(doc))
        plain.insert_one(dict(doc))
    return sharded, plain


def _multiset(docs):
    return sorted(docs, key=lambda d: d["_id"])


class TestRoutingLayer:
    def test_documents_land_on_their_key_partition(self, pair):
        sharded, _ = pair
        for doc in _docs():
            shard = sharded.shards[sharded.partition_of(doc)]
            assert shard.find_one({"_id": doc["_id"]}) is not None
        assert sum(sharded.placement().values()) == len(sharded) == 40

    def test_shard_key_filter_takes_single_shard_path(self, pair):
        sharded, _ = pair
        team = TEAMS[0]
        plan = sharded.explain({"team": team})
        assert plan["sharded"] is True
        assert plan["shard"] == sharded.shard_map.partition(team)
        assert "shards" not in plan

    def test_username_only_filter_scatters(self, pair):
        # A team-routed document can match a username filter, so the
        # username alone can never pin a partition.
        sharded, _ = pair
        plan = sharded.explain({"username": "user1"})
        assert plan["path"] == "scatter"
        assert len(plan["shards"]) == N_PARTS

    def test_falsy_team_defers_to_username(self, pair):
        sharded, _ = pair
        plan = sharded.explain({"team": "", "username": "user2"})
        assert plan["sharded"] is True
        assert plan["shard"] == sharded.shard_map.partition("user2")

    def test_operator_valued_key_field_scatters(self, pair):
        sharded, _ = pair
        plan = sharded.explain({"team": {"$in": TEAMS[:2]}})
        assert plan["path"] == "scatter"


class TestGoldenReads:
    def test_single_shard_read_is_order_exact(self, pair):
        sharded, plain = pair
        team = TEAMS[2]
        assert sharded.find({"team": team}).to_list() == \
               plain.find({"team": team}).to_list()

    def test_unsorted_scatter_matches_as_multiset(self, pair):
        sharded, plain = pair
        got = sharded.find({"quality": 2}).to_list()
        want = plain.find({"quality": 2}).to_list()
        assert _multiset(got) == _multiset(want)

    def test_sorted_read_on_unique_key_is_order_exact(self, pair):
        sharded, plain = pair
        for spec in ([("score", -1)], [("score", 1)]):
            got = sharded.find({}).sort(spec).to_list()
            want = plain.find({}).sort(spec).to_list()
            assert got == want

    def test_sort_skip_limit_pushdown_is_order_exact(self, pair):
        sharded, plain = pair
        got = sharded.find({}).sort([("score", -1)]).skip(5).limit(7)
        want = plain.find({}).sort([("score", -1)]).skip(5).limit(7)
        assert got.to_list() == want.to_list()

    def test_sort_with_ties_agrees_on_keys_and_membership(self, pair):
        # Cross-shard ties may interleave differently than insertion
        # order; the sorted key sequence and the membership must agree.
        sharded, plain = pair
        got = sharded.find({}).sort([("quality", 1)]).to_list()
        want = plain.find({}).sort([("quality", 1)]).to_list()
        assert [d["quality"] for d in got] == [d["quality"] for d in want]
        assert _multiset(got) == _multiset(want)

    def test_projection_applies_after_the_merge(self, pair):
        sharded, plain = pair
        got = sharded.find({"quality": 1},
                           projection={"score": 1}).to_list()
        want = plain.find({"quality": 1},
                          projection={"score": 1}).to_list()
        assert _multiset(got) == _multiset(want)
        assert all(set(d) <= {"_id", "score"} for d in got)

    def test_find_one_and_count_and_distinct(self, pair):
        sharded, plain = pair
        team = TEAMS[5]
        assert sharded.find_one({"team": team})["team"] == team
        assert sharded.count_documents({"quality": 3}) == \
               plain.count_documents({"quality": 3})
        assert sharded.count_documents({}) == 40
        assert sorted(sharded.distinct("team")) == \
               sorted(plain.distinct("team"))

    def test_aggregate_matches_unsharded(self, pair):
        sharded, plain = pair
        pipeline = [{"$match": {"quality": {"$gte": 1}}},
                    {"$group": {"_id": "$team",
                                "total": {"$sum": "$score"}}}]
        got = sorted(sharded.aggregate(pipeline), key=lambda d: d["_id"])
        want = sorted(plain.aggregate(pipeline), key=lambda d: d["_id"])
        assert got == want


class TestIndexesAcrossShards:
    def test_indexed_range_query_agrees_both_sides(self, pair):
        sharded, plain = pair
        sharded.create_index("score", ordered=True)
        plain.create_index("score", ordered=True)
        filt = {"score": {"$gte": 10, "$lt": 30}}
        got = sharded.find(filt).to_list()
        want = plain.find(filt).to_list()
        assert _multiset(got) == _multiset(want)
        # Each physical shard planned through its own range index.
        plan = sharded.explain(filt)
        assert plan["path"] == "scatter"
        for shard_plan in plan["shards"]:
            assert shard_plan["index_kind"] == "range"

    def test_equality_index_on_single_shard_path(self, pair):
        sharded, plain = pair
        sharded.create_index("team")
        team = TEAMS[1]
        plan = sharded.explain({"team": team})
        assert plan["path"] == "index"
        assert plan["sharded"] is True
        assert sharded.find({"team": team}).count() == \
               plain.find({"team": team}).count()

    def test_planner_stats_sum_over_shards(self, pair):
        sharded, _ = pair
        sharded.create_index("team")
        before = sharded.planner_stats["index_hits"]
        sharded.find({"team": TEAMS[3]}).to_list()
        assert sharded.planner_stats["index_hits"] == before + 1
        # The facade sums the shards' collection-labelled counters.
        metrics = sharded.shards[0].db.metrics
        assert sharded.planner_stats["index_hits"] == sum(
            metrics.value("planner_index_hits", collection=shard.name)
            for shard in sharded.shards)


class TestGoldenWrites:
    def test_routed_and_scatter_updates_converge(self, pair):
        sharded, plain = pair
        for coll in (sharded, plain):
            assert coll.update_one({"team": TEAMS[0], "score": 0},
                                   {"$set": {"graded": True}}) == 1
            assert coll.update_one({"score": 17},
                                   {"$set": {"graded": True}}) == 1
            coll.update_many({"quality": 0}, {"$inc": {"score": 100}})
        assert _multiset(sharded.find({}).to_list()) == \
               _multiset(plain.find({}).to_list())

    def test_deletes_converge(self, pair):
        sharded, plain = pair
        assert sharded.delete_many({"quality": 1}) == \
               plain.delete_many({"quality": 1})
        assert sharded.delete_one({"team": TEAMS[4]}) == 1
        plain.delete_one({"team": TEAMS[4]})
        assert len(sharded) == len(plain)

    def test_upsert_without_shard_key_is_rejected(self, pair):
        sharded, _ = pair
        with pytest.raises(DocDbError):
            sharded.update_one({"score": 999}, {"$set": {"score": 999}},
                               upsert=True)
        # With the key pinned, the upsert lands on the right shard.
        assert sharded.update_one(
            {"team": "newteam", "score": 999},
            {"$set": {"score": 999}}, upsert=True) in (0, 1)
        doc = {"team": "newteam"}
        assert sharded.shards[sharded.partition_of(doc)].find_one(
            {"team": "newteam"}) is not None


class TestRegistration:
    def test_db_collection_returns_the_facade(self, pair):
        sharded, _ = pair
        assert sharded.db.collection("subs") is sharded

    def test_cannot_shard_populated_collection(self):
        db = DocumentDB()
        db.collection("busy").insert_one({"team": "t"})
        with pytest.raises(DocDbError):
            db.shard_collection("busy", ShardMap(2))

    def test_drop_removes_facade_and_physical_shards(self, pair):
        sharded, _ = pair
        db = sharded.db
        physical = [shard.name for shard in sharded.shards]
        db.drop_collection("subs")
        assert all(name not in db.collection_names() for name in physical)
        # The name is a plain collection again.
        assert db.collection("subs").__class__.__name__ == "Collection"
