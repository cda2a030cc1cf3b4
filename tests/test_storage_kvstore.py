"""Tests for the primary KV store: versions, conditional writes, batches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage_library import PrimaryEnv
from repro.errors import ConditionFailed, KeyMissing
from repro.storage import KVStore, VERSION_ABSENT, VERSION_MISS, WriteOp


@pytest.fixture
def store():
    return KVStore()


class TestBasicOps:
    def test_get_missing_raises(self, store):
        with pytest.raises(KeyMissing):
            store.get("users", "alice")

    def test_get_or_none_missing(self, store):
        assert store.get_or_none("users", "alice") is None

    def test_put_then_get(self, store):
        store.put("users", "alice", {"name": "Alice"})
        item = store.get("users", "alice")
        assert item.value == {"name": "Alice"}
        assert item.version == 1

    def test_versions_increment_per_write(self, store):
        for i in range(1, 6):
            assert store.put("t", "k", i) == i
        assert store.get("t", "k").version == 5

    def test_version_of_missing_key_is_absent_sentinel(self, store):
        assert store.version("t", "nope") == VERSION_ABSENT
        assert VERSION_ABSENT == 0
        assert VERSION_MISS == -1  # cache sentinel can never match

    def test_tables_are_independent(self, store):
        store.put("a", "k", 1)
        store.put("b", "k", 2)
        assert store.get("a", "k").value == 1
        assert store.get("b", "k").value == 2

    def test_get_returns_the_stored_item(self, store):
        # Reads share the stored, read-only item; copying is the sandbox
        # boundary's job (see the next test).
        store.put("t", "k", {"list": [1, 2]})
        assert store.get("t", "k") is store.get_or_none("t", "k")
        assert store.batch_get([("t", "k")])[("t", "k")] is store.get("t", "k")
        assert store.scan("t")[0][1] is store.get("t", "k")

    def test_primary_env_get_returns_deep_copy(self, store):
        store.put("t", "k", {"list": [1, 2]})
        value = PrimaryEnv(store).db_get("t", "k")
        value["list"].append(3)
        assert store.get("t", "k").value == {"list": [1, 2]}

    def test_put_copies_input(self, store):
        value = {"x": 1}
        store.put("t", "k", value)
        value["x"] = 99
        assert store.get("t", "k").value == {"x": 1}

    def test_delete_existing(self, store):
        store.put("t", "k", 1)
        assert store.delete("t", "k") is True
        assert not store.exists("t", "k")

    def test_delete_missing_returns_false(self, store):
        assert store.delete("t", "nope") is False

    def test_exists(self, store):
        assert not store.exists("t", "k")
        store.put("t", "k", 1)
        assert store.exists("t", "k")


class TestConditionalPut:
    def test_succeeds_on_matching_version(self, store):
        store.put("t", "k", "v1")
        assert store.conditional_put("t", "k", "v2", expected_version=1) == 2

    def test_fails_on_stale_version(self, store):
        store.put("t", "k", "v1")
        store.put("t", "k", "v2")
        with pytest.raises(ConditionFailed):
            store.conditional_put("t", "k", "v3", expected_version=1)

    def test_create_if_absent(self, store):
        store.conditional_put("t", "new", "v", expected_version=VERSION_ABSENT)
        assert store.get("t", "new").value == "v"

    def test_create_if_absent_fails_when_present(self, store):
        store.put("t", "k", "v")
        with pytest.raises(ConditionFailed):
            store.conditional_put("t", "k", "v2", expected_version=VERSION_ABSENT)

    def test_failed_condition_does_not_mutate(self, store):
        store.put("t", "k", "v1")
        with pytest.raises(ConditionFailed):
            store.conditional_put("t", "k", "bad", expected_version=99)
        item = store.get("t", "k")
        assert item.value == "v1" and item.version == 1


class TestBatchOps:
    def test_batch_versions(self, store):
        store.put("t", "a", 1)
        store.put("t", "b", 1)
        store.put("t", "b", 2)
        versions = store.batch_versions([("t", "a"), ("t", "b"), ("t", "c")])
        assert versions == {("t", "a"): 1, ("t", "b"): 2, ("t", "c"): 0}

    def test_batch_get_mixes_present_and_absent(self, store):
        store.put("t", "a", "x")
        out = store.batch_get([("t", "a"), ("t", "b")])
        assert out[("t", "a")].value == "x"
        assert out[("t", "b")] is None

    def test_apply_writes_returns_new_versions(self, store):
        store.put("t", "a", "old")
        versions = store.apply_writes(
            [WriteOp("t", "a", "new"), WriteOp("t", "b", "fresh")]
        )
        assert versions == {("t", "a"): 2, ("t", "b"): 1}
        assert store.get("t", "a").value == "new"

    def test_scan_sorted(self, store):
        store.put("t", "b", 2)
        store.put("t", "a", 1)
        assert [k for k, _item in store.scan("t")] == ["a", "b"]

    def test_counters_track_traffic(self, store):
        store.put("t", "a", 1)
        store.get("t", "a")
        store.get_or_none("t", "b")
        assert store.writes == 1
        assert store.reads == 2

    def test_size_and_table_names(self, store):
        store.put("users", "a", 1)
        store.put("users", "b", 1)
        store.put("posts", "p", 1)
        assert store.size("users") == 2
        assert store.table_names() == ["posts", "users"]


class TestVersionMonotonicity:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["put", "cput-ok", "cput-bad"]), st.integers(0, 3)),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_versions_never_decrease_and_gapless(self, ops):
        store = KVStore()
        last = {}
        for op, key_i in ops:
            key = f"k{key_i}"
            prev = last.get(key, 0)
            if op == "put":
                new = store.put("t", key, op)
                assert new == prev + 1
                last[key] = new
            elif op == "cput-ok":
                new = store.conditional_put("t", key, op, expected_version=prev)
                assert new == prev + 1
                last[key] = new
            else:
                with pytest.raises(ConditionFailed):
                    store.conditional_put("t", key, op, expected_version=prev + 17)
                assert store.version("t", key) == prev
