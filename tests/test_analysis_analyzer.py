"""Tests for the analyzer facade, f^rw execution, and soundness properties.

The central soundness property (what linearizability depends on): for any
inputs and any cache contents consistent between f^rw and f's speculative
run, the set f^rw predicts equals the set f actually accesses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NonDeterminismError
from repro.analysis import ReadWriteSet, analyze_source, derive_rwset, try_analyze
from repro.wasm import DictEnv, VM


def predict_and_run(source, args, data):
    """Helper: returns (predicted rwset, actual trace) on shared data."""
    analyzed = analyze_source(source)
    store = dict(data)
    rwset, _gas = derive_rwset(analyzed.frw, list(args), lambda t, k: store.get((t, k)))
    trace = VM(DictEnv(dict(data))).execute(analyzed.f, list(args))
    return analyzed, rwset, trace


class TestAnalyzedFunction:
    def test_login_profile(self):
        src = """
def login(username, password):
    user = db_get("users", f"user:{username}")
    if user is None:
        return {"ok": False}
    hashed = pbkdf2_hash(password, user["salt"])
    return {"ok": hashed == user["hash"]}
"""
        analyzed = analyze_source(src)
        assert analyzed.analyzable
        assert not analyzed.writes
        assert analyzed.reads
        assert analyzed.slice_ratio < 0.5  # pbkdf2 and checks sliced away

    def test_writer_flagged(self):
        analyzed = analyze_source('def f(k):\n    db_put("t", k, 1)')
        assert analyzed.writes

    def test_unanalyzable_source_degrades_gracefully(self):
        # Compiles, but the key depends on an external service's response.
        src = "def f(x):\n    t = external('tokens', x)\n    return db_get('t', f'k:{t}')"
        result = try_analyze(src)
        assert not result.analyzable
        assert result.frw is None
        assert result.error

    def test_nondeterminism_always_rejected(self):
        with pytest.raises(NonDeterminismError):
            try_analyze("def f():\n    return now()")

    def test_frw_gas_much_cheaper_for_login(self):
        src = """
def login(username, password):
    user = db_get("users", f"user:{username}")
    if user is None:
        return {"ok": False}
    hashed = pbkdf2_hash(password, user["salt"])
    return {"ok": hashed == user["hash"]}
"""
        analyzed = analyze_source(src)
        data = {("users", "user:u"): {"salt": "s", "hash": "h"}}
        _rw, frw_gas = derive_rwset(analyzed.frw, ["u", "pw"], lambda t, k: data.get((t, k)))
        f_trace = VM(DictEnv(dict(data))).execute(analyzed.f, ["u", "pw"])
        assert frw_gas * 100 < f_trace.gas_used


class TestPredictionMatchesExecution:
    def test_simple_read(self):
        _a, rwset, trace = predict_and_run(
            'def f(k):\n    return db_get("t", f"i:{k}")', ["x"], {}
        )
        assert set(rwset.reads) == set(trace.read_keys())

    def test_conditional_access_same_path(self):
        src = """
def f(uid, premium):
    if premium == 1:
        return db_get("premium", f"p:{uid}")
    return db_get("basic", f"b:{uid}")
"""
        for premium in (0, 1):
            _a, rwset, trace = predict_and_run(src, ["u", premium], {})
            assert set(rwset.reads) == set(trace.read_keys())

    def test_dependent_read_chain(self):
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    if user is None:
        return None
    return db_get("teams", f"t:{user['team']}")
"""
        data = {("users", "u:alice"): {"team": "blue"}}
        _a, rwset, trace = predict_and_run(src, ["alice"], data)
        assert set(rwset.reads) == set(trace.read_keys()) == {
            ("users", "u:alice"),
            ("teams", "t:blue"),
        }

    def test_dependent_read_missing_prefix(self):
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    if user is None:
        return None
    return db_get("teams", f"t:{user['team']}")
"""
        _a, rwset, trace = predict_and_run(src, ["ghost"], {})
        assert set(rwset.reads) == set(trace.read_keys()) == {("users", "u:ghost")}

    def test_fanout_writes(self):
        src = """
def f(uid, text):
    pid = digest(f"{uid}:{text}")
    db_put("posts", f"post:{pid}", {"t": text})
    fans = db_get("followers", f"fo:{uid}")
    if fans is None:
        fans = []
    for fan in fans:
        db_put("timelines", f"tl:{fan}", pid)
    return pid
"""
        data = {("followers", "fo:u"): ["a", "b", "c"]}
        _a, rwset, trace = predict_and_run(src, ["u", "hi"], data)
        assert set(rwset.writes) == set(trace.write_keys())
        assert len(rwset.writes) == 4

    @given(
        uid=st.integers(min_value=0, max_value=20),
        fanout=st.lists(st.integers(min_value=0, max_value=20), max_size=5),
        premium=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_prediction_covers_execution(self, uid, fanout, premium):
        src = """
def f(uid, premium):
    user = db_get("users", f"u:{uid}")
    if user is None:
        return None
    if premium == 1:
        db_put("billing", f"bill:{uid}", 1)
    out = []
    for friend in user["friends"]:
        item = db_get("feeds", f"feed:{friend}")
        out.append(item)
        db_put("seen", f"seen:{uid}:{friend}", 1)
    return out
"""
        data = {("users", f"u:{uid}"): {"friends": [str(x) for x in fanout]}}
        _a, rwset, trace = predict_and_run(src, [str(uid), 1 if premium else 0], data)
        predicted = ReadWriteSet.from_lists(list(rwset.reads), list(rwset.writes))
        actual = ReadWriteSet.from_lists(trace.read_keys(), trace.write_keys())
        assert predicted.covers(actual)
        assert set(predicted.reads) == set(actual.reads)
        assert set(predicted.writes) == set(actual.writes)


class TestReadWriteSet:
    def test_dedup_preserves_order(self):
        rw = ReadWriteSet.from_lists(
            [("t", "a"), ("t", "b"), ("t", "a")], [("t", "c"), ("t", "c")]
        )
        assert rw.reads == (("t", "a"), ("t", "b"))
        assert rw.writes == (("t", "c"),)

    def test_all_keys_union(self):
        rw = ReadWriteSet.from_lists([("t", "a")], [("t", "a"), ("t", "b")])
        assert rw.all_keys == (("t", "a"), ("t", "b"))

    def test_covers(self):
        big = ReadWriteSet.from_lists([("t", "a"), ("t", "b")], [("t", "c")])
        small = ReadWriteSet.from_lists([("t", "a")], [("t", "c")])
        assert big.covers(small)
        assert not small.covers(big)

    def test_is_empty_and_has_writes(self):
        assert ReadWriteSet.from_lists([], []).is_empty()
        assert ReadWriteSet.from_lists([], [("t", "x")]).has_writes


class TestVersionedReadSet:
    def test_stale_detection(self):
        from repro.analysis import VersionedReadSet

        vrs = VersionedReadSet(versions={("t", "a"): 3, ("t", "b"): 1})
        stale = vrs.stale_against({("t", "a"): 3, ("t", "b"): 2})
        assert stale == [("t", "b")]

    def test_absent_key_matches_version_zero(self):
        from repro.analysis import VersionedReadSet

        vrs = VersionedReadSet(versions={("t", "ghost"): 0})
        assert vrs.stale_against({}) == []

    def test_miss_sentinel_always_stale(self):
        from repro.analysis import VersionedReadSet

        vrs = VersionedReadSet(versions={("t", "a"): -1})
        assert vrs.has_miss
        assert vrs.stale_against({("t", "a"): 0}) == [("t", "a")]
