"""Tests for the f^rw slicer (:mod:`repro.analysis.ir.slice`): what is kept,
what is dropped, soundness.

Every assertion reads the derived f^rw's behaviour — the rw-set it derives
on concrete inputs, its IR access sites, its opcodes — never its text.
"""

import pytest

from repro.analysis import analyze_source, derive_rwset, extract_access_sites, slice_frw
from repro.errors import AnalysisError, CompileError
from repro.wasm import Op, compile_source


def _slice(src):
    return slice_frw(compile_source(src))


def _rw(frw, args, data=None):
    """(reads, writes) f^rw derives on ``args`` against ``data``."""
    data = data or {}
    rw, _gas = derive_rwset(frw, list(args), lambda t, k: data.get((t, k)))
    return list(rw.reads), list(rw.writes)


def _ops(frw):
    return [i.op for i in frw.instructions]


class TestSliceBasics:
    def test_pure_function_slices_to_nothing(self):
        result = _slice("def f(x):\n    return x * 2")
        assert not result.reads and not result.writes
        assert extract_access_sites(result.frw) == []
        assert _ops(result.frw) == [Op.PUSH, Op.RETURN]

    def test_single_read_kept(self):
        result = _slice('def f(k):\n    return db_get("t", f"item:{k}")')
        assert [s.kind for s in extract_access_sites(result.frw)] == ["read"]
        assert _rw(result.frw, ["a"]) == ([("t", "item:a")], [])
        assert result.reads and not result.writes

    def test_write_value_dropped(self):
        src = """
def f(k):
    expensive = pbkdf2_hash(k, "salt")
    db_put("t", f"k:{k}", expensive)
"""
        result = _slice(src)
        assert Op.CALL not in _ops(result.frw) and Op.INTRINSIC not in _ops(result.frw)
        assert _rw(result.frw, ["x"]) == ([], [("t", "k:x")])
        assert result.writes

    def test_key_dependency_kept(self):
        src = """
def f(x):
    key = f"item:{x + 1}"
    unrelated = x * 99
    return db_get("t", key)
"""
        result = _slice(src)
        assert _rw(result.frw, [4]) == ([("t", "item:5")], [])
        assert not any(i.op == Op.PUSH and i.arg == 99 for i in result.frw.instructions)

    def test_transitive_dependencies_kept(self):
        src = """
def f(x):
    a = x + 1
    b = a * 2
    c = b - 3
    noise = x * 1000
    return db_get("t", f"k:{c}")
"""
        result = _slice(src)
        assert _rw(result.frw, [5]) == ([("t", "k:9")], [])
        assert not any(i.op == Op.PUSH and i.arg == 1000 for i in result.frw.instructions)

    def test_slice_ratio_between_zero_and_one(self):
        analyzed = analyze_source('def f(k):\n    x = 1\n    return db_get("t", k)')
        assert 0.0 < analyzed.slice_ratio <= 1.0

    def test_invalid_source_raises(self):
        with pytest.raises((AnalysisError, CompileError)):
            analyze_source("not even python (")


class TestControlDependence:
    def test_branch_guarding_access_kept(self):
        src = """
def f(x, flag):
    if flag > 0:
        return db_get("t", f"a:{x}")
    return None
"""
        frw = _slice(src).frw
        assert _rw(frw, ["q", 1]) == ([("t", "a:q")], [])
        assert _rw(frw, ["q", 0]) == ([], [])

    def test_early_return_before_access_kept(self):
        # `if user is None: return` decides whether later accesses run.
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    if user is None:
        return None
    return db_get("profiles", f"p:{uid}")
"""
        frw = _slice(src).frw
        assert _rw(frw, ["7"]) == ([("users", "u:7")], [])
        assert _rw(frw, ["7"], {("users", "u:7"): {"n": 1}}) == (
            [("users", "u:7"), ("profiles", "p:7")], []
        )

    def test_early_return_after_last_access_dropped(self):
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    if user is None:
        return {"error": "no such user"}
    return {"ok": True}
"""
        frw = _slice(src).frw
        # The access happened already; neither branch matters for rw-sets.
        assert not any(op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE) for op in _ops(frw))
        assert Op.BUILD_DICT not in _ops(frw)
        assert _rw(frw, ["1"]) == ([("users", "u:1")], [])

    def test_loop_over_read_result_kept(self):
        src = """
def f(uid):
    ids = db_get("follows", f"f:{uid}")
    out = []
    for i in ids:
        item = db_get("posts", f"p:{i}")
        out.append(item)
    return out
"""
        result = _slice(src)
        assert result.dependent_reads
        assert _rw(result.frw, ["u"], {("follows", "f:u"): [3, 4]}) == (
            [("follows", "f:u"), ("posts", "p:3"), ("posts", "p:4")], []
        )
        sites = {s.table: s for s in extract_access_sites(result.frw)}
        assert sites["posts"].in_loop and not sites["follows"].in_loop

    def test_while_condition_variables_kept(self):
        src = """
def f(n):
    i = 0
    junk = 0
    while i < n:
        db_put("t", f"k:{i}", 0)
        i += 1
        junk += 99
    return junk
"""
        frw = _slice(src).frw
        assert _rw(frw, [3]) == ([], [("t", "k:0"), ("t", "k:1"), ("t", "k:2")])
        assert not any(i.op == Op.PUSH and i.arg == 99 for i in frw.instructions)

    def test_break_inside_loop_with_access_kept(self):
        src = """
def f(items):
    for x in items:
        if x == "stop":
            break
        db_put("t", f"k:{x}", 1)
    return None
"""
        frw = _slice(src).frw
        assert _rw(frw, [["a", "stop", "b"]]) == ([], [("t", "k:a")])

    def test_continue_inside_loop_with_access_kept(self):
        src = """
def f(items):
    for x in items:
        if x == "skip":
            continue
        db_put("t", f"k:{x}", 1)
    return None
"""
        frw = _slice(src).frw
        assert _rw(frw, [["a", "skip", "b"]]) == ([], [("t", "k:a"), ("t", "k:b")])


class TestDependentReads:
    def test_flagged_when_read_feeds_key(self):
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    return db_get("teams", f"t:{user['team']}")
"""
        result = _slice(src)
        assert result.dependent_reads
        assert [s.kind for s in extract_access_sites(result.frw)] == ["read", "read"]
        assert _rw(result.frw, ["9"], {("users", "u:9"): {"team": "red"}}) == (
            [("users", "u:9"), ("teams", "t:red")], []
        )

    def test_not_flagged_for_independent_reads(self):
        src = """
def f(a, b):
    x = db_get("t", f"k:{a}")
    y = db_get("t", f"k:{b}")
    return [x, y]
"""
        result = _slice(src)
        assert not result.dependent_reads
        assert Op.BUILD_LIST not in _ops(result.frw)

    def test_read_feeding_only_control_is_not_flagged(self):
        # The read's result gates *whether* the write happens, but every
        # access key is computable from the inputs alone — the paper's
        # Table 1 does not count existence checks as dependent accesses.
        # The slice still keeps the branch (f^rw must follow the same
        # path), it just is not flagged.
        src = """
def f(uid):
    flag = db_get("flags", f"flag:{uid}")
    if flag == 1:
        db_put("audit", f"a:{uid}", 1)
    return None
"""
        result = _slice(src)
        assert not result.dependent_reads
        assert _rw(result.frw, ["u"]) == ([("flags", "flag:u")], [])
        assert _rw(result.frw, ["u"], {("flags", "flag:u"): 1}) == (
            [("flags", "flag:u")], [("audit", "a:u")]
        )


class TestAliasing:
    def test_alias_mutation_kept(self):
        src = """
def f(uid):
    keys = []
    alias = keys
    alias.append(f"k:{uid}")
    for k in keys:
        db_put("t", k, 1)
    return None
"""
        frw = _slice(src).frw
        assert _rw(frw, ["u"]) == ([], [("t", "k:u")])

    def test_mutation_of_needed_list_kept(self):
        src = """
def f(n):
    keys = []
    for i in range(n):
        keys.append(f"k:{i}")
    garbage = []
    for i in range(n):
        garbage.append(i * i)
    for k in keys:
        db_put("t", k, 0)
    return None
"""
        frw = _slice(src).frw
        assert _rw(frw, [2]) == ([], [("t", "k:0"), ("t", "k:1")])
        appends = [i for i in frw.instructions if i.op == Op.METHOD and i.arg[0] == "append"]
        assert len(appends) == 1  # keys' append survives, garbage's does not

    def test_dead_value_mutation_dropped(self):
        # The read result is mutated and written back: the mutation only
        # shapes the written value, so f^rw neither indexes nor stores it.
        src = """
def f(k):
    votes = db_get("t", f"v:{k}")
    votes["up"] = votes["up"] + 1
    db_put("t", f"v:{k}", votes)
    return None
"""
        frw = _slice(src).frw
        assert Op.STORE_INDEX not in _ops(frw) and Op.INDEX not in _ops(frw)
        assert _rw(frw, ["a"], {("t", "v:a"): {"up": 1}}) == ([("t", "v:a")], [("t", "v:a")])


class TestPutWithNestedRead:
    def test_nested_read_inside_put_value_survives(self):
        src = """
def f(a, b):
    db_put("t", f"dst:{a}", db_get("t", f"src:{b}"))
"""
        frw = _slice(src).frw
        assert sorted(s.kind for s in extract_access_sites(frw)) == ["read", "write"]
        assert _rw(frw, ["x", "y"]) == ([("t", "src:y")], [("t", "dst:x")])


class TestExternal:
    def test_key_from_external_rejected(self):
        src = """
def f(uid):
    token = external("auth", uid)
    return db_get("t", f"k:{token}")
"""
        with pytest.raises(AnalysisError):
            _slice(src)
