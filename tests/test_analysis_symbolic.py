"""Tests for the symbolic executor (the Eunomia-style analysis engine)."""

import pytest

from repro.analysis import analyze_source, extract_access_sites, symbolic_analyze
from repro.errors import AnalysisError, AnalysisTimeout


class TestPathEnumeration:
    def test_straight_line_single_path(self):
        rep = symbolic_analyze('def f(k):\n    return db_get("t", f"i:{k}")')
        assert len(rep.paths) == 1
        assert rep.paths[0].terminated

    def test_symbolic_branch_two_paths(self):
        src = """
def f(x):
    if x > 0:
        return db_get("pos", f"p:{x}")
    return db_get("neg", f"n:{x}")
"""
        rep = symbolic_analyze(src)
        assert len(rep.paths) == 2
        assert rep.tables == {"pos", "neg"}

    def test_both_sides_continue_past_branch(self):
        # Statements AFTER an if must execute on both forks.
        src = """
def f(x):
    if x > 0:
        a = 1
    else:
        a = 2
    return db_get("t", f"k:{x}")
"""
        rep = symbolic_analyze(src)
        assert len(rep.paths) == 2
        for path in rep.paths:
            assert len(path.accesses) == 1

    def test_concrete_branch_not_forked(self):
        src = """
def f(x):
    if 1 > 0:
        return db_get("always", f"k:{x}")
    return db_get("never", f"k:{x}")
"""
        rep = symbolic_analyze(src)
        assert len(rep.paths) == 1
        assert rep.tables == {"always"}

    def test_nested_branches_enumerate(self):
        src = """
def f(a, b):
    if a > 0:
        if b > 0:
            db_put("t", "k1", 1)
        else:
            db_put("t", "k2", 1)
    else:
        db_put("t", "k3", 1)
    return None
"""
        rep = symbolic_analyze(src)
        assert len(rep.paths) == 3
        keys = {s.key_pattern for s in rep.writes}
        assert keys == {"k1", "k2", "k3"}

    def test_path_conditions_recorded(self):
        src = """
def f(flag):
    if flag == 1:
        db_put("t", "guarded", 1)
    return None
"""
        rep = symbolic_analyze(src)
        guarded = [s for s in rep.all_accesses() if s.key_pattern == "guarded"]
        assert guarded
        assert "cmp" in guarded[0].path_condition

    def test_path_budget_raises_timeout(self):
        src = "def f(x):\n" + "\n".join(
            f"    if x > {i}:\n        y{i} = 1" for i in range(10)
        ) + "\n    return db_get('t', f'k:{x}')"
        with pytest.raises(AnalysisTimeout):
            symbolic_analyze(src, max_paths=4)

    def test_step_budget_raises_timeout(self):
        src = """
def f(x):
    i = 0
    for i in range(100000):
        x = x + 1
    return db_get("t", f"k:{x}")
"""
        with pytest.raises(AnalysisTimeout):
            symbolic_analyze(src, max_steps=500)


class TestAccessPatterns:
    def test_key_pattern_shows_inputs(self):
        rep = symbolic_analyze('def f(uid):\n    return db_get("users", f"user:{uid}")')
        assert rep.reads[0].key_pattern == "user:{input:uid}"

    def test_concrete_key_fully_resolved(self):
        rep = symbolic_analyze('def f():\n    return db_get("front", "frontpage")')
        assert rep.reads[0].key_pattern == "frontpage"

    def test_symbolic_table_rejected(self):
        with pytest.raises(AnalysisError, match="symbolic table"):
            symbolic_analyze("def f(t):\n    return db_get(t, 'k')")

    def test_loop_accesses_marked_many(self):
        src = """
def f(uid):
    ids = db_get("index", f"ids:{uid}")
    for i in ids:
        db_put("items", f"item:{i}", 1)
    return None
"""
        rep = symbolic_analyze(src)
        write = rep.writes[0]
        assert write.multiplicity == "many"
        assert write.dependent  # element of a read result feeds the key

    def test_concrete_loop_unrolled_exactly(self):
        src = """
def f():
    for i in [1, 2, 3]:
        db_put("t", f"k:{i}", i)
    return None
"""
        rep = symbolic_analyze(src)
        keys = sorted(s.key_pattern for s in rep.all_accesses())
        assert keys == ["k:1", "k:2", "k:3"]
        assert all(s.multiplicity == "one" for s in rep.all_accesses())

    def test_constant_folding_through_arithmetic(self):
        rep = symbolic_analyze('def f():\n    return db_get("t", f"k:{2 + 3 * 4}")')
        assert rep.reads[0].key_pattern == "k:14"

    def test_read_result_marks_dependency(self):
        src = """
def f(uid):
    user = db_get("users", f"u:{uid}")
    return db_get("teams", f"t:{user['team']}")
"""
        rep = symbolic_analyze(src)
        team_read = [s for s in rep.reads if s.table == "teams"][0]
        assert team_read.dependent
        user_read = [s for s in rep.reads if s.table == "users"][0]
        assert not user_read.dependent

    def test_write_value_does_not_mark_dependency(self):
        src = """
def f(uid):
    data = db_get("src", f"s:{uid}")
    db_put("dst", f"d:{uid}", data)
    return None
"""
        rep = symbolic_analyze(src)
        write = rep.writes[0]
        assert not write.dependent  # key depends only on the input


class TestCrossValidationWithSlicer:
    """The two analyses must agree on the paper's Table 1 facts."""

    def test_dependent_classification_agrees_on_all_27(self):
        from repro.apps import all_apps

        for app in all_apps():
            for fn in app.functions:
                sym = symbolic_analyze(fn.spec.source)
                sliced = analyze_source(fn.spec.source)
                assert sym.has_dependent_access == sliced.dependent_reads, fn.function_id

    def test_write_detection_agrees_on_all_27(self):
        from repro.apps import all_apps

        for app in all_apps():
            for fn in app.functions:
                sym = symbolic_analyze(fn.spec.source)
                sliced = analyze_source(fn.spec.source)
                assert bool(sym.writes) == sliced.writes, fn.function_id

    def test_tables_found_symbolically_appear_in_slice(self):
        from repro.apps import all_apps

        for app in all_apps():
            for fn in app.functions:
                sym = symbolic_analyze(fn.spec.source)
                sliced = analyze_source(fn.spec.source)
                frw_tables = {s.table for s in extract_access_sites(sliced.frw)}
                for table in sym.tables:
                    assert table in frw_tables, (fn.function_id, table)

    def test_symbolic_paths_terminate_for_all_27(self):
        from repro.apps import all_apps

        for app in all_apps():
            for fn in app.functions:
                rep = symbolic_analyze(fn.spec.source)
                assert 1 <= len(rep.paths) <= 16, fn.function_id


class TestReportApi:
    def test_dedup_of_sites(self):
        src = """
def f(a, b):
    if a > 0:
        x = db_get("t", f"k:{b}")
    else:
        x = db_get("t", f"k:{b}")
    return x
"""
        rep = symbolic_analyze(src)
        # Two different lines -> two sites even though patterns match.
        assert len(rep.reads) == 2
        assert len({s.line for s in rep.reads}) == 2

    def test_params_and_name(self):
        rep = symbolic_analyze("def foo(a, b):\n    return a")
        assert rep.function_name == "foo"
        assert rep.params == ["a", "b"]

    def test_steps_counted(self):
        rep = symbolic_analyze("def f():\n    return 1 + 2 + 3")
        assert rep.steps_used > 0
