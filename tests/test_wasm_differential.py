"""Differential testing: the VM must agree with CPython on the subset.

Hypothesis generates random programs in (a fragment of) the supported
subset; each is executed both by the wasm-lite pipeline and by CPython
``exec``.  Agreement on results — or agreement on *failing* — is the
determinism foundation the protocol's re-execution relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VMError
from repro.wasm import DictEnv, VM, compile_source


def run_both(source, args):
    """Execute via the VM and via CPython; return (vm_result, py_result),
    where either may be the string '<error>' if that side raised."""
    try:
        fn = compile_source(source)
        vm_result = VM(DictEnv()).execute(fn, list(args)).result
    except VMError:
        vm_result = "<error>"
    namespace = {}
    exec(source, {"__builtins__": {
        "len": len, "str": str, "int": int, "float": float, "bool": bool,
        "abs": abs, "min": min, "max": max, "sum": sum, "sorted": sorted,
        "range": range, "round": round, "list": list, "dict": dict,
    }}, namespace)
    py_fn = next(v for v in namespace.values() if callable(v))
    try:
        py_result = py_fn(*args)
    except Exception:
        py_result = "<error>"
    return vm_result, py_result


# -- generators --------------------------------------------------------------

_int = st.integers(min_value=-50, max_value=50)
_small = st.integers(min_value=1, max_value=8)

_binops = st.sampled_from(["+", "-", "*", "//", "%"])
_cmps = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])


@st.composite
def arith_expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", str(draw(_int))]))
    left = draw(arith_expr(depth=depth + 1))
    right = draw(arith_expr(depth=depth + 1))
    op = draw(_binops)
    return f"({left} {op} {right})"


@st.composite
def program(draw):
    lines = ["def f(a, b):"]
    n_stmts = draw(st.integers(min_value=1, max_value=4))
    names = ["a", "b"]
    for i in range(n_stmts):
        name = f"v{i}"
        expr = draw(arith_expr())
        lines.append(f"    {name} = {expr}")
        names.append(name)
    cond_left = draw(st.sampled_from(names))
    cond_right = draw(st.sampled_from(names))
    cmp_op = draw(_cmps)
    ret_a = draw(st.sampled_from(names))
    ret_b = draw(st.sampled_from(names))
    lines.append(f"    if {cond_left} {cmp_op} {cond_right}:")
    lines.append(f"        return {ret_a}")
    lines.append(f"    return {ret_b} * 2")
    return "\n".join(lines)


#: Slice bounds: ints and None, which slices take, and values it does not.
_slice_bounds = st.one_of(
    st.sampled_from(["None", "a", "b", '"a"', "1.5", "[1]"]), _int.map(str),
)


@st.composite
def slice_program(draw):
    seq = draw(st.sampled_from(["[a, b, 3, 4]", '"abcdef"', "(a, b, 5)"]))
    lo, hi = draw(_slice_bounds), draw(_slice_bounds)
    return f"def f(a, b):\n    s = {seq}\n    return s[{lo}:{hi}]"


@st.composite
def dict_key_program(draw):
    """Dict displays keyed by scalars and by tuples, some of which hold a
    list or a dict (unhashable), and by a list."""
    keys = draw(st.lists(st.sampled_from([
        "a", '"k"', "(1, a)", "(b, (a, 2))", "(1, [a])", "(a, {})", "[a]",
    ]), min_size=1, max_size=3))
    pairs = ", ".join(f"{k}: {i}" for i, k in enumerate(keys))
    return f"def f(a, b):\n    d = {{{pairs}}}\n    return [len(d), d]"


class TestDifferentialArithmetic:
    @given(source=program(), a=_int, b=_int)
    @settings(max_examples=150, deadline=None)
    def test_property_vm_agrees_with_cpython(self, source, a, b):
        vm_result, py_result = run_both(source, [a, b])
        assert vm_result == py_result

    @given(source=slice_program(), a=_int, b=_int)
    @settings(max_examples=100, deadline=None)
    def test_property_slices_agree(self, source, a, b):
        # A bound no slice takes (a str, a float, a list) fails on both
        # sides: a trap in the VM, never a raw TypeError.
        vm_result, py_result = run_both(source, [a, b])
        assert vm_result == py_result

    @given(source=dict_key_program(), a=_int, b=_int)
    @settings(max_examples=100, deadline=None)
    def test_property_dict_keys_agree(self, source, a, b):
        vm_result, py_result = run_both(source, [a, b])
        assert vm_result == py_result

    @given(a=_int, b=_int, n=_small)
    @settings(max_examples=60, deadline=None)
    def test_property_loops_agree(self, a, b, n):
        source = f"""
def f(a, b):
    total = 0
    for i in range({n}):
        total = total + a * i - b
    return total
"""
        vm_result, py_result = run_both(source, [a, b])
        assert vm_result == py_result

    @given(values=st.lists(_int, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_property_list_ops_agree(self, values):
        source = """
def f(a, b):
    xs = a
    xs.sort()
    out = []
    for x in xs:
        if x >= b:
            out.append(x)
    return [len(out), sum(out), out[:3]]
"""
        vm_result, py_result = run_both(source, [list(values), 0])
        assert vm_result == py_result

    @given(s=st.text(alphabet="abc:XYZ", min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property_string_ops_agree(self, s):
        source = """
def f(a, b):
    parts = a.split(":")
    joined = "-".join(parts)
    return [len(parts), joined.lower(), joined.startswith("a")]
"""
        vm_result, py_result = run_both(source, [s, 0])
        assert vm_result == py_result

    @given(a=_int, b=_int)
    @settings(max_examples=60, deadline=None)
    def test_property_fstrings_agree(self, a, b):
        source = """
def f(a, b):
    return f"k:{a}:{a + b}:{a > b}"
"""
        vm_result, py_result = run_both(source, [a, b])
        assert vm_result == py_result

    @given(a=_int)
    @settings(max_examples=40, deadline=None)
    def test_property_while_agrees(self, a):
        source = """
def f(a, b):
    i = 0
    acc = []
    while i < 5:
        if i == a:
            i += 2
            continue
        acc.append(i)
        i += 1
    return acc
"""
        vm_result, py_result = run_both(source, [a, 0])
        assert vm_result == py_result


class TestDifferentialDicts:
    @given(keys=st.lists(st.sampled_from("pqrs"), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_property_dict_ops_agree(self, keys):
        source = """
def f(a, b):
    counts = {}
    for k in a:
        prev = counts.get(k, 0)
        counts[k] = prev + 1
    return [counts, sorted(counts.keys()), len(counts.values())]
"""
        vm_result, py_result = run_both(source, [list(keys), 0])
        assert vm_result == py_result
