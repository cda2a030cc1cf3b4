"""The generated engine must be the stepper, exactly.

Every wasm-lite function runs as Python generated once per function
(:mod:`repro.wasm.codegen`); the stepper (``VM._step``) is the reference
semantics.  The reference runs with the generator patched to reject
everything — the reference-patch idiom of
``tests/test_scheduler_equivalence.py`` — and the two engines are compared
on everything an execution shows: result, reads, writes, external calls,
gas used, an exception's type and message, and the ordered calls into the
environment and the access hook.
"""

import contextlib
import dataclasses
import functools
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_apps
from repro.core import FunctionRegistry
from repro.errors import GasExhausted, VMTrap
from repro.sim import RandomStreams
from repro.storage import KVStore
from repro.storage.fastcopy import fast_deepcopy
from repro.wasm import DEFAULT_GAS_LIMIT, VM, DictEnv, Instr, Op, WasmFunction, codegen
from repro.wasm import compile_source
from repro.wasm import vm as vm_module

from test_wasm_differential import _int, dict_key_program, program, slice_program


@contextlib.contextmanager
def stepper_only():
    """Inside the block, a function not yet run is never compiled: every
    execution of it is the stepper's."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(codegen, "generate", lambda func, runtime: None)
        yield


def fresh(func):
    """A copy of ``func`` with no generated code cached on it."""
    return dataclasses.replace(func)


class _Env:
    """Replay storage: reads hit ``store`` through a read-your-writes
    buffer, writes never reach it, and every call lands in ``log``."""

    def __init__(self, store, log):
        self.store, self.log, self.buffer = store, log, {}

    def db_get(self, table, key):
        if (table, key) in self.buffer:
            value = fast_deepcopy(self.buffer[(table, key)])
        else:
            item = self.store.get_or_none(table, key) if self.store else None
            value = None if item is None else fast_deepcopy(item.value)
        self.log.append(("get", table, key, fast_deepcopy(value)))
        return value

    def db_put(self, table, key, value):
        self.log.append(("put", table, key, fast_deepcopy(value)))
        self.buffer[(table, key)] = fast_deepcopy(value)


def outcome(func, args, store=None, gas_limit=DEFAULT_GAS_LIMIT):
    """Everything observable about one execution."""
    log = []

    def hook(kind, table, key):
        log.append(("hook", kind, table, key))

    def external(service, payload, seq):
        log.append(("external", service, fast_deepcopy(payload), seq))
        return {"service": service, "seq": seq}

    vm = VM(_Env(store, log), gas_limit=gas_limit, external=external, access_hook=hook)
    try:
        trace = vm.execute(func, fast_deepcopy(list(args)))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc), log)
    return (
        "returned", fast_deepcopy(trace.result), trace.reads,
        fast_deepcopy(trace.writes), trace.external_calls, trace.gas_used, log,
    )


def both(func, runs):
    """(generated, stepped) outcomes of ``runs`` = [(args, store, limit)]."""
    generated = fresh(func)
    gen = [outcome(generated, a, s, limit) for a, s, limit in runs]
    with stepper_only():
        stepped = fresh(func)
        ref = [outcome(stepped, a, s, limit) for a, s, limit in runs]
    return gen, ref


@functools.lru_cache(maxsize=None)
def corpus():
    """(function, store, inputs) for every corpus f and f^rw, with the
    ``analysis`` replay's inputs at seeds 42, 7 and 2024 (ten each)."""
    registry = FunctionRegistry()
    cases = []
    for app in all_apps():
        store = KVStore(app.name)
        app.seed(store, RandomStreams(7), app.context)
        for fn in app.functions:
            analyzed = registry.register(fn.spec).analyzed
            inputs = []
            for seed in (42, 7, 2024):
                rng = random.Random(f"{seed}:{fn.function_id}")
                inputs += [fn.arggen(app.context, rng) for _ in range(10)]
            cases += [(analyzed.f, store, inputs), (analyzed.frw, store, inputs)]
    return tuple(cases)


def replay_mismatches(cases):
    """(function, args) wherever the engines disagree on a replay input."""
    bad = []
    for func, store, inputs in cases:
        gen, ref = both(func, [(a, store, DEFAULT_GAS_LIMIT) for a in inputs])
        bad += [(func.name, a) for a, g, r in zip(inputs, gen, ref) if g != r]
    return bad


class _Marking(codegen._Generator):
    """The generator plus a probe: every block reports its entry gas and
    length to ``_mark``."""

    def _charge(self, start, n, st, ind):
        self._w(ind, f"_mark(gas, {n})")
        super()._charge(start, n, st, ind)


def block_boundaries(func, store, args):
    """(gas used, the gas at which each block this run executes starts and
    ends — before a data-dependent charge) of one run."""
    marks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(codegen, "_Generator", _Marking)
        m.setitem(vm_module._RUNTIME, "_mark", lambda gas, n: marks.append((gas, n)))
        done = outcome(fresh(func), args, store)
    return done, {b for gas, n in marks for b in (gas, gas + n)}


def boundary_mismatches(cases, inputs_per_function=3):
    """(function, limit) wherever the engines disagree with the limit
    within 2 of a block boundary or of the gas the run uses."""
    bad = []
    for func, store, inputs in cases:
        picked = inputs[::10][:inputs_per_function]  # one per seed
        for args in picked:
            done, marks = block_boundaries(func, store, args)
            if done[0] == "returned":
                marks.add(done[5])
            limits = sorted({m + d for m in marks for d in range(-2, 3) if m + d >= 0})
            gen, ref = both(func, [(args, store, limit) for limit in limits])
            bad += [(func.name, lim) for lim, g, r in zip(limits, gen, ref) if g != r]
    return bad


# -- (a) differential over the corpus and the Hypothesis programs -------------


class TestDifferential:
    def test_corpus_replay_generated_matches_stepper(self, monkeypatch):
        calls = []
        original = VM._step

        def counting(self, *args):
            calls.append(args[0].name)
            return original(self, *args)

        monkeypatch.setattr(VM, "_step", counting)
        assert replay_mismatches(corpus()) == []
        # The stepper ran only for the references, never for a generated
        # function: no corpus function runs in it outside exhaustion.
        assert len(calls) == sum(len(inputs) for _f, _s, inputs in corpus())

    @given(
        source=st.one_of(program(), slice_program(), dict_key_program()),
        a=_int, b=_int,
        limit=st.one_of(st.integers(min_value=0, max_value=40), st.just(DEFAULT_GAS_LIMIT)),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_programs_generated_matches_stepper(self, source, a, b, limit):
        func = compile_source(source)
        gen, ref = both(func, [([a, b], None, limit)])
        assert gen == ref

    def test_external_calls_and_writes_match(self):
        func = compile_source(
            "def f(a, b):\n"
            "    first = external('pay', {'amount': a})\n"
            "    db_put('t', f'k:{b}', [first, a])\n"
            "    second = external('mail', b)\n"
            "    return [first, second, db_get('t', f'k:{b}')]\n"
        )
        gen, ref = both(func, [([3, "x"], None, DEFAULT_GAS_LIMIT)])
        assert gen == ref
        assert gen[0][4] == [("pay", 0), ("mail", 1)]


# -- (b) gas-boundary sweep ----------------------------------------------------


def test_gas_boundary_sweep_over_the_corpus():
    assert boundary_mismatches(corpus()) == []


# -- (c) planted generator mutants ---------------------------------------------


class _ChargeOffByOne(codegen._Generator):
    def _charge(self, start, n, st, ind):
        super()._charge(start, n - 1, st, ind)


class _ReadHookSkipped(codegen._Generator):
    def _access(self, kind, table, key, ind):
        if kind != "read":
            super()._access(kind, table, key, ind)


class _HandoffDropped(codegen._Generator):
    def _charge(self, start, n, st, ind):
        self._w(ind, f"gas += {n}")  # the block overruns the limit


@pytest.mark.parametrize("mutant", [_ChargeOffByOne, _ReadHookSkipped, _HandoffDropped])
def test_planted_generator_mutant_is_killed(monkeypatch, mutant):
    cases = [c for c in corpus() if c[0].name.startswith("forum_")]
    monkeypatch.setattr(codegen, "_Generator", mutant)
    assert replay_mismatches(cases) or boundary_mismatches(cases, inputs_per_function=1)


# -- (d) coverage ratchet ------------------------------------------------------


def test_every_corpus_function_compiles():
    assert len(corpus()) == 54
    assert [f.name for f, _s, _i in corpus() if codegen.generate_source(f) is None] == []


def test_generated_function_leaves_no_cycle():
    """A generated function is freed by reference counting alone: the exec
    namespace must not keep ``_factory``, whose ``__globals__`` it is, or
    every deployment leaves a function <-> dict cycle per function."""
    func = corpus()[0][0]
    gc.collect()
    gc.disable()
    try:
        run = codegen.generate(func, vm_module._RUNTIME)
        assert run is not None
        del run
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- (e) hash-seed independence ------------------------------------------------


def test_generated_source_independent_of_hash_seed():
    script = (
        "from repro.apps import all_apps\n"
        "from repro.core import FunctionRegistry\n"
        "from repro.wasm import codegen\n"
        "registry = FunctionRegistry()\n"
        "for app in all_apps():\n"
        "    for fn in app.functions:\n"
        "        analyzed = registry.register(fn.spec).analyzed\n"
        "        for func in (analyzed.f, analyzed.frw):\n"
        "            source, consts = codegen.generate_source(func)\n"
        "            print(source, repr(consts))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("def _factory(K, NAME):") == 54


# -- semantics both engines share ----------------------------------------------


def run_both_engines(source, args, gas_limit=DEFAULT_GAS_LIMIT):
    gen, ref = both(compile_source(source), [(args, None, gas_limit)])
    assert gen == ref
    return gen[0]


class TestGasHole:
    def test_sequence_repeat_charges_its_length(self):
        done = run_both_engines("def f():\n    return 'ab' * 3", [])
        assert done[1] == "ababab"
        assert done[5] == 4 + 6  # four instructions plus the result's length

    def test_list_repeat_trips_before_it_is_built(self):
        done = run_both_engines("def f(n):\n    return [0] * n", [10 ** 12], gas_limit=10_000)
        assert done[:3] == ("raised", "GasExhausted", "f: exceeded 10000 gas at pc=3")

    def test_int_power_charges_its_words(self):
        assert run_both_engines("def f():\n    return 2 ** 10", [])[5] == 4 + 1
        assert run_both_engines("def f():\n    return 2 ** 640", [])[5] == 4 + 21
        done = run_both_engines("def f(n):\n    return 10 ** n", [10 ** 9], gas_limit=10_000)
        assert done[:3] == ("raised", "GasExhausted", "f: exceeded 10000 gas at pc=2")

    def test_int_product_costs_one(self):
        assert run_both_engines("def f(a, b):\n    return a * b", [6, 7])[5] == 4


class TestTraps:
    @pytest.mark.parametrize("source,args,message", [
        ("def f(s):\n    return s['a':None]", ["abc"],
         "f: slice failed: slice indices must be integers or None or have an __index__ method"),
        ("def f(x):\n    return {(1, x): 2}", [[1]], "f: unhashable dict key (1, [1])"),
        ("def f(x):\n    return {x: 2}", [[1]], "f: unhashable dict key [1]"),
        ("def f(a):\n    if a:\n        x = 1\n    return x", [0], "f: unbound variable 'x'"),
        ("def f(a):\n    return a[5]", [[1]], "f: index failed: list index out of range"),
        ("def f(a):\n    return a < 'x'", [1],
         "f: comparison < failed: '<' not supported between instances of 'int' and 'str'"),
        ("def f(a):\n    return len(a)", [1], "f: builtin len failed: object of type 'int' has no len()"),
        ("def f(a):\n    a.append(1)\n    return a", ["s"], "f: method 'append' not allowed on str"),
    ])
    def test_trap_is_a_vmtrap_in_both_engines(self, source, args, message):
        assert run_both_engines(source, args)[:3] == ("raised", "VMTrap", message)
        with pytest.raises(VMTrap):
            VM(DictEnv()).execute(compile_source(source), args)


class TestRejectedFunctions:
    def test_inconsistent_stack_depth_runs_in_the_stepper(self):
        # pc 3 is entered with one value on the stack (fall through) and
        # with none (the jump): the generator rejects the function.
        func = WasmFunction("f", ["a"], [
            Instr(Op.LOAD, "a"), Instr(Op.JUMP_IF_FALSE, 3), Instr(Op.PUSH, 1),
            Instr(Op.PUSH, 2), Instr(Op.RETURN),
        ])
        assert codegen.generate_source(func) is None
        trace = VM(DictEnv()).execute(func, [1])
        assert (trace.result, trace.gas_used) == (2, 5)
        assert VM(DictEnv()).execute(func, [0]).gas_used == 4

    def test_unknown_opcode_traps_in_the_stepper(self):
        func = WasmFunction("f", [], [Instr("frobnicate"), Instr(Op.RETURN)])
        assert codegen.generate_source(func) is None
        with pytest.raises(VMTrap, match="f: unknown opcode 'frobnicate'"):
            VM(DictEnv()).execute(func, [])

    def test_falling_off_the_end_traps_in_the_stepper(self):
        func = WasmFunction("f", [], [Instr(Op.PUSH, 1), Instr(Op.POP)])
        assert codegen.generate_source(func) is None
        with pytest.raises(VMTrap, match="fell off the end"):
            VM(DictEnv()).execute(func, [])


class _Loud(str):
    """A str whose repr is code."""

    def __repr__(self):
        return "__import__('os').getpid()"


class TestGeneratorSecurity:
    def test_nothing_from_the_function_is_pasted_into_source(self):
        func = WasmFunction("f'); import os; ('", ["a'); import os; ('"], [
            Instr(Op.PUSH, _Loud("k:")),
            Instr(Op.LOAD, "a'); import os; ('"),
            Instr(Op.FORMAT, 2),
            Instr(Op.CALL, ("x'); import os; ('", 0)),
            Instr(Op.POP),
            Instr(Op.RETURN),
        ])
        source, consts = codegen.generate_source(func)
        assert "import" not in source and "getpid" not in source
        assert _Loud("k:") in consts
        with pytest.raises(VMTrap, match="unknown builtin"):
            VM(DictEnv()).execute(func, ["v"])

    def test_an_operator_that_is_not_exactly_a_str_is_not_compiled(self):
        func = WasmFunction("f", ["a", "b"], [
            Instr(Op.LOAD, "a"), Instr(Op.LOAD, "b"), Instr(Op.BINOP, _Loud("+")),
            Instr(Op.RETURN),
        ])
        assert codegen.generate_source(func) is None
        assert VM(DictEnv()).execute(func, [1, 2]).result == 3


def test_generated_code_is_cached_on_the_function():
    func = compile_source("def f(a):\n    return a + 1")
    assert VM(DictEnv()).execute(func, [1]).result == 2
    run = func._compiled
    assert callable(run)
    VM(DictEnv()).execute(func, [2])
    assert func._compiled is run


def test_gas_exhausted_inside_a_loop_names_the_same_pc():
    source = "def f(n):\n    t = 0\n    while t < n:\n        t += 1\n    return t"
    for limit in range(0, 60):
        done = run_both_engines(source, [100], gas_limit=limit)
        assert done[1] == "GasExhausted"
    with pytest.raises(GasExhausted):
        VM(DictEnv(), gas_limit=30).execute(compile_source(source), [100])
