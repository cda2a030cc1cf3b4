"""Code generation: each wasm-lite function becomes one Python function.

The paper runs functions as compiled WebAssembly (§4); this module is the
compile step of the reproduction's sandbox.  :func:`generate` turns a
:class:`~repro.wasm.ir.WasmFunction` into one Python function, once; the
:class:`~repro.wasm.vm.VM` caches it on the function object and runs it on
every execution.  Shape of the generated function:

* Basic blocks (:func:`~repro.wasm.ir.block_starts`, split by gas) are the
  arms of one ``while`` loop, picked by a binary tree of comparisons on
  the arm number.  A block whose only predecessor falls through into it
  is emitted in line after that predecessor instead of as an arm.
* A static stack-depth pass turns the operand stack into locals ``s0, s1,
  ...``.  Constants and variable loads stay symbolic until an operation
  consumes them or control leaves the arm.
* Variables become locals ``v0, v1, ...``, parameters first.  The others
  start as an "unbound" sentinel, which a load checks unless the arm has
  already stored or loaded that variable.
* Hot operations are inlined: loads and stores, constants, comparisons,
  int ``+ - *``, indexing, building lists, dicts and tuples, ``len``,
  ``list.append``, the storage opcodes and returns.  Each one that can
  fail sits in a ``try`` that raises the stepper's trap.  Everything else
  calls the helpers of :mod:`repro.wasm.vm` that the stepper calls, so the
  semantics live in one place.
* Gas is charged per block, as the contract in :mod:`repro.wasm.vm` says:
  a block charges its length on entry and, when that would cross the
  limit, returns what the stepper makes of the block's entry state.

Nothing a function carries is pasted into the source except as the
``repr`` of a constant whose type is exactly ``None``, ``bool``, ``int``
or ``str``.  Variable names are mangled, operator tokens come from this
module's own tables, and everything else (names of variables, builtins,
methods and intrinsics, other constants, the function's name) reaches the
code through the arguments of a factory, ``K`` and ``NAME``.  A function
outside what the generator accepts — an inconsistent stack depth, an
unknown opcode or a malformed operand, a path that runs off the end of the
code — is not compiled: :func:`generate` returns ``None`` and the stepper
runs it.
"""

from __future__ import annotations

import functools
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import AnalysisError
from .ir import (
    COND_JUMP_OPS, JUMP_OPS, Instr, Op, WasmFunction, block_starts, stack_effect,
)

__all__ = ["generate", "generate_source"]


def generate(func: WasmFunction, runtime: Dict[str, Any]) -> Optional[Callable[..., Any]]:
    """``func`` as one Python function ``run(vm, func, trace, *args)``
    that executes it and returns the trace, or ``None`` when the generator
    does not accept it.  ``runtime`` is the namespace the code runs in:
    the helpers it calls, by name."""
    generated = generate_source(func)
    if generated is None:
        return None
    source, consts = generated
    namespace = dict(runtime)
    exec(_compile(source), namespace)
    # Popped, not read: ``_factory.__globals__`` is the namespace, and a
    # namespace that kept it would be a cycle only the collector frees.
    return namespace.pop("_factory")(consts, func.name)


@functools.lru_cache(maxsize=256)
def _compile(source: str) -> CodeType:
    """Compiling dominates generation; every deployment of an app
    generates the same source for each of its functions."""
    return compile(source, "<wasm-lite>", "exec")


def generate_source(func: WasmFunction) -> Optional[Tuple[str, Tuple[Any, ...]]]:
    """The generated source of ``func`` and the constants its factory
    receives as ``K``, or ``None`` when the generator does not accept it."""
    try:
        return _Generator(func).source()
    except _Reject:
        return None


class _Reject(Exception):
    """The function is outside what the generator compiles."""


#: Operator tokens the generator emits; an operand is one of them only as
#: an exact ``str``, so its text is the table's.
_BINOPS = frozenset(("+", "-", "*", "/", "//", "%", "**"))
_COMPARES = frozenset(("==", "!=", "<", "<=", ">", ">=", "in", "not in", "is", "is not"))
_UNARIES = frozenset(("-", "+", "not"))

_KEEP_JUMPS = (Op.JUMP_IF_FALSE_KEEP, Op.JUMP_IF_TRUE_KEEP)
_NAMED = (Op.CALL, Op.METHOD, Op.INTRINSIC)
_COUNTED = (Op.BUILD_LIST, Op.BUILD_TUPLE, Op.BUILD_DICT, Op.FORMAT)
_BARE = (
    Op.POP, Op.DUP, Op.INDEX, Op.STORE_INDEX, Op.SLICE, Op.DB_GET, Op.DB_PUT,
    Op.RW_READ, Op.RW_WRITE, Op.EXT_CALL, Op.RETURN,
)
_READS = (Op.DB_GET, Op.RW_READ)
_WRITES = (Op.DB_PUT, Op.RW_WRITE)

#: Constant types a dict display may use as keys without a check.
_SCALAR_KEYS = (str, int, float, bool)


def _accepted(instr: Instr, n: int) -> bool:
    """Whether the generator compiles this instruction as it stands."""
    op, arg = instr.op, instr.arg
    if type(op) is not str:
        return False
    if op == Op.PUSH:
        return True
    if op in (Op.LOAD, Op.STORE):
        return type(arg) is str
    if op == Op.BINOP:
        return type(arg) is str and arg in _BINOPS
    if op == Op.COMPARE:
        return type(arg) is str and arg in _COMPARES
    if op == Op.UNARY:
        return type(arg) is str and arg in _UNARIES
    if op in JUMP_OPS:
        return type(arg) is int and 0 <= arg < n
    if op in _NAMED:
        return (
            type(arg) is tuple and len(arg) == 2 and type(arg[0]) is str
            and type(arg[1]) is int and arg[1] >= 0
        )
    if op in _COUNTED:
        return type(arg) is int and arg >= 0
    return op in _BARE


# An abstract operand-stack entry: ("s", i) is slot local s<i> at its own
# depth; ("v", i) a load of variable v<i> not yet copied to a slot;
# ("c", text, value) a constant and the text that spells it.
_Entry = Tuple[Any, ...]


class _Generator:
    """Plans one function (blocks, stack depths, arms), then emits its
    source."""

    def __init__(self, func: WasmFunction):
        self.func = func
        self.code = code = func.instructions
        n = len(code)
        if not all(_accepted(instr, n) for instr in code):
            raise _Reject
        params = func.params
        if any(type(p) is not str for p in params) or len(set(params)) != len(params):
            raise _Reject
        self.vars: Dict[str, int] = {p: i for i, p in enumerate(params)}
        for instr in code:
            if instr.op in (Op.LOAD, Op.STORE):
                self.vars.setdefault(instr.arg, len(self.vars))
        self.lines: List[str] = []
        self.consts: List[Any] = []
        self._blocks()
        self._depths()
        self._arms()

    # -- planning -------------------------------------------------------------

    def _blocks(self) -> None:
        """Block bounds and successors (``None`` = off the end)."""
        code = self.code
        try:
            starts = block_starts(self.func, by_gas=True)
        except AnalysisError:
            raise _Reject from None
        self.bounds = list(zip(starts, starts[1:] + [len(code)]))
        at = {start: b for b, start in enumerate(starts)}
        self.succs: List[List[Optional[int]]] = []
        for _start, end in self.bounds:
            term = code[end - 1]
            fall = at.get(end)
            if term.op == Op.RETURN:
                succs = []
            elif term.op == Op.JUMP:
                succs = [at[term.arg]]
            elif term.op in COND_JUMP_OPS:
                succs = [fall, at[term.arg]]
            else:
                succs = [fall]
            self.succs.append(succs)

    def _depths(self) -> None:
        """Stack depth at every reachable block's entry; the same along
        every path, or the function is rejected."""
        self.depth: Dict[int, int] = {0: 0}
        work = [0]
        while work:
            b = work.pop()
            d = self.depth[b]
            start, end = self.bounds[b]
            for instr in self.code[start:end]:
                pops, pushes = stack_effect(instr)
                if d < pops or (instr.op in _KEEP_JUMPS and d < 1):
                    raise _Reject
                d += pushes - pops
            for t in self.succs[b]:
                if t is None:
                    raise _Reject
                if t not in self.depth:
                    self.depth[t] = d
                    work.append(t)
                elif self.depth[t] != d:
                    raise _Reject
        self.reachable = sorted(self.depth)

    def _arms(self) -> None:
        """Which blocks are loop arms and which follow their only
        predecessor in line."""
        preds: Dict[int, List[int]] = {b: [] for b in self.reachable}
        for b in self.reachable:
            for t in self.succs[b]:
                preds[t].append(b)
        self.inline = {
            b for b in self.reachable
            if b and preds[b] == [b - 1]
            and self.code[self.bounds[b - 1][1] - 1].op not in (Op.JUMP, Op.RETURN)
        }
        self.arms = [b for b in self.reachable if b not in self.inline]
        self.arm_of = {b: i for i, b in enumerate(self.arms)}
        self.loop = any(
            t not in self.inline for b in self.reachable for t in self.succs[b]
        )

    # -- emission helpers -----------------------------------------------------

    def _w(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def _const(self, value: Any) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def _literal(self, value: Any) -> str:
        if value is None or value is True or value is False:
            return repr(value)
        if type(value) is int and -(2 ** 63) <= value < 2 ** 63:
            return repr(value) if value >= 0 else f"({value!r})"
        if type(value) is str:
            return repr(value)
        return self._const(value)

    @staticmethod
    def _x(entry: _Entry) -> str:
        if entry[0] == "s":
            return f"s{entry[1]}"
        if entry[0] == "v":
            return f"v{entry[1]}"
        return entry[1]

    @staticmethod
    def _is_const(entry: _Entry, types: Tuple[type, ...]) -> bool:
        return entry[0] == "c" and type(entry[2]) in types

    def _slot(self, st: List[_Entry], i: int, ind: int) -> str:
        """Stack entry ``i`` as a slot local (a literal cannot always be
        indexed, called or compared by identity in the source)."""
        if st[i][0] == "c":
            self._w(ind, f"s{i} = {st[i][1]}")
            st[i] = ("s", i)
        return self._x(st[i])

    def _materialize(self, st: List[_Entry], ind: int) -> None:
        """Copy every symbolic entry into its slot: control is leaving for
        an arm, which finds the stack in ``s0 .. s<depth-1>``."""
        for i, entry in enumerate(st):
            if entry[0] != "s":
                self._w(ind, f"s{i} = {self._x(entry)}")
                st[i] = ("s", i)

    def _handoff(self, pc: int, gas: str, st: List[_Entry]) -> str:
        stack = ", ".join(self._x(e) for e in st)
        return (
            f"return vm._step(func, trace, {pc}, {gas}, [{stack}], "
            f"_bound({self.var_names}, locals()))"
        )

    def _goto(self, b: int, ind: int) -> None:
        self._w(ind, f"b = {self.arm_of[b]}")
        self._w(ind, "continue")

    def _charge(self, start: int, n: int, st: List[_Entry], ind: int) -> None:
        """A block's gas, charged on entry; past the limit, the stepper
        runs the block from its entry state."""
        self._w(ind, f"gas += {n}")
        self._w(ind, "if gas > limit:")
        self._w(ind + 1, self._handoff(start, f"gas - {n}", st))

    def _access(self, kind: str, table: str, key: str, ind: int) -> None:
        """The access hook's call at one storage opcode."""
        self._w(ind, f"if hook is not None: hook({kind!r}, {table}, {key})")

    def _keys(self, table: _Entry, key: _Entry, ind: int) -> Tuple[str, str]:
        """A storage opcode's (table, key) operands, type-checked."""
        t, k = self._x(table), self._x(key)
        loose = [x for e, x in ((table, t), (key, k)) if not self._is_const(e, (str,))]
        if loose:
            test = " or ".join(f"type({x}) is not str" for x in loose)
            self._w(ind, f"if {test}: _check_key(NAME, {t}, {k})")
        return t, k

    # -- emission ---------------------------------------------------------------

    def source(self) -> Tuple[str, Tuple[Any, ...]]:
        self.var_names = self._const(tuple(self.vars))
        code = self.code
        nparams = len(self.func.params)
        ind = 2
        if len(self.vars) > nparams:
            locals_ = " = ".join(f"v{i}" for i in range(nparams, len(self.vars)))
            self._w(ind, f"{locals_} = _U")
        self._w(ind, "limit = vm.gas_limit")
        ops = {i.op for i in code}
        if ops & {Op.DB_GET, Op.RW_READ, Op.DB_PUT}:
            self._w(ind, "env = vm.env")
        if ops & set(_READS + _WRITES):
            self._w(ind, "hook = vm.access_hook")
        if ops & set(_READS):
            self._w(ind, "reads = trace.reads")
        if ops & set(_WRITES):
            self._w(ind, "writes = trace.writes")
        self._w(ind, "gas = 0")
        if self.loop:
            self._w(ind, "b = 0")
            self._w(ind, "while True:")
            self._tree(0, len(self.arms), ind + 1)
        else:
            self._arm(0, ind)
        args = "".join(f", v{i}" for i in range(nparams))
        consts = "".join(f"k{i}, " for i in range(len(self.consts)))  # never empty
        head = [
            "def _factory(K, NAME):",
            f"    {consts}= K",
            f"    def run(vm, func, trace{args}):",
        ]
        lines = head + self.lines + ["    return run", ""]
        return "\n".join(lines), tuple(self.consts)

    def _tree(self, lo: int, hi: int, ind: int) -> None:
        """Arms ``lo .. hi-1``, chosen by halving on ``b``."""
        if hi - lo == 1:
            self._arm(self.arms[lo], ind)
            return
        mid = (lo + hi) // 2
        self._w(ind, f"if b < {mid}:")
        self._tree(lo, mid, ind + 1)
        self._w(ind, "else:")
        self._tree(mid, hi, ind + 1)

    def _arm(self, b: int, ind: int) -> None:
        """One arm: its block, then each block that follows it in line.
        ``bound`` holds the variables known bound on the way: parameters,
        and what the arm has stored or loaded."""
        st: List[_Entry] = [("s", i) for i in range(self.depth[b])]
        bound = set(range(len(self.func.params)))
        next_block: Optional[int] = b
        while next_block is not None:
            next_block = self._block(next_block, st, bound, ind)

    def _block(self, b: int, st: List[_Entry], bound: set, ind: int) -> Optional[int]:
        """Emit block ``b``; returns the block that follows in line, if
        control falls into one."""
        start, end = self.bounds[b]
        self._charge(start, end - start, st, ind)
        for pc in range(start, end - 1):
            self._op(pc, st, bound, ind)
        term = self.code[end - 1]
        op = term.op
        if op == Op.RETURN:
            self._w(ind, f"trace.result = {self._x(st.pop())}")
            self._w(ind, "trace.gas_used = gas")
            self._w(ind, "return trace")
            return None
        if op == Op.JUMP:
            self._materialize(st, ind)
            self._goto(self.succs[b][0], ind)
            return None
        if op in COND_JUMP_OPS:
            test = self._x(st.pop()) if op not in _KEEP_JUMPS else None
            self._materialize(st, ind)
            if test is None:
                test = self._x(st[-1])
            negate = op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_FALSE_KEEP)
            self._w(ind, f"if {'not ' if negate else ''}{test}:")
            self._goto(self.succs[b][1], ind + 1)
        else:
            self._op(end - 1, st, bound, ind)
        fall = self.succs[b][0]
        if fall in self.inline:
            return fall
        self._materialize(st, ind)
        self._goto(fall, ind)
        return None

    def _op(self, pc: int, st: List[_Entry], bound: set, ind: int) -> None:
        """Emit one non-control instruction over the abstract stack."""
        w = self._w
        x = self._x
        op, arg = self.code[pc].op, self.code[pc].arg
        if op == Op.PUSH:
            st.append(("c", self._literal(arg), arg))
        elif op == Op.LOAD:
            i = self.vars[arg]
            if i not in bound:
                w(ind, f"if v{i} is _U: raise _unbound(NAME, {self.var_names}[{i}])")
                bound.add(i)
            st.append(("v", i))
        elif op == Op.STORE:
            value = st.pop()
            i = self.vars[arg]
            for j, entry in enumerate(st):
                if entry == ("v", i):  # a pending load must see the old value
                    w(ind, f"s{j} = v{i}")
                    st[j] = ("s", j)
            w(ind, f"v{i} = {x(value)}")
            bound.add(i)
        elif op == Op.POP:
            st.pop()
        elif op == Op.DUP:
            top = st[-1]
            if top[0] == "s":
                w(ind, f"s{len(st)} = s{len(st) - 1}")
                top = ("s", len(st))
            st.append(top)
        elif op == Op.BINOP:
            self._binop(pc, arg, st, ind)
        elif op == Op.UNARY:
            d = len(st) - 1
            if arg == "not":
                w(ind, f"s{d} = not {x(st[d])}")
            else:
                w(ind, f"s{d} = _unary(NAME, {arg!r}, {x(st[d])})")
            st[d] = ("s", d)
        elif op == Op.COMPARE:
            d = len(st) - 2
            if arg in ("is", "is not"):
                for j in (d, d + 1):
                    if not self._is_const(st[j], (type(None), bool)):
                        self._slot(st, j, ind)
                w(ind, f"s{d} = {x(st[d])} {arg} {x(st[d + 1])}")
            else:
                self._guarded(
                    ind, f"s{d} = {x(st[d])} {arg} {x(st[d + 1])}",
                    "Exception", f"comparison {arg}",
                )
            st[d:] = [("s", d)]
        elif op == Op.INDEX:
            d = len(st) - 2
            obj = self._slot(st, d, ind)
            self._guarded(
                ind, f"s{d} = {obj}[{x(st[d + 1])}]",
                "(KeyError, IndexError, TypeError)", "index",
            )
            st[d:] = [("s", d)]
        elif op == Op.STORE_INDEX:
            obj, index, value = (x(e) for e in st[-3:])
            w(ind, f"_store_index(NAME, {obj}, {index}, {value})")
            del st[-3:]
        elif op == Op.SLICE:
            d = len(st) - 3
            obj, lo, hi = (x(e) for e in st[d:])
            w(ind, f"s{d} = _slice(NAME, {obj}, {lo}, {hi})")
            st[d:] = [("s", d)]
        elif op in (Op.BUILD_LIST, Op.BUILD_TUPLE):
            d = len(st) - arg
            items = "".join(f"{x(e)}, " for e in st[d:])
            w(ind, f"s{d} = [{items}]" if op == Op.BUILD_LIST else f"s{d} = ({items})")
            st[d:] = [("s", d)]
        elif op == Op.BUILD_DICT:
            d = len(st) - 2 * arg
            pairs = [(st[j], st[j + 1]) for j in range(d, len(st), 2)]
            for key, _value in pairs:
                if not self._is_const(key, _SCALAR_KEYS):
                    w(ind, f"_dict_key(NAME, {x(key)})")
            items = "".join(f"{x(k)}: {x(v)}, " for k, v in pairs)
            w(ind, f"s{d} = {{{items}}}")
            st[d:] = [("s", d)]
        elif op == Op.FORMAT:
            d = len(st) - arg
            parts = []
            for e in st[d:]:
                if self._is_const(e, (str,)):
                    parts.append(e[1])
                elif e[0] == "c":
                    parts.append(f"_to_str(NAME, {e[1]})")
                else:
                    parts.append(f"({x(e)} if type({x(e)}) is str else _to_str(NAME, {x(e)}))")
            w(ind, f"s{d} = ''.join(({''.join(p + ', ' for p in parts)}))")
            st[d:] = [("s", d)]
        elif op == Op.CALL:
            self._call(arg[0], arg[1], st, ind)
        elif op == Op.METHOD:
            self._method(arg[0], arg[1], st, ind)
        elif op == Op.INTRINSIC:
            d = len(st) - arg[1]
            call_args = "".join(f"{x(e)}, " for e in st[d:])
            w(ind, f"s{d}, x = _intrinsic(NAME, {self._const(arg[0])}, [{call_args}])")
            w(ind, "gas += x")
            st[d:] = [("s", d)]
        elif op in _READS:
            d = len(st) - 2
            table, key = self._keys(st[d], st[d + 1], ind)
            self._access("read", table, key, ind)
            w(ind, f"s{d} = env.db_get({table}, {key})")
            w(ind, f"reads.append(({table}, {key}))")
            st[d:] = [("s", d)]
        elif op in _WRITES:
            value = x(st.pop()) if op == Op.DB_PUT else "None"
            d = len(st) - 2
            table, key = self._keys(st[d], st[d + 1], ind)
            self._access("write", table, key, ind)
            if op == Op.DB_PUT:
                w(ind, f"env.db_put({table}, {key}, {value})")
            w(ind, f"writes.append(({table}, {key}, {value}))")
            st[d:] = [("c", "None", None)]
        elif op == Op.EXT_CALL:
            d = len(st) - 2
            w(ind, f"s{d} = _external(vm, NAME, trace, {x(st[d])}, {x(st[d + 1])})")
            st[d:] = [("s", d)]
        else:  # pragma: no cover - _accepted admits nothing else here
            raise _Reject

    def _guarded(self, ind: int, stmt: str, caught: str, what: str) -> None:
        """``stmt`` inside a ``try`` that raises the stepper's trap for
        ``what``."""
        self._w(ind, "try:")
        self._w(ind + 1, stmt)
        self._w(ind, f"except {caught} as e:")
        self._w(ind + 1, f"raise _failed(NAME, {what!r}, e) from e")

    def _binop(self, pc: int, sym: str, st: List[_Entry], ind: int) -> None:
        w = self._w
        d = len(st) - 2
        lhs, rhs = self._x(st[d]), self._x(st[d + 1])
        slow = ind
        if sym in ("+", "-", "*"):
            guard = [
                f"type({t}) is int" for e, t in ((st[d], lhs), (st[d + 1], rhs))
                if not self._is_const(e, (int,))
            ]
            if not guard:
                w(ind, f"s{d} = {lhs} {sym} {rhs}")
                st[d:] = [("s", d)]
                return
            w(ind, f"if {' and '.join(guard)}:")
            w(ind + 1, f"s{d} = {lhs} {sym} {rhs}")
            w(ind, "else:")
            slow = ind + 1
        if sym in ("*", "**"):
            # A repeat or a power pays for its result before it is built;
            # this is the last instruction of its block, so ``gas`` is
            # exact here and the stepper re-runs it from its fetch.
            w(slow, f"x = _binop_gas({sym!r}, {lhs}, {rhs})")
            w(slow, "if x and gas + x > limit:")
            w(slow + 1, self._handoff(pc, "gas - 1", st))
            w(slow, "gas += x")
        w(slow, f"s{d} = _binop(NAME, {sym!r}, {lhs}, {rhs})")
        st[d:] = [("s", d)]

    def _call(self, builtin: str, argc: int, st: List[_Entry], ind: int) -> None:
        d = len(st) - argc
        if builtin == "len" and argc == 1:
            self._guarded(ind, f"s{d} = len({self._x(st[d])})", "Exception", "builtin len")
        else:
            call_args = "".join(f"{self._x(e)}, " for e in st[d:])
            self._w(ind, f"s{d}, x = _builtin(NAME, {self._const(builtin)}, [{call_args}])")
            self._w(ind, "gas += x")
        st[d:] = [("s", d)]

    def _method(self, method: str, argc: int, st: List[_Entry], ind: int) -> None:
        d = len(st) - argc - 1
        receiver = self._slot(st, d, ind)
        call_args = "".join(f"{self._x(e)}, " for e in st[d + 1:])
        name = self._const(method)
        if method == "append" and argc == 1:
            # A list's append returns None and charges nothing; on any
            # other receiver the helper traps (or, on a list subclass,
            # does the same).
            self._w(ind, f"if type({receiver}) is list:")
            self._w(ind + 1, f"{receiver}.append({self._x(st[d + 1])})")
            self._w(ind, "else:")
            self._w(ind + 1, f"_method(NAME, {receiver}, {name}, [{call_args}])")
            st[d:] = [("c", "None", None)]
            return
        self._w(ind, f"s{d}, x = _method(NAME, {receiver}, {name}, [{call_args}])")
        self._w(ind, "gas += x")
        st[d:] = [("s", d)]
