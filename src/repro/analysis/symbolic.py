"""Symbolic execution of application functions (paper §3.3, §4).

The paper's analyzer builds on Eunomia, a symbolic-execution engine for
WebAssembly: it explores the function's paths with symbolic inputs, finds
every storage access, and records the constraints and dependencies of each
access's arguments.  This module is that engine for our AST subset.

It complements the IR slicer (:mod:`repro.analysis.ir.slice`):

* the **slicer** derives the runnable ``f^rw`` used by the protocol from
  the compiled function;
* the **symbolic executor** produces the *static report* — every reachable
  access site, the symbolic pattern of its key, the path condition
  guarding it, and whether the key depends on a prior read (the
  dependent-access classification) — and provides the paper's
  "symbolic execution is not guaranteed to terminate" failure mode via
  explicit path/step budgets.

Tests cross-validate the two: every table the symbolic executor finds must
appear among the compiled function's access sites, dependent-read
classifications must agree, and for concrete inputs the
symbolically-predicted key patterns must match the keys f^rw computes.

Loops over symbolic collections are abstracted to a single iteration over
a fresh symbolic element whose accesses are reported with multiplicity
``many`` — sound for pattern reporting (the runnable f^rw handles exact
enumeration at invocation time).
"""

from __future__ import annotations

import ast
import itertools
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import AnalysisError, AnalysisTimeout
from ..wasm.compiler import DB_GET_NAME, DB_PUT_NAME

__all__ = [
    "SymbolicValue",
    "Concrete",
    "Symbol",
    "AccessSite",
    "PathReport",
    "SymbolicReport",
    "symbolic_analyze",
]


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------

class SymbolicValue:
    """Base class: either :class:`Concrete` or :class:`Symbol`."""

    def is_concrete(self) -> bool:
        return isinstance(self, Concrete)


@dataclass(frozen=True)
class Concrete(SymbolicValue):
    """A value fully known at analysis time."""

    value: Any

    def pattern(self) -> str:
        return repr(self.value) if not isinstance(self.value, str) else self.value


@dataclass(frozen=True)
class Symbol(SymbolicValue):
    """An unknown: an input, a read result, or an expression over them.

    ``origin`` is one of ``input``, ``db``, ``expr``, ``element``;
    ``detail`` is a human-readable pattern; ``depends_on_db`` records
    whether any read result flows into this value.
    """

    origin: str
    detail: str
    depends_on_db: bool = False

    def pattern(self) -> str:
        return "{" + self.detail + "}"


def _pattern_of(value: SymbolicValue) -> str:
    return value.pattern()


def _depends_on_db(value: SymbolicValue) -> bool:
    return isinstance(value, Symbol) and value.depends_on_db


def _join(op: str, parts: List[SymbolicValue]) -> Symbol:
    detail = op + "(" + ", ".join(_pattern_of(p) for p in parts) + ")"
    return Symbol(
        origin="expr",
        detail=detail,
        depends_on_db=any(_depends_on_db(p) for p in parts),
    )


# ---------------------------------------------------------------------------
# Report structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AccessSite:
    """One storage access discovered on some path."""

    kind: str             # "read" | "write"
    table: str            # tables are concrete strings in the subset
    key_pattern: str      # e.g. "timeline:{input:uid}" or "post:{digest(...)}"
    multiplicity: str     # "one" | "many" (inside an abstract loop)
    path_condition: str   # conjunction of branch conditions, pretty-printed
    dependent: bool       # key depends on a prior read's result
    line: int


@dataclass
class PathReport:
    """Accesses along one explored path."""

    condition: str
    accesses: List[AccessSite]
    terminated: bool  # reached a return (vs fell off the budget)


@dataclass
class SymbolicReport:
    """Everything the symbolic executor learned about a function."""

    function_name: str
    params: List[str]
    paths: List[PathReport]
    steps_used: int

    def all_accesses(self) -> List[AccessSite]:
        seen = []
        for path in self.paths:
            for site in path.accesses:
                seen.append(site)
        return seen

    def access_sites(self) -> List[AccessSite]:
        """De-duplicated access sites (by kind/table/pattern/line)."""
        out: Dict[Tuple, AccessSite] = {}
        for site in self.all_accesses():
            key = (site.kind, site.table, site.key_pattern, site.line)
            if key not in out:
                out[key] = site
        return list(out.values())

    @property
    def reads(self) -> List[AccessSite]:
        return [s for s in self.access_sites() if s.kind == "read"]

    @property
    def writes(self) -> List[AccessSite]:
        return [s for s in self.access_sites() if s.kind == "write"]

    @property
    def has_dependent_access(self) -> bool:
        return any(s.dependent for s in self.access_sites())

    @property
    def tables(self) -> set:
        return {s.table for s in self.access_sites()}


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

@dataclass
class _State:
    env: Dict[str, SymbolicValue]
    conditions: List[str]
    accesses: List[AccessSite]
    loop_depth: int = 0


class _Return(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _SymbolicExecutor:
    """Path enumeration by decision replay.

    Each *path* is identified by the sequence of boolean decisions taken
    at symbolic branches.  The executor runs the function from the top
    once per path: decisions already in the prefix are replayed; the first
    fresh symbolic branch takes True and schedules the False alternative
    as a new prefix.  This yields complete paths (statements after a
    branch are executed on both sides) with simple, obviously-correct
    control flow, at the cost of re-running shared prefixes — fine at the
    scale of serverless handlers.
    """

    def __init__(self, fn: ast.FunctionDef, max_paths: int, max_steps: int):
        self.fn = fn
        self.max_paths = max_paths
        self.max_steps = max_steps
        self.steps = 0
        self.paths: List[PathReport] = []
        self._db_counter = itertools.count()
        # Per-run replay state:
        self._decisions: Tuple[bool, ...] = ()
        self._decision_index = 0
        self._pending: List[Tuple[bool, ...]] = []

    # -- driver ------------------------------------------------------------

    def run(self) -> SymbolicReport:
        params = [a.arg for a in self.fn.args.args]
        self._pending = [()]
        while self._pending:
            if len(self.paths) >= self.max_paths:
                raise AnalysisTimeout(
                    f"{self.fn.name}: exceeded path budget {self.max_paths}"
                )
            prefix = self._pending.pop()
            self._run_one(prefix, params)
        return SymbolicReport(
            function_name=self.fn.name,
            params=params,
            paths=self.paths,
            steps_used=self.steps,
        )

    def _run_one(self, prefix: Tuple[bool, ...], params: List[str]) -> None:
        self._decisions = prefix
        self._decision_index = 0
        state = _State(
            env={p: Symbol("input", f"input:{p}") for p in params},
            conditions=[],
            accesses=[],
        )
        try:
            self._exec_block(self.fn.body, state)
            terminated = False
        except _Return:
            terminated = True
        except (_Break, _Continue):
            terminated = False
        self.paths.append(
            PathReport(
                condition=" and ".join(state.conditions) or "true",
                accesses=list(state.accesses),
                terminated=terminated,
            )
        )

    def _decide(self, condition_pattern: str, state: _State) -> bool:
        """Consume (or create) one decision for a symbolic branch."""
        if self._decision_index < len(self._decisions):
            choice = self._decisions[self._decision_index]
        else:
            choice = True
            # Schedule the unexplored alternative.
            self._pending.append(self._decisions[: self._decision_index] + (False,))
            self._decisions = self._decisions + (True,)
        self._decision_index += 1
        state.conditions.append(
            condition_pattern if choice else f"not({condition_pattern})"
        )
        return choice

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise AnalysisTimeout(f"{self.fn.name}: exceeded step budget {self.max_steps}")

    # -- statements ------------------------------------------------------------

    def _exec_block(self, body: List[ast.stmt], state: _State) -> None:
        for stmt in body:
            self._exec_stmt(stmt, state)

    def _exec_stmt(self, stmt: ast.stmt, state: _State) -> None:
        self._tick()
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state)
            raise _Return()
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, state)
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                state.env[target.id] = value
            elif isinstance(target, ast.Subscript):
                self._eval(target.value, state)
                self._eval(target.slice, state)
                base = _base_name(target)
                if base is not None and base in state.env:
                    prior = state.env[base]
                    state.env[base] = _join("updated", [prior, value])
            return
        if isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                prior = state.env.get(stmt.target.id, Symbol("expr", "?"))
                state.env[stmt.target.id] = _join("aug", [prior, value])
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
            return
        if isinstance(stmt, ast.If):
            test = self._eval(stmt.test, state)
            if test.is_concrete():
                self._exec_block(stmt.body if test.value else stmt.orelse, state)
            elif self._decide(_pattern_of(test), state):
                self._exec_block(stmt.body, state)
            else:
                self._exec_block(stmt.orelse, state)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            self._exec_loop(stmt, state)
            return
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        raise AnalysisError(f"{self.fn.name}: unsupported statement {type(stmt).__name__}")

    def _exec_loop(self, stmt: Union[ast.For, ast.While], state: _State) -> None:
        if isinstance(stmt, ast.For):
            iterable = self._eval(stmt.iter, state)
            if isinstance(stmt.target, ast.Name):
                if iterable.is_concrete() and isinstance(iterable.value, (list, tuple)):
                    # Concrete iterable: unroll exactly.
                    for element in iterable.value:
                        state.env[stmt.target.id] = Concrete(element)
                        try:
                            self._exec_block(stmt.body, state)
                        except _Break:
                            break
                        except _Continue:
                            continue
                    return
                # Abstract iteration: one pass with a symbolic element.
                state.env[stmt.target.id] = Symbol(
                    "element",
                    f"each of {_pattern_of(iterable)}",
                    depends_on_db=_depends_on_db(iterable),
                )
        else:
            test = self._eval(stmt.test, state)
            if test.is_concrete() and not test.value:
                return  # statically never entered
        state.loop_depth += 1
        try:
            self._exec_block(stmt.body, state)
        except (_Break, _Continue):
            pass
        finally:
            state.loop_depth -= 1

    # -- expressions --------------------------------------------------------------

    def _eval(self, node: ast.expr, state: _State) -> SymbolicValue:
        self._tick()
        if isinstance(node, ast.Constant):
            return Concrete(node.value)
        if isinstance(node, ast.Name):
            if node.id in state.env:
                return state.env[node.id]
            return Symbol("expr", f"unbound:{node.id}")
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, state)
            right = self._eval(node.right, state)
            if left.is_concrete() and right.is_concrete():
                try:
                    return Concrete(_apply_binop(type(node.op), left.value, right.value))
                except Exception:
                    return _join("binop", [left, right])
            return _join(_OP_NAMES.get(type(node.op), "op"), [left, right])
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, state)
            if operand.is_concrete():
                try:
                    if isinstance(node.op, ast.Not):
                        return Concrete(not operand.value)
                    if isinstance(node.op, ast.USub):
                        return Concrete(-operand.value)
                except Exception:
                    pass
            return _join("unary", [operand])
        if isinstance(node, ast.BoolOp):
            parts = [self._eval(v, state) for v in node.values]
            if all(p.is_concrete() for p in parts):
                if isinstance(node.op, ast.And):
                    result: Any = True
                    for p in parts:
                        result = result and p.value
                    return Concrete(result)
                result = False
                for p in parts:
                    result = result or p.value
                return Concrete(result)
            return _join("bool", parts)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, state)
            right = self._eval(node.comparators[0], state)
            if left.is_concrete() and right.is_concrete():
                try:
                    return Concrete(_apply_compare(type(node.ops[0]), left.value, right.value))
                except Exception:
                    pass
            return _join("cmp", [left, right])
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, state)
            if test.is_concrete():
                return self._eval(node.body if test.value else node.orelse, state)
            a = self._eval(node.body, state)
            b = self._eval(node.orelse, state)
            return _join("ifexp", [test, a, b])
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        if isinstance(node, ast.Subscript):
            obj = self._eval(node.value, state)
            if isinstance(node.slice, ast.Slice):
                for bound in (node.slice.lower, node.slice.upper):
                    if bound is not None:
                        self._eval(bound, state)
                return _join("slice", [obj])
            index = self._eval(node.slice, state)
            if obj.is_concrete() and index.is_concrete():
                try:
                    return Concrete(obj.value[index.value])
                except Exception:
                    pass
            detail = f"{_pattern_of(obj)}[{_pattern_of(index)}]"
            return Symbol(
                "expr", detail,
                depends_on_db=_depends_on_db(obj) or _depends_on_db(index),
            )
        if isinstance(node, (ast.List, ast.Tuple)):
            parts = [self._eval(e, state) for e in node.elts]
            if all(p.is_concrete() for p in parts):
                values = [p.value for p in parts]
                return Concrete(values if isinstance(node, ast.List) else tuple(values))
            return _join("seq", parts)
        if isinstance(node, ast.Dict):
            parts = []
            for k, v in zip(node.keys, node.values):
                if k is not None:
                    parts.append(self._eval(k, state))
                parts.append(self._eval(v, state))
            if all(p.is_concrete() for p in parts) and all(k is not None for k in node.keys):
                return Concrete(
                    {self._eval(k, state).value: self._eval(v, state).value
                     for k, v in zip(node.keys, node.values)}
                )
            return _join("dict", parts)
        if isinstance(node, ast.JoinedStr):
            parts = []
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    parts.append(self._eval(part.value, state))
                else:
                    parts.append(self._eval(part, state))
            if all(p.is_concrete() for p in parts):
                return Concrete("".join(str(p.value) for p in parts))
            detail = "".join(
                str(p.value) if p.is_concrete() else p.pattern() for p in parts
            )
            return Symbol(
                "expr", detail, depends_on_db=any(_depends_on_db(p) for p in parts)
            )
        raise AnalysisError(
            f"{self.fn.name}: unsupported expression {type(node).__name__}"
        )

    def _eval_call(self, node: ast.Call, state: _State) -> SymbolicValue:
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value, state)
            args = [self._eval(a, state) for a in node.args]
            return _join(f"method:{node.func.attr}", [receiver] + args)
        if not isinstance(node.func, ast.Name):
            raise AnalysisError(f"{self.fn.name}: unsupported call form")
        name = node.func.id
        args = [self._eval(a, state) for a in node.args]
        if name in (DB_GET_NAME, DB_PUT_NAME):
            return self._record_access(name, node, args, state)
        # Builtins/intrinsics: fold when fully concrete and safe.
        if all(a.is_concrete() for a in args) and name in _FOLDABLE:
            try:
                return Concrete(_FOLDABLE[name](*[a.value for a in args]))
            except Exception:
                pass
        return _join(name, args)

    def _record_access(
        self, name: str, node: ast.Call, args: List[SymbolicValue], state: _State
    ) -> SymbolicValue:
        table_val, key_val = args[0], args[1]
        if not table_val.is_concrete():
            raise AnalysisError(
                f"{self.fn.name}: line {node.lineno}: symbolic table names are "
                "not supported (cannot lock an unknown table)"
            )
        kind = "read" if name == DB_GET_NAME else "write"
        dependent = _depends_on_db(key_val)
        # The key pattern is the symbol's detail unwrapped (a concrete key
        # is just the string itself; a symbolic one keeps its {...} parts).
        if key_val.is_concrete():
            key_pattern = str(key_val.value)
        else:
            key_pattern = key_val.detail
        site = AccessSite(
            kind=kind,
            table=str(table_val.value),
            key_pattern=key_pattern,
            multiplicity="many" if state.loop_depth > 0 else "one",
            path_condition=" and ".join(state.conditions) or "true",
            dependent=dependent,
            line=node.lineno,
        )
        state.accesses.append(site)
        if kind == "read":
            idx = next(self._db_counter)
            return Symbol(
                "db",
                f"db#{idx}:{site.table}/{site.key_pattern}",
                depends_on_db=True,
            )
        return Concrete(None)


_OP_NAMES = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
    ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
}


def _apply_binop(op_type, a, b):
    import operator

    table = {
        ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
        ast.Mod: operator.mod, ast.Pow: operator.pow,
    }
    return table[op_type](a, b)


def _apply_compare(op_type, a, b):
    import operator

    table = {
        ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
        ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
        ast.Is: lambda x, y: x is y, ast.IsNot: lambda x, y: x is not y,
        ast.In: lambda x, y: x in y, ast.NotIn: lambda x, y: x not in y,
    }
    return table[op_type](a, b)


_FOLDABLE = {
    "len": len,
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "abs": abs,
    "min": min,
    "max": max,
    "sum": sum,
    "sorted": sorted,
    "round": round,
    "list": list,
    "dict": dict,
    "range": lambda *a: list(range(*a)),
    "busy": lambda _n: None,
}


def _base_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def symbolic_analyze(
    source: str, max_paths: int = 64, max_steps: int = 20_000
) -> SymbolicReport:
    """Symbolically execute the function in ``source``.

    Raises :class:`AnalysisTimeout` when the path or step budget is
    exceeded (the paper's non-termination escape hatch) and
    :class:`AnalysisError` for constructs outside the subset.
    """
    source = textwrap.dedent(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse function: {exc}") from exc
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(defs) != 1:
        raise AnalysisError("source must contain exactly one function definition")
    executor = _SymbolicExecutor(defs[0], max_paths=max_paths, max_steps=max_steps)
    return executor.run()
