"""Compiler from a restricted, deterministic Python subset to wasm-lite IR.

The paper's applications are written in Rust and compiled to the
``wasm32-unknown-unknown`` target; determinism comes from the missing
imports (no clock, no randomness) plus WasmTime's deterministic
configuration (§4).  Here, application functions are written in a small
Python subset and compiled — by parsing with :mod:`ast` — to the stack IR
of :mod:`repro.wasm.ir`.  The compiler enforces the determinism contract
syntactically:

* no imports, no attribute access (except whitelisted method calls),
* only whitelisted builtins and registered *deterministic* intrinsics,
* referencing a known non-deterministic intrinsic (``now``, ``random_int``,
  ``uuid``) is rejected at compile time with
  :class:`~repro.errors.NonDeterminismError`.

Storage accesses appear as calls to ``db_get(table, key)`` and
``db_put(table, key, value)`` and compile to dedicated opcodes, giving the
static analyzer (and the VM's host interposition) an explicit handle on
every access — the property §3.3 relies on serverless statelessness for.
"""

from __future__ import annotations

import ast
import textwrap
from typing import Callable, Dict, List, Optional, Union

from ..errors import CompileError, NonDeterminismError
from .intrinsics import REGISTRY, banned_names
from .ir import Instr, Op, WasmFunction

__all__ = ["compile_source", "compile_callable", "BUILTINS", "METHODS"]

#: Builtins callable from sandboxed code (all pure and deterministic).
#: ``busy(n)`` charges n gas and models pure computation (rendering,
#: serialisation, ranking) — the VM's cost measure for work that has no
#: Python-visible effect; the f^rw latency model divides sliced gas by
#: total gas, so representative compute costs matter.
BUILTINS = (
    "len", "str", "int", "float", "bool", "abs", "min", "max", "sum",
    "sorted", "range", "round", "list", "dict", "busy",
)

#: Whitelisted method names, by receiver type family (enforced at runtime).
METHODS = (
    # list
    "append", "extend", "pop", "insert", "remove", "index", "count",
    "sort", "reverse", "copy",
    # dict
    "get", "keys", "values", "items", "setdefault",
    # str
    "lower", "upper", "split", "join", "strip", "startswith", "endswith",
    "replace", "find", "zfill",
)

_BINOPS: Dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
}
_UNARY: Dict[type, str] = {ast.USub: "-", ast.UAdd: "+", ast.Not: "not"}
_CMPOPS: Dict[type, str] = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
    ast.Is: "is", ast.IsNot: "is not",
}

#: Storage-access call names (also recognised by the analyzer).
DB_GET_NAME = "db_get"
DB_PUT_NAME = "db_put"
#: External-service call (§3.5): external("payments", payload).
EXTERNAL_NAME = "external"


def compile_source(source: str, kind: str = "f") -> WasmFunction:
    """Compile a module containing exactly one function definition.

    Returns a :class:`WasmFunction`.  Raises :class:`CompileError` for
    anything outside the subset and :class:`NonDeterminismError` for
    references to banned intrinsics.
    """
    source = textwrap.dedent(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise CompileError(f"syntax error: {exc}") from exc
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(defs) != 1 or len(tree.body) != 1:
        raise CompileError("source must contain exactly one function definition")
    fn = defs[0]
    params = _param_names(fn)
    compiler = _Codegen(fn.name, params, source)
    compiler.compile_body(fn.body)
    return WasmFunction(
        name=fn.name,
        params=params,
        instructions=compiler.code,
        source=source,
        kind=kind,
    )


def compile_callable(fn: Callable, kind: str = "f") -> WasmFunction:
    """Compile a plain Python function object by reading its source."""
    import inspect

    return compile_source(inspect.getsource(fn), kind=kind)


def _param_names(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs or args.defaults:
        raise CompileError(f"{fn.name}: only plain positional parameters are supported")
    return [a.arg for a in args.args]


class _Codegen:
    """Single-pass code generator with jump backpatching."""

    def __init__(self, name: str, params: List[str], source: str):
        self.name = name
        self.params = set(params)
        self.source = source
        self.code: List[Instr] = []
        self._loop_stack: List[Dict[str, List[int]]] = []
        self._hidden = 0
        self._banned = set(banned_names())

    # -- helpers -------------------------------------------------------------

    def _emit(self, op: str, arg=None) -> int:
        self.code.append(Instr(op, arg))
        return len(self.code) - 1

    def _patch(self, pc: int, target: int) -> None:
        self.code[pc] = Instr(self.code[pc].op, target)

    def _here(self) -> int:
        return len(self.code)

    def _fresh(self, tag: str) -> str:
        self._hidden += 1
        return f".{tag}{self._hidden}"

    def _err(self, node: ast.AST, message: str) -> CompileError:
        line = getattr(node, "lineno", "?")
        return CompileError(f"{self.name}:{line}: {message}")

    # -- statements ------------------------------------------------------------

    def compile_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)
        # Implicit `return None` if control falls off the end.
        self._emit(Op.PUSH, None)
        self._emit(Op.RETURN)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Return):
            if node.value is None:
                self._emit(Op.PUSH, None)
            else:
                self.expr(node.value)
            self._emit(Op.RETURN)
        elif isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node)
        elif isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, ast.While):
            self._while(node)
        elif isinstance(node, ast.For):
            self._for(node)
        elif isinstance(node, ast.Expr):
            self.expr(node.value)
            self._emit(Op.POP)
        elif isinstance(node, ast.Pass):
            pass
        elif isinstance(node, ast.Break):
            if not self._loop_stack:
                raise self._err(node, "break outside loop")
            self._loop_stack[-1]["breaks"].append(self._emit(Op.JUMP, None))
        elif isinstance(node, ast.Continue):
            if not self._loop_stack:
                raise self._err(node, "continue outside loop")
            self._loop_stack[-1]["continues"].append(self._emit(Op.JUMP, None))
        else:
            raise self._err(node, f"unsupported statement {type(node).__name__}")

    def _assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            raise self._err(node, "chained assignment is not supported")
        target = node.targets[0]
        if isinstance(target, ast.Name):
            self.expr(node.value)
            self._emit(Op.STORE, target.id)
        elif isinstance(target, ast.Subscript):
            self.expr(target.value)
            self._index_expr(target)
            self.expr(node.value)
            self._emit(Op.STORE_INDEX)
        else:
            raise self._err(node, f"unsupported assignment target {type(target).__name__}")

    def _aug_assign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.target, ast.Name):
            raise self._err(
                node, "augmented assignment only supports simple names (use a temporary)"
            )
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise self._err(node, f"unsupported operator {type(node.op).__name__}")
        self._emit(Op.LOAD, node.target.id)
        self.expr(node.value)
        self._emit(Op.BINOP, op)
        self._emit(Op.STORE, node.target.id)

    def _if(self, node: ast.If) -> None:
        self.expr(node.test)
        jif = self._emit(Op.JUMP_IF_FALSE, None)
        for stmt in node.body:
            self.stmt(stmt)
        if node.orelse:
            jend = self._emit(Op.JUMP, None)
            self._patch(jif, self._here())
            for stmt in node.orelse:
                self.stmt(stmt)
            self._patch(jend, self._here())
        else:
            self._patch(jif, self._here())

    def _while(self, node: ast.While) -> None:
        if node.orelse:
            raise self._err(node, "while/else is not supported")
        start = self._here()
        self.expr(node.test)
        jexit = self._emit(Op.JUMP_IF_FALSE, None)
        self._loop_stack.append({"breaks": [], "continues": []})
        for stmt in node.body:
            self.stmt(stmt)
        self._emit(Op.JUMP, start)
        frame = self._loop_stack.pop()
        end = self._here()
        self._patch(jexit, end)
        for pc in frame["breaks"]:
            self._patch(pc, end)
        for pc in frame["continues"]:
            self._patch(pc, start)

    def _for(self, node: ast.For) -> None:
        # Desugar `for x in seq: body` into an indexed while loop over a
        # list materialisation of seq, using hidden locals.
        if node.orelse:
            raise self._err(node, "for/else is not supported")
        if not isinstance(node.target, ast.Name):
            raise self._err(node, "for target must be a simple name")
        seq = self._fresh("seq")
        idx = self._fresh("idx")
        self.expr(node.iter)
        self._emit(Op.CALL, ("list", 1))
        self._emit(Op.STORE, seq)
        self._emit(Op.PUSH, 0)
        self._emit(Op.STORE, idx)
        start = self._here()
        self._emit(Op.LOAD, idx)
        self._emit(Op.LOAD, seq)
        self._emit(Op.CALL, ("len", 1))
        self._emit(Op.COMPARE, "<")
        jexit = self._emit(Op.JUMP_IF_FALSE, None)
        self._emit(Op.LOAD, seq)
        self._emit(Op.LOAD, idx)
        self._emit(Op.INDEX)
        self._emit(Op.STORE, node.target.id)
        self._loop_stack.append({"breaks": [], "continues": []})
        for stmt in node.body:
            self.stmt(stmt)
        frame = self._loop_stack.pop()
        incr = self._here()
        self._emit(Op.LOAD, idx)
        self._emit(Op.PUSH, 1)
        self._emit(Op.BINOP, "+")
        self._emit(Op.STORE, idx)
        self._emit(Op.JUMP, start)
        end = self._here()
        self._patch(jexit, end)
        for pc in frame["breaks"]:
            self._patch(pc, end)
        for pc in frame["continues"]:
            self._patch(pc, incr)

    # -- expressions ----------------------------------------------------------

    def expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            if node.value is not None and not isinstance(node.value, (int, float, str, bool)):
                raise self._err(node, f"unsupported constant {node.value!r}")
            self._emit(Op.PUSH, node.value)
        elif isinstance(node, ast.Name):
            if node.id in self._banned:
                raise NonDeterminismError(
                    f"{self.name}: reference to non-deterministic intrinsic {node.id!r}"
                )
            self._emit(Op.LOAD, node.id)
        elif isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise self._err(node, f"unsupported operator {type(node.op).__name__}")
            self.expr(node.left)
            self.expr(node.right)
            self._emit(Op.BINOP, op)
        elif isinstance(node, ast.UnaryOp):
            op = _UNARY.get(type(node.op))
            if op is None:
                raise self._err(node, f"unsupported unary {type(node.op).__name__}")
            self.expr(node.operand)
            self._emit(Op.UNARY, op)
        elif isinstance(node, ast.BoolOp):
            self._boolop(node)
        elif isinstance(node, ast.Compare):
            self._compare(node)
        elif isinstance(node, ast.IfExp):
            self.expr(node.test)
            jif = self._emit(Op.JUMP_IF_FALSE, None)
            self.expr(node.body)
            jend = self._emit(Op.JUMP, None)
            self._patch(jif, self._here())
            self.expr(node.orelse)
            self._patch(jend, self._here())
        elif isinstance(node, ast.Call):
            self._call(node)
        elif isinstance(node, ast.Subscript):
            self.expr(node.value)
            if isinstance(node.slice, ast.Slice):
                self._slice(node.slice)
            else:
                self._index_expr(node)
                self._emit(Op.INDEX)
        elif isinstance(node, ast.List):
            for elt in node.elts:
                self.expr(elt)
            self._emit(Op.BUILD_LIST, len(node.elts))
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                self.expr(elt)
            self._emit(Op.BUILD_TUPLE, len(node.elts))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    raise self._err(node, "dict unpacking is not supported")
                self.expr(key)
                self.expr(value)
            self._emit(Op.BUILD_DICT, len(node.keys))
        elif isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    if part.format_spec is not None or part.conversion not in (-1, 115):
                        raise self._err(node, "format specs are not supported in f-strings")
                    self.expr(part.value)
                else:
                    self.expr(part)
            self._emit(Op.FORMAT, len(node.values))
        elif isinstance(node, ast.Attribute):
            raise self._err(node, "attribute access is not supported (methods only)")
        else:
            raise self._err(node, f"unsupported expression {type(node).__name__}")

    def _index_expr(self, node: ast.Subscript) -> None:
        if isinstance(node.slice, ast.Slice):
            raise self._err(node, "slice assignment is not supported")
        self.expr(node.slice)

    def _slice(self, sl: ast.Slice) -> None:
        if sl.step is not None:
            raise self._err(sl, "slice steps are not supported")
        for bound in (sl.lower, sl.upper):
            if bound is None:
                self._emit(Op.PUSH, None)
            else:
                self.expr(bound)
        self._emit(Op.SLICE)

    def _boolop(self, node: ast.BoolOp) -> None:
        keep = Op.JUMP_IF_FALSE_KEEP if isinstance(node.op, ast.And) else Op.JUMP_IF_TRUE_KEEP
        jumps = []
        for i, value in enumerate(node.values):
            self.expr(value)
            if i < len(node.values) - 1:
                jumps.append(self._emit(keep, None))
                self._emit(Op.POP)
        end = self._here()
        for pc in jumps:
            self._patch(pc, end)

    def _compare(self, node: ast.Compare) -> None:
        if len(node.ops) != 1:
            raise self._err(node, "chained comparisons are not supported")
        op = _CMPOPS.get(type(node.ops[0]))
        if op is None:
            raise self._err(node, f"unsupported comparison {type(node.ops[0]).__name__}")
        self.expr(node.left)
        self.expr(node.comparators[0])
        self._emit(Op.COMPARE, op)

    def _call(self, node: ast.Call) -> None:
        if node.keywords:
            raise self._err(node, "keyword arguments are not supported")
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method not in METHODS:
                raise self._err(node, f"method {method!r} is not whitelisted")
            self.expr(node.func.value)
            for arg in node.args:
                self.expr(arg)
            self._emit(Op.METHOD, (method, len(node.args)))
            return
        if not isinstance(node.func, ast.Name):
            raise self._err(node, "only simple calls are supported")
        name = node.func.id
        argc = len(node.args)
        if name in self._banned:
            raise NonDeterminismError(
                f"{self.name}: call to non-deterministic intrinsic {name!r}"
            )
        if name == EXTERNAL_NAME:
            self._fixed_call(node, 2, Op.EXT_CALL)
        elif name == DB_GET_NAME:
            self._fixed_call(node, 2, Op.DB_GET)
        elif name == DB_PUT_NAME:
            self._fixed_call(node, 3, Op.DB_PUT)
        elif name in REGISTRY:
            for arg in node.args:
                self.expr(arg)
            self._emit(Op.INTRINSIC, (name, argc))
        elif name in BUILTINS:
            for arg in node.args:
                self.expr(arg)
            self._emit(Op.CALL, (name, argc))
        else:
            raise self._err(node, f"unknown function {name!r}")

    def _fixed_call(self, node: ast.Call, arity: int, op: str) -> None:
        if len(node.args) != arity:
            raise self._err(node, f"{node.func.id} takes exactly {arity} arguments")
        for arg in node.args:
            self.expr(arg)
        self._emit(op)
