"""The deterministic stack-machine interpreter for wasm-lite functions.

The VM plays the role WasmTime plays in the paper (§4): it executes
compiled functions in a sandbox whose only window to the world is the
*host environment* — ``db_get``/``db_put`` for storage (wired to the
near-user cache during speculation and to primary storage during backup
execution / re-execution) and registered deterministic intrinsics.

Properties the protocol relies on and the VM enforces:

* **Determinism** — same function, same arguments, same storage responses
  ⇒ same writes and same result.  There is no clock, no randomness, and
  dict iteration order is insertion order (deterministic in Python).
* **Interposition** — every storage access is recorded in the execution
  trace; the LVI followup is built from the recorded writes, and tests
  compare recorded reads against the analyzer's predictions.
* **Gas metering** — a hard instruction budget turns non-termination into
  :class:`~repro.errors.GasExhausted` instead of a hung simulation; gas is
  also the VM's abstract cost measure, from which the f^rw latency model
  derives its slice ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..errors import GasExhausted, VMTrap
from .intrinsics import REGISTRY, lookup
from .ir import Instr, Op, WasmFunction

__all__ = ["HostEnv", "DictEnv", "ExecutionTrace", "VM", "DEFAULT_GAS_LIMIT"]

DEFAULT_GAS_LIMIT = 2_000_000

# Integer opcodes for the dispatch loop.  The public IR keeps readable
# string mnemonics (`Op`); execution translates each function once into
# (int, arg) pairs so the interpreter compares small ints instead of
# walking a string-equality chain, and skips the per-instruction
# ``instr.op``/``instr.arg`` attribute loads.  Numbered in rough hot-path
# frequency order, matching the if/elif chain in :meth:`VM.execute`.
(
    _LOAD, _PUSH, _COMPARE, _JUMP_IF_FALSE, _BINOP, _STORE, _INDEX, _JUMP,
    _JUMP_IF_TRUE, _DUP, _POP, _METHOD, _CALL, _FORMAT, _BUILD_LIST,
    _BUILD_DICT, _BUILD_TUPLE, _DB_GET, _DB_PUT, _RW_READ, _RW_WRITE,
    _INTRINSIC, _RETURN, _UNARY, _JUMP_IF_FALSE_KEEP, _JUMP_IF_TRUE_KEEP,
    _SLICE, _STORE_INDEX, _EXT_CALL, _UNKNOWN,
) = range(30)

_OPMAP = {
    Op.LOAD: _LOAD, Op.PUSH: _PUSH, Op.COMPARE: _COMPARE,
    Op.JUMP_IF_FALSE: _JUMP_IF_FALSE, Op.BINOP: _BINOP, Op.STORE: _STORE,
    Op.INDEX: _INDEX, Op.JUMP: _JUMP, Op.JUMP_IF_TRUE: _JUMP_IF_TRUE,
    Op.DUP: _DUP, Op.POP: _POP, Op.METHOD: _METHOD, Op.CALL: _CALL,
    Op.FORMAT: _FORMAT, Op.BUILD_LIST: _BUILD_LIST, Op.BUILD_DICT: _BUILD_DICT,
    Op.BUILD_TUPLE: _BUILD_TUPLE, Op.DB_GET: _DB_GET, Op.DB_PUT: _DB_PUT,
    Op.RW_READ: _RW_READ, Op.RW_WRITE: _RW_WRITE, Op.INTRINSIC: _INTRINSIC,
    Op.RETURN: _RETURN, Op.UNARY: _UNARY,
    Op.JUMP_IF_FALSE_KEEP: _JUMP_IF_FALSE_KEEP,
    Op.JUMP_IF_TRUE_KEEP: _JUMP_IF_TRUE_KEEP, Op.SLICE: _SLICE,
    Op.STORE_INDEX: _STORE_INDEX, Op.EXT_CALL: _EXT_CALL,
}


def _translate(func: WasmFunction) -> list:
    """Translate a function's instruction vector to (int opcode, arg)
    pairs, cached on the function object.  Unknown mnemonics become
    ``_UNKNOWN`` entries that trap at execution, preserving the original
    lazy unknown-opcode behaviour."""
    fast = [
        (_OPMAP.get(i.op, _UNKNOWN), i.arg if _OPMAP.get(i.op) is not None else i.op)
        for i in func.instructions
    ]
    func._fastcode = fast
    return fast


class HostEnv(Protocol):
    """What the sandbox can see of the outside world."""

    def db_get(self, table: str, key: str) -> Any:
        """Return the current value for (table, key), or None if absent."""
        ...

    def db_put(self, table: str, key: str, value: Any) -> None:
        """Write a value.  The VM records it; the env decides what
        'writing' means (buffering, applying to a cache, ...)."""
        ...


class DictEnv:
    """A trivial in-memory environment for tests and examples."""

    def __init__(self, data: Optional[Dict[Tuple[str, str], Any]] = None):
        self.data: Dict[Tuple[str, str], Any] = dict(data or {})

    def db_get(self, table: str, key: str) -> Any:
        return self.data.get((table, key))

    def db_put(self, table: str, key: str, value: Any) -> None:
        self.data[(table, key)] = value


@dataclass
class ExecutionTrace:
    """Everything observable about one sandboxed execution."""

    result: Any = None
    reads: List[Tuple[str, str]] = field(default_factory=list)
    writes: List[Tuple[str, str, Any]] = field(default_factory=list)
    external_calls: List[Tuple[str, int]] = field(default_factory=list)  # (service, seq)
    gas_used: int = 0

    def read_keys(self) -> List[Tuple[str, str]]:
        return list(self.reads)

    def write_keys(self) -> List[Tuple[str, str]]:
        return [(t, k) for (t, k, _v) in self.writes]


class VM:
    """Interpreter instance; stateless between :meth:`execute` calls."""

    def __init__(
        self,
        env: HostEnv,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        external: Optional[Callable[[str, Any, int], Any]] = None,
        access_hook: Optional[Callable[[str, str, str], None]] = None,
    ):
        self.env = env
        self.gas_limit = gas_limit
        # §3.5 external-service hook: (service, payload, call_seq) -> response.
        # Wired by Radical to the idempotency-keyed service hub; absent in
        # plain sandboxes, where external() traps.
        self.external = external
        # Interposition point for the rw-set soundness sanitizer: called as
        # ("read"|"write", table, key) at every storage opcode, in execution
        # order, before the trace records it.  Costs nothing when unset.
        self.access_hook = access_hook

    def execute(self, func: WasmFunction, args: List[Any]) -> ExecutionTrace:
        """Run ``func`` on ``args`` to completion; returns the trace.

        Raises :class:`VMTrap` on illegal operations and
        :class:`GasExhausted` when the budget runs out.
        """
        if len(args) != len(func.params):
            raise VMTrap(
                f"{func.name}: expected {len(func.params)} arguments, got {len(args)}"
            )
        trace = ExecutionTrace()
        locals_: Dict[str, Any] = dict(zip(func.params, args))
        stack: List[Any] = []
        try:
            code = func._fastcode
        except AttributeError:
            code = _translate(func)
        ncode = len(code)
        pc = 0
        gas = 0
        limit = self.gas_limit
        # Hot locals: one attribute load each for the whole execution.
        append = stack.append
        pop = stack.pop
        hook = self.access_hook
        env = self.env
        reads = trace.reads
        writes = trace.writes
        reg_get = REGISTRY.get

        while True:
            if pc >= ncode:
                raise VMTrap(f"{func.name}: fell off the end of the code")
            op, arg = code[pc]
            gas += 1
            if gas > limit:
                trace.gas_used = gas
                raise GasExhausted(f"{func.name}: exceeded {limit} gas at pc={pc}")
            pc += 1

            if op == _LOAD:
                try:
                    append(locals_[arg])
                except KeyError:
                    raise VMTrap(f"{func.name}: unbound variable {arg!r}") from None
            elif op == _PUSH:
                append(arg)
            elif op == _COMPARE:
                rhs = pop()
                lhs = pop()
                append(self._compare(func, arg, lhs, rhs))
            elif op == _JUMP_IF_FALSE:
                if not pop():
                    pc = arg
            elif op == _BINOP:
                rhs = pop()
                lhs = pop()
                append(self._binop(func, arg, lhs, rhs))
            elif op == _STORE:
                locals_[arg] = pop()
            elif op == _INDEX:
                index = pop()
                obj = pop()
                try:
                    append(obj[index])
                except (KeyError, IndexError, TypeError) as exc:
                    raise VMTrap(f"{func.name}: index failed: {exc}") from exc
            elif op == _JUMP:
                pc = arg
            elif op == _JUMP_IF_TRUE:
                if pop():
                    pc = arg
            elif op == _DUP:
                append(stack[-1])
            elif op == _POP:
                pop()
            elif op == _METHOD:
                name, argc = arg
                call_args = stack[len(stack) - argc:]
                del stack[len(stack) - argc:]
                receiver = pop()
                result, extra_gas = self._method(func, receiver, name, call_args)
                gas += extra_gas
                append(result)
            elif op == _CALL:
                name, argc = arg
                call_args = stack[len(stack) - argc:]
                del stack[len(stack) - argc:]
                result, extra_gas = self._builtin(func, name, call_args)
                gas += extra_gas
                append(result)
            elif op == _FORMAT:
                parts = stack[len(stack) - arg:]
                del stack[len(stack) - arg:]
                append("".join(self._to_str(func, p) for p in parts))
            elif op == _BUILD_LIST:
                items = stack[len(stack) - arg:]
                del stack[len(stack) - arg:]
                append(items)
            elif op == _BUILD_DICT:
                n2 = 2 * arg
                flat = stack[len(stack) - n2:]
                del stack[len(stack) - n2:]
                d = {}
                for i in range(0, n2, 2):
                    key = flat[i]
                    if not isinstance(key, (str, int, float, bool, tuple)):
                        raise VMTrap(f"{func.name}: unhashable dict key {key!r}")
                    d[key] = flat[i + 1]
                append(d)
            elif op == _BUILD_TUPLE:
                items = tuple(stack[len(stack) - arg:])
                del stack[len(stack) - arg:]
                append(items)
            elif op == _DB_GET or op == _RW_READ:
                key = pop()
                table = pop()
                if not (type(table) is str and type(key) is str):
                    self._check_key(func, table, key)
                if hook is not None:
                    hook("read", table, key)
                value = env.db_get(table, key)
                reads.append((table, key))
                append(value)
            elif op == _DB_PUT:
                value = pop()
                key = pop()
                table = pop()
                if not (type(table) is str and type(key) is str):
                    self._check_key(func, table, key)
                if hook is not None:
                    hook("write", table, key)
                env.db_put(table, key, value)
                writes.append((table, key, value))
                append(None)
            elif op == _RW_WRITE:
                key = pop()
                table = pop()
                if not (type(table) is str and type(key) is str):
                    self._check_key(func, table, key)
                if hook is not None:
                    hook("write", table, key)
                writes.append((table, key, None))
                append(None)
            elif op == _INTRINSIC:
                name, argc = arg
                call_args = stack[len(stack) - argc:]
                del stack[len(stack) - argc:]
                intrinsic = reg_get(name)
                if intrinsic is None:
                    raise VMTrap(f"unknown intrinsic {name!r}")
                gas += intrinsic.cost
                try:
                    append(intrinsic.fn(*call_args))
                except VMTrap:
                    raise
                except Exception as exc:
                    raise VMTrap(f"{func.name}: intrinsic {name} failed: {exc}") from exc
            elif op == _RETURN:
                trace.result = pop()
                trace.gas_used = gas
                return trace
            elif op == _UNARY:
                value = pop()
                append(self._unary(func, arg, value))
            elif op == _JUMP_IF_FALSE_KEEP:
                if not stack[-1]:
                    pc = arg
            elif op == _JUMP_IF_TRUE_KEEP:
                if stack[-1]:
                    pc = arg
            elif op == _SLICE:
                hi = pop()
                lo = pop()
                obj = pop()
                if not isinstance(obj, (list, str, tuple)):
                    raise VMTrap(f"{func.name}: cannot slice {type(obj).__name__}")
                append(obj[lo:hi])
            elif op == _STORE_INDEX:
                value = pop()
                index = pop()
                obj = pop()
                self._store_index(func, obj, index, value)
            elif op == _EXT_CALL:
                payload = pop()
                service = pop()
                if not isinstance(service, str):
                    raise VMTrap(f"{func.name}: external service name must be a string")
                if self.external is None:
                    raise VMTrap(
                        f"{func.name}: no external services available in this sandbox"
                    )
                seq = len(trace.external_calls)
                try:
                    response = self.external(service, payload, seq)
                except VMTrap:
                    raise
                except Exception as exc:
                    raise VMTrap(
                        f"{func.name}: external service {service} failed: {exc}"
                    ) from exc
                trace.external_calls.append((service, seq))
                append(response)
            else:  # pragma: no cover - compiler emits only known opcodes
                raise VMTrap(f"{func.name}: unknown opcode {arg!r}")

    # -- operand helpers -----------------------------------------------------

    def _binop(self, func: WasmFunction, op: str, lhs: Any, rhs: Any) -> Any:
        try:
            if op == "+":
                if isinstance(lhs, (list, str)) != isinstance(rhs, (list, str)):
                    # Allow numeric + numeric, str + str, list + list only.
                    if not (isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))):
                        raise TypeError(f"cannot add {type(lhs).__name__} and {type(rhs).__name__}")
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs / rhs
            if op == "//":
                return lhs // rhs
            if op == "%":
                return lhs % rhs
            if op == "**":
                return lhs ** rhs
        except VMTrap:
            raise
        except Exception as exc:
            raise VMTrap(f"{func.name}: {op} failed: {exc}") from exc
        raise VMTrap(f"{func.name}: unknown binop {op!r}")

    def _unary(self, func: WasmFunction, op: str, value: Any) -> Any:
        try:
            if op == "-":
                return -value
            if op == "+":
                return +value
            if op == "not":
                return not value
        except Exception as exc:
            raise VMTrap(f"{func.name}: unary {op} failed: {exc}") from exc
        raise VMTrap(f"{func.name}: unknown unary {op!r}")

    def _compare(self, func: WasmFunction, op: str, lhs: Any, rhs: Any) -> bool:
        try:
            if op == "==":
                return lhs == rhs
            if op == "!=":
                return lhs != rhs
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            if op == ">=":
                return lhs >= rhs
            if op == "in":
                return lhs in rhs
            if op == "not in":
                return lhs not in rhs
            if op == "is":
                # Only identity against None is meaningful in the sandbox.
                return lhs is rhs
            if op == "is not":
                return lhs is not rhs
        except Exception as exc:
            raise VMTrap(f"{func.name}: comparison {op} failed: {exc}") from exc
        raise VMTrap(f"{func.name}: unknown comparison {op!r}")

    def _index(self, func: WasmFunction, obj: Any, index: Any) -> Any:
        try:
            return obj[index]
        except (KeyError, IndexError, TypeError) as exc:
            raise VMTrap(f"{func.name}: index failed: {exc}") from exc

    def _store_index(self, func: WasmFunction, obj: Any, index: Any, value: Any) -> None:
        if not isinstance(obj, (list, dict)):
            raise VMTrap(f"{func.name}: cannot assign into {type(obj).__name__}")
        try:
            obj[index] = value
        except (KeyError, IndexError, TypeError) as exc:
            raise VMTrap(f"{func.name}: index assignment failed: {exc}") from exc

    def _check_key(self, func: WasmFunction, table: Any, key: Any) -> None:
        if not isinstance(table, str) or not isinstance(key, str):
            raise VMTrap(
                f"{func.name}: storage table and key must be strings, "
                f"got ({type(table).__name__}, {type(key).__name__})"
            )

    @staticmethod
    def _to_str(func: WasmFunction, value: Any) -> str:
        if value is None or isinstance(value, (str, int, float, bool)):
            return str(value)
        raise VMTrap(f"{func.name}: cannot format {type(value).__name__} in f-string")

    # -- builtins ------------------------------------------------------------

    def _builtin(self, func: WasmFunction, name: str, args: List[Any]) -> Tuple[Any, int]:
        """Execute a whitelisted builtin; returns (result, extra gas)."""
        try:
            if name == "busy":
                # Pure computation: burns gas, returns nothing.
                amount = int(args[0])
                if amount < 0:
                    raise ValueError(f"busy() amount must be >= 0, got {amount}")
                return None, amount
            if name == "len":
                return len(args[0]), 0
            if name == "str":
                return self._to_str(func, args[0]), 0
            if name == "int":
                return int(args[0]), 0
            if name == "float":
                return float(args[0]), 0
            if name == "bool":
                return bool(args[0]), 0
            if name == "abs":
                return abs(args[0]), 0
            if name == "min":
                target = args[0] if len(args) == 1 else args
                return min(target), len(target)
            if name == "max":
                target = args[0] if len(args) == 1 else args
                return max(target), len(target)
            if name == "sum":
                return sum(args[0]), len(args[0])
            if name == "sorted":
                result = sorted(args[0])
                return result, len(result)
            if name == "range":
                result = list(range(*args))
                return result, len(result)
            if name == "round":
                return round(*args), 0
            if name == "list":
                if not args:
                    return [], 0
                src = args[0]
                if isinstance(src, dict):
                    result = list(src.keys())
                elif isinstance(src, (list, tuple, str)):
                    result = list(src)
                else:
                    raise TypeError(f"cannot make a list from {type(src).__name__}")
                return result, len(result)
            if name == "dict":
                if not args:
                    return {}, 0
                return dict(args[0]), len(args[0])
        except VMTrap:
            raise
        except Exception as exc:
            raise VMTrap(f"{func.name}: builtin {name} failed: {exc}") from exc
        raise VMTrap(f"{func.name}: unknown builtin {name!r}")

    # -- methods -------------------------------------------------------------

    _LIST_METHODS = {
        "append", "extend", "pop", "insert", "remove", "index", "count",
        "sort", "reverse", "copy",
    }
    _DICT_METHODS = {"get", "keys", "values", "items", "pop", "setdefault", "copy"}
    _STR_METHODS = {
        "lower", "upper", "split", "join", "strip", "startswith", "endswith",
        "replace", "find", "zfill", "count", "index",
    }

    def _method(
        self, func: WasmFunction, receiver: Any, name: str, args: List[Any]
    ) -> Tuple[Any, int]:
        if isinstance(receiver, list):
            allowed = self._LIST_METHODS
        elif isinstance(receiver, dict):
            allowed = self._DICT_METHODS
        elif isinstance(receiver, str):
            allowed = self._STR_METHODS
        else:
            raise VMTrap(
                f"{func.name}: no methods on {type(receiver).__name__} values"
            )
        if name not in allowed:
            raise VMTrap(
                f"{func.name}: method {name!r} not allowed on {type(receiver).__name__}"
            )
        try:
            result = getattr(receiver, name)(*args)
        except VMTrap:
            raise
        except Exception as exc:
            raise VMTrap(f"{func.name}: method {name} failed: {exc}") from exc
        # dict views must become plain lists so values stay in the sandbox's
        # simple data model.
        if name in ("keys", "values"):
            return list(result), len(receiver)
        if name == "items":
            return [list(pair) for pair in result], len(receiver)
        extra = len(receiver) if name in ("sort", "reverse", "copy", "extend") else 0
        return result, extra
