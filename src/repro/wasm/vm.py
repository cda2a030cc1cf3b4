"""The deterministic sandbox that runs wasm-lite functions.

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

**How a function runs.**  On its first execution a function is compiled
once into one Python function (:mod:`repro.wasm.codegen`), cached on the
:class:`~repro.wasm.ir.WasmFunction`; every execution runs that.  The
operators' semantics — ``_binop``, ``_method``, ``_builtin`` and the other
module-level helpers below — are shared by the generated code and by the
*stepper* (:meth:`VM._step`), which executes one instruction at a time and
is the reference semantics.  The stepper runs only two things: the block
in which the gas limit is crossed, and a function the generator rejects
(an inconsistent stack depth, an unknown opcode; nothing the compiler
emits).

**The gas contract.**  Every instruction costs one gas, checked before it
runs: the instruction that would take ``gas`` past ``gas_limit`` raises
:class:`GasExhausted` naming its pc, with nothing of it done.  Builtins,
methods and intrinsics charge extra by the size of what they return or
walk (``range``, ``sorted``, ``keys``, ...) or by their declared cost,
after they run; the next instruction's check sees it.  A sequence repeat
(``[0] * n``) charges its result length and an integer power its result
size in 64-bit words *before* evaluating, checked at once, so a
gigabyte-sized value trips the budget instead of being built.  Generated
code keeps these semantics exactly but charges them per block: a block
ends after every instruction whose gas depends on data
(:func:`~repro.wasm.ir.charges_by_data`), so every other instruction of a
block costs one gas, and the block charges its length once, on entry.
When that charge would cross the limit, the block's entry state (pc, gas,
stack, variables) passes to the stepper, which raises at the same pc
after the same env and hook calls.  The counts are exact because f^rw's
virtual duration is computed from both gas counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..errors import GasExhausted, VMTrap
from . import codegen
from .intrinsics import REGISTRY
from .ir import Op, WasmFunction

__all__ = ["HostEnv", "DictEnv", "ExecutionTrace", "VM", "DEFAULT_GAS_LIMIT"]

DEFAULT_GAS_LIMIT = 2_000_000


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
    """A sandbox instance; stateless between :meth:`execute` calls."""

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
        try:
            run = func._compiled
        except AttributeError:
            run = func._compiled = codegen.generate(func, _RUNTIME)
        if run is None:
            return self._step(func, trace, 0, 0, [], dict(zip(func.params, args)))
        return run(self, func, trace, *args)

    def _step(
        self,
        func: WasmFunction,
        trace: ExecutionTrace,
        pc: int,
        gas: int,
        stack: List[Any],
        locals_: Dict[str, Any],
    ) -> ExecutionTrace:
        """Run ``func`` one instruction at a time from ``pc``, with ``gas``
        already used and the given operand stack and bound variables, to
        its return, a trap or gas exhaustion."""
        name = func.name
        code = func.instructions
        limit = self.gas_limit
        env = self.env
        hook = self.access_hook
        push = stack.append
        pop = stack.pop

        def popn(n: int) -> List[Any]:
            items = stack[len(stack) - n:]
            del stack[len(stack) - n:]
            return items

        while True:
            if pc >= len(code):
                raise VMTrap(f"{name}: fell off the end of the code")
            op, arg = code[pc].op, code[pc].arg
            gas += 1
            if gas > limit:
                trace.gas_used = gas
                raise _exhausted(name, limit, pc)
            here = pc
            pc += 1

            if op == Op.PUSH:
                push(arg)
            elif op == Op.LOAD:
                try:
                    push(locals_[arg])
                except KeyError:
                    raise _unbound(name, arg) from None
            elif op == Op.STORE:
                locals_[arg] = pop()
            elif op == Op.POP:
                pop()
            elif op == Op.DUP:
                push(stack[-1])
            elif op == Op.BINOP:
                rhs = pop()
                lhs = pop()
                extra = _binop_gas(arg, lhs, rhs)
                if extra:
                    gas += extra
                    if gas > limit:
                        trace.gas_used = gas
                        raise _exhausted(name, limit, here)
                push(_binop(name, arg, lhs, rhs))
            elif op == Op.UNARY:
                push(_unary(name, arg, pop()))
            elif op == Op.COMPARE:
                rhs = pop()
                lhs = pop()
                push(_compare(name, arg, lhs, rhs))
            elif op == Op.JUMP:
                pc = arg
            elif op == Op.JUMP_IF_FALSE:
                if not pop():
                    pc = arg
            elif op == Op.JUMP_IF_TRUE:
                if pop():
                    pc = arg
            elif op == Op.JUMP_IF_FALSE_KEEP:
                if not stack[-1]:
                    pc = arg
            elif op == Op.JUMP_IF_TRUE_KEEP:
                if stack[-1]:
                    pc = arg
            elif op == Op.CALL:
                result, extra = _builtin(name, arg[0], popn(arg[1]))
                gas += extra
                push(result)
            elif op == Op.METHOD:
                call_args = popn(arg[1])
                result, extra = _method(name, pop(), arg[0], call_args)
                gas += extra
                push(result)
            elif op == Op.INTRINSIC:
                result, extra = _intrinsic(name, arg[0], popn(arg[1]))
                gas += extra
                push(result)
            elif op == Op.FORMAT:
                push("".join([_to_str(name, part) for part in popn(arg)]))
            elif op == Op.BUILD_LIST:
                push(popn(arg))
            elif op == Op.BUILD_TUPLE:
                push(tuple(popn(arg)))
            elif op == Op.BUILD_DICT:
                flat = popn(2 * arg)
                d = {}
                for i in range(0, 2 * arg, 2):
                    _dict_key(name, flat[i])
                    d[flat[i]] = flat[i + 1]
                push(d)
            elif op == Op.INDEX:
                index = pop()
                obj = pop()
                try:
                    push(obj[index])
                except (KeyError, IndexError, TypeError) as exc:
                    raise _failed(name, "index", exc) from exc
            elif op == Op.STORE_INDEX:
                value = pop()
                index = pop()
                _store_index(name, pop(), index, value)
            elif op == Op.SLICE:
                hi = pop()
                lo = pop()
                push(_slice(name, pop(), lo, hi))
            elif op == Op.DB_GET or op == Op.RW_READ:
                key = pop()
                table = pop()
                _check_key(name, table, key)
                if hook is not None:
                    hook("read", table, key)
                push(env.db_get(table, key))
                trace.reads.append((table, key))
            elif op == Op.DB_PUT:
                value = pop()
                key = pop()
                table = pop()
                _check_key(name, table, key)
                if hook is not None:
                    hook("write", table, key)
                env.db_put(table, key, value)
                trace.writes.append((table, key, value))
                push(None)
            elif op == Op.RW_WRITE:
                key = pop()
                table = pop()
                _check_key(name, table, key)
                if hook is not None:
                    hook("write", table, key)
                trace.writes.append((table, key, None))
                push(None)
            elif op == Op.EXT_CALL:
                payload = pop()
                push(_external(self, name, trace, pop(), payload))
            elif op == Op.RETURN:
                trace.result = pop()
                trace.gas_used = gas
                return trace
            else:
                raise VMTrap(f"{name}: unknown opcode {op!r}")


# -- the operators' semantics, shared by the stepper and generated code -----
#
# ``name`` is the running function's name, for trap messages.


#: The value of a generated function's variable before its first store:
#: loading it traps as an unbound variable.
_UNBOUND = object()


def _bound(names: Tuple[str, ...], frame: Dict[str, Any]) -> Dict[str, Any]:
    """The stepper's variables from a generated function's locals, where
    the variable called ``names[i]`` is ``v<i>``: the bound ones."""
    values = (frame[f"v{i}"] for i in range(len(names)))
    return {n: v for n, v in zip(names, values) if v is not _UNBOUND}


def _unbound(name: str, var: str) -> VMTrap:
    return VMTrap(f"{name}: unbound variable {var!r}")


def _failed(name: str, what: str, exc: BaseException) -> VMTrap:
    return VMTrap(f"{name}: {what} failed: {exc}")


def _exhausted(name: str, limit: int, pc: int) -> GasExhausted:
    return GasExhausted(f"{name}: exceeded {limit} gas at pc={pc}")


def _binop(name: str, op: str, lhs: Any, rhs: Any) -> Any:
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
    except Exception as exc:
        raise _failed(name, op, exc) from exc
    raise VMTrap(f"{name}: unknown binop {op!r}")


def _binop_gas(op: str, lhs: Any, rhs: Any) -> int:
    """Extra gas for a binop whose cost grows with its operands, charged
    before it runs: a sequence repeat charges its result length, an int
    power its result size in 64-bit words (bounded above by the base's
    bit length times the exponent)."""
    if op == "*":
        if isinstance(lhs, (list, str, tuple)) and isinstance(rhs, int):
            return len(lhs) * max(rhs, 0)
        if isinstance(rhs, (list, str, tuple)) and isinstance(lhs, int):
            return len(rhs) * max(lhs, 0)
    elif op == "**":
        if isinstance(lhs, int) and isinstance(rhs, int) and rhs >= 0:
            bits = abs(lhs).bit_length() * rhs if abs(lhs) > 1 else 0
            return 1 + bits // 64
    return 0


def _unary(name: str, op: str, value: Any) -> Any:
    try:
        if op == "-":
            return -value
        if op == "+":
            return +value
        if op == "not":
            return not value
    except Exception as exc:
        raise _failed(name, f"unary {op}", exc) from exc
    raise VMTrap(f"{name}: unknown unary {op!r}")


def _compare(name: str, op: str, lhs: Any, rhs: Any) -> bool:
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
        raise _failed(name, f"comparison {op}", exc) from exc
    raise VMTrap(f"{name}: unknown comparison {op!r}")


def _store_index(name: str, obj: Any, index: Any, value: Any) -> None:
    if not isinstance(obj, (list, dict)):
        raise VMTrap(f"{name}: cannot assign into {type(obj).__name__}")
    try:
        obj[index] = value
    except (KeyError, IndexError, TypeError) as exc:
        raise _failed(name, "index assignment", exc) from exc


def _slice(name: str, obj: Any, lo: Any, hi: Any) -> Any:
    if not isinstance(obj, (list, str, tuple)):
        raise VMTrap(f"{name}: cannot slice {type(obj).__name__}")
    try:
        return obj[lo:hi]
    except TypeError as exc:  # a bound that is not an int or None
        raise _failed(name, "slice", exc) from exc


def _dict_key(name: str, key: Any) -> None:
    """Trap unless ``key`` can key a sandbox dict: a scalar, or a tuple
    that hashes (one holding a list or a dict does not)."""
    if isinstance(key, (str, int, float, bool)):
        return
    if isinstance(key, tuple):
        try:
            hash(key)
            return
        except TypeError:
            pass
    raise VMTrap(f"{name}: unhashable dict key {key!r}")


def _check_key(name: str, table: Any, key: Any) -> None:
    if not isinstance(table, str) or not isinstance(key, str):
        raise VMTrap(
            f"{name}: storage table and key must be strings, "
            f"got ({type(table).__name__}, {type(key).__name__})"
        )


def _to_str(name: str, value: Any) -> str:
    if value is None or isinstance(value, (str, int, float, bool)):
        return str(value)
    raise VMTrap(f"{name}: cannot format {type(value).__name__} in f-string")


def _builtin(name: str, builtin: str, args: List[Any]) -> Tuple[Any, int]:
    """Execute a whitelisted builtin; returns (result, extra gas)."""
    try:
        if builtin == "busy":
            # Pure computation: burns gas, returns nothing.
            amount = int(args[0])
            if amount < 0:
                raise ValueError(f"busy() amount must be >= 0, got {amount}")
            return None, amount
        if builtin == "len":
            return len(args[0]), 0
        if builtin == "str":
            return _to_str(name, args[0]), 0
        if builtin == "int":
            return int(args[0]), 0
        if builtin == "float":
            return float(args[0]), 0
        if builtin == "bool":
            return bool(args[0]), 0
        if builtin == "abs":
            return abs(args[0]), 0
        if builtin == "min":
            target = args[0] if len(args) == 1 else args
            return min(target), len(target)
        if builtin == "max":
            target = args[0] if len(args) == 1 else args
            return max(target), len(target)
        if builtin == "sum":
            return sum(args[0]), len(args[0])
        if builtin == "sorted":
            result = sorted(args[0])
            return result, len(result)
        if builtin == "range":
            result = list(range(*args))
            return result, len(result)
        if builtin == "round":
            return round(*args), 0
        if builtin == "list":
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
        if builtin == "dict":
            if not args:
                return {}, 0
            return dict(args[0]), len(args[0])
    except VMTrap:
        raise
    except Exception as exc:
        raise _failed(name, f"builtin {builtin}", exc) from exc
    raise VMTrap(f"{name}: unknown builtin {builtin!r}")


_LIST_METHODS = {
    "append", "extend", "pop", "insert", "remove", "index", "count",
    "sort", "reverse", "copy",
}
_DICT_METHODS = {"get", "keys", "values", "items", "pop", "setdefault", "copy"}
_STR_METHODS = {
    "lower", "upper", "split", "join", "strip", "startswith", "endswith",
    "replace", "find", "zfill", "count", "index",
}


def _method(name: str, receiver: Any, method: str, args: List[Any]) -> Tuple[Any, int]:
    """Call a whitelisted method; returns (result, extra gas)."""
    if isinstance(receiver, list):
        allowed = _LIST_METHODS
    elif isinstance(receiver, dict):
        allowed = _DICT_METHODS
    elif isinstance(receiver, str):
        allowed = _STR_METHODS
    else:
        raise VMTrap(f"{name}: no methods on {type(receiver).__name__} values")
    if method not in allowed:
        raise VMTrap(
            f"{name}: method {method!r} not allowed on {type(receiver).__name__}"
        )
    try:
        result = getattr(receiver, method)(*args)
    except VMTrap:
        raise
    except Exception as exc:
        raise _failed(name, f"method {method}", exc) from exc
    # dict views must become plain lists so values stay in the sandbox's
    # simple data model.
    if method in ("keys", "values"):
        return list(result), len(receiver)
    if method == "items":
        return [list(pair) for pair in result], len(receiver)
    extra = len(receiver) if method in ("sort", "reverse", "copy", "extend") else 0
    return result, extra


def _intrinsic(name: str, intrinsic_name: str, args: List[Any]) -> Tuple[Any, int]:
    """Call a registered intrinsic; returns (result, its declared cost)."""
    intrinsic = REGISTRY.get(intrinsic_name)
    if intrinsic is None:
        raise VMTrap(f"unknown intrinsic {intrinsic_name!r}")
    try:
        return intrinsic.fn(*args), intrinsic.cost
    except VMTrap:
        raise
    except Exception as exc:
        raise _failed(name, f"intrinsic {intrinsic_name}", exc) from exc


def _external(vm: VM, name: str, trace: ExecutionTrace, service: Any, payload: Any) -> Any:
    """One §3.5 external-service call, recorded in the trace."""
    if not isinstance(service, str):
        raise VMTrap(f"{name}: external service name must be a string")
    if vm.external is None:
        raise VMTrap(f"{name}: no external services available in this sandbox")
    seq = len(trace.external_calls)
    try:
        response = vm.external(service, payload, seq)
    except VMTrap:
        raise
    except Exception as exc:
        raise _failed(name, f"external service {service}", exc) from exc
    trace.external_calls.append((service, seq))
    return response


#: What generated code may name besides Python's builtins.
_RUNTIME: Dict[str, Any] = {
    "_U": _UNBOUND,
    "_bound": _bound,
    "_unbound": _unbound,
    "_failed": _failed,
    "_binop": _binop,
    "_binop_gas": _binop_gas,
    "_unary": _unary,
    "_store_index": _store_index,
    "_slice": _slice,
    "_dict_key": _dict_key,
    "_check_key": _check_key,
    "_to_str": _to_str,
    "_builtin": _builtin,
    "_method": _method,
    "_intrinsic": _intrinsic,
    "_external": _external,
}
