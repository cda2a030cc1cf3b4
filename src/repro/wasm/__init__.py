"""Deterministic "wasm-lite" sandbox: compiler, IR, interpreter, intrinsics.

Stands in for the paper's Rust→WebAssembly→WasmTime pipeline (§3.4, §4):
application functions are written in a restricted Python subset, compiled
to a stack IR with explicit storage opcodes, and executed deterministically
with gas metering and a whitelisted host environment.
"""

from .compiler import BUILTINS, METHODS, compile_callable, compile_source
from .intrinsics import Intrinsic, REGISTRY, banned_names, lookup, register_intrinsic
from .ir import Instr, Op, WasmFunction
from .vm import DEFAULT_GAS_LIMIT, DictEnv, ExecutionTrace, HostEnv, VM

__all__ = [
    "BUILTINS",
    "DEFAULT_GAS_LIMIT",
    "DictEnv",
    "ExecutionTrace",
    "HostEnv",
    "Instr",
    "Intrinsic",
    "METHODS",
    "Op",
    "REGISTRY",
    "VM",
    "WasmFunction",
    "banned_names",
    "compile_callable",
    "compile_source",
    "lookup",
    "register_intrinsic",
]
