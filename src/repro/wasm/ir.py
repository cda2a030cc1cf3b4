"""Instruction set of the deterministic "wasm-lite" virtual machine.

The paper compiles application functions to WebAssembly and runs them under
WasmTime configured for determinism (§3.4, §4).  We reproduce the essential
properties — an explicit, analyzable, deterministic instruction stream with
storage accesses as visible intrinsic calls — with a small stack machine.
Functions are written in a restricted Python subset and compiled to this IR
by :mod:`repro.wasm.compiler`.

Storage accesses (``DB_GET``/``DB_PUT``) are first-class opcodes: they are
what the static analyzer searches for, and what the VM's host environment
interposes on, exactly as Radical's storage library interposes on each
access (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["Op", "Instr", "WasmFunction"]


class Op:
    """Opcode mnemonics.  One gas unit each unless noted."""

    PUSH = "push"              # push constant operand
    LOAD = "load"              # push local variable (operand: name)
    STORE = "store"            # pop into local variable (operand: name)
    POP = "pop"                # discard top of stack
    DUP = "dup"                # duplicate top of stack

    BINOP = "binop"            # operand: '+', '-', '*', '/', '//', '%', '**'
    UNARY = "unary"            # operand: '-', 'not', '+'
    COMPARE = "compare"        # operand: '==','!=','<','<=','>','>=','in','not in'

    JUMP = "jump"              # operand: target pc
    JUMP_IF_FALSE = "jif"      # pop; jump if falsy (operand: target pc)
    JUMP_IF_TRUE = "jit"       # pop; jump if truthy (operand: target pc)
    JUMP_IF_FALSE_KEEP = "jifk"  # peek; jump if falsy, keep value (for `and`)
    JUMP_IF_TRUE_KEEP = "jitk"   # peek; jump if truthy, keep value (for `or`)

    CALL = "call"              # operand: (builtin name, argc)
    INTRINSIC = "intrinsic"    # operand: (intrinsic name, argc); gas = cost
    METHOD = "method"          # operand: (method name, argc); receiver below args

    BUILD_LIST = "build_list"  # operand: element count
    BUILD_TUPLE = "build_tuple"
    BUILD_DICT = "build_dict"  # operand: pair count (key, value pushed in order)

    INDEX = "index"            # pop index, pop obj, push obj[index]
    STORE_INDEX = "store_index"  # pop value, index, obj; obj[index] = value
    SLICE = "slice"            # pop (hi, lo, obj) with None markers, push obj[lo:hi]

    DB_GET = "db_get"          # pop key, table; push value-or-None
    DB_PUT = "db_put"          # pop value, key, table; push None
    EXT_CALL = "ext_call"      # pop payload, service; push response (§3.5)
    RW_READ = "rw_read"        # f^rw only: record read; push cached value
    RW_WRITE = "rw_write"      # f^rw only: record write key; push None

    FORMAT = "format"          # pop n parts, push ''.join(str(part)...)

    RETURN = "return"          # pop return value; halt


@dataclass(frozen=True)
class Instr:
    """One instruction: opcode plus optional operand."""

    op: str
    arg: Any = None

    def __repr__(self) -> str:
        return f"{self.op}({self.arg!r})" if self.arg is not None else self.op


@dataclass
class WasmFunction:
    """A compiled function: parameter names plus an instruction vector.

    ``source`` is the Python source the function was compiled from (an
    f^rw carries its ``f``'s), kept for the AST symbolic executor and for
    error messages.  ``kind`` distinguishes an application function
    (``"f"``) from its derived read/write-set function (``"frw"``).
    """

    name: str
    params: List[str]
    instructions: List[Instr]
    source: str = ""
    kind: str = "f"
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)

    def disassemble(self) -> str:
        """Human-readable listing (debugging and documentation)."""
        lines = [f"func {self.name}({', '.join(self.params)})  [{self.kind}]"]
        for pc, instr in enumerate(self.instructions):
            lines.append(f"  {pc:4d}  {instr!r}")
        return "\n".join(lines)

    def storage_opcodes(self) -> List[Tuple[int, str]]:
        """(pc, opcode) of every storage access instruction."""
        wanted = {Op.DB_GET, Op.DB_PUT, Op.RW_READ, Op.RW_WRITE}
        return [(pc, i.op) for pc, i in enumerate(self.instructions) if i.op in wanted]

    def may_write(self) -> bool:
        """True if the instruction stream contains any write opcode."""
        return any(i.op in (Op.DB_PUT, Op.RW_WRITE) for i in self.instructions)
