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

Two facts about an instruction stream are shared by everything that reads
one — the analyses' CFG (:mod:`repro.analysis.ir.cfg`) and the VM's code
generator (:mod:`repro.wasm.codegen`): what each instruction pops and
pushes (:func:`stack_effect`) and where basic blocks start
(:func:`block_starts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from ..errors import AnalysisError

__all__ = [
    "COND_JUMP_OPS", "Instr", "JUMP_OPS", "Op", "WasmFunction",
    "block_starts", "charges_by_data", "stack_effect",
]


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


#: Opcodes that transfer control (operand = absolute target pc).
JUMP_OPS = frozenset({
    Op.JUMP,
    Op.JUMP_IF_FALSE,
    Op.JUMP_IF_TRUE,
    Op.JUMP_IF_FALSE_KEEP,
    Op.JUMP_IF_TRUE_KEEP,
})

#: Conditional jumps: fall through as well as jump.
COND_JUMP_OPS = JUMP_OPS - {Op.JUMP}


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

    The VM generates a function's Python once, on its first execution, and
    caches it on the object; the instruction vector must not change after
    that.
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


def stack_effect(instr: Instr) -> Tuple[int, int]:
    """(values popped, values pushed) by one instruction.  The keep-jumps
    peek at the top of stack and count as (0, 0); ``DUP`` pops its operand
    and pushes it twice."""
    op, arg = instr.op, instr.arg
    if op in (Op.PUSH, Op.LOAD):
        return 0, 1
    if op in (Op.STORE, Op.POP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE, Op.RETURN):
        return 1, 0
    if op == Op.DUP:
        return 1, 2
    if op in (Op.BINOP, Op.COMPARE, Op.INDEX, Op.DB_GET, Op.RW_READ, Op.RW_WRITE,
              Op.EXT_CALL):
        return 2, 1
    if op == Op.UNARY:
        return 1, 1
    if op in (Op.CALL, Op.INTRINSIC):
        return arg[1], 1
    if op == Op.METHOD:
        return arg[1] + 1, 1
    if op in (Op.BUILD_LIST, Op.BUILD_TUPLE, Op.FORMAT):
        return arg, 1
    if op == Op.BUILD_DICT:
        return 2 * arg, 1
    if op in (Op.STORE_INDEX, Op.SLICE):
        return 3, 0 if op == Op.STORE_INDEX else 1
    if op == Op.DB_PUT:
        return 3, 1
    if op in (Op.JUMP, Op.JUMP_IF_FALSE_KEEP, Op.JUMP_IF_TRUE_KEEP):
        return 0, 0
    raise AnalysisError(f"no stack effect for opcode {op}")


def charges_by_data(instr: Instr) -> bool:
    """True for an instruction whose gas depends on the values it runs on:
    builtins, methods and intrinsics charge extra by result or receiver
    size (or by their declared cost), and ``*`` / ``**`` by the size of a
    sequence repeat or an integer power."""
    op = instr.op
    return op in (Op.CALL, Op.METHOD, Op.INTRINSIC) or (
        op == Op.BINOP and instr.arg in ("*", "**")
    )


def block_starts(func: WasmFunction, by_gas: bool = False) -> List[int]:
    """Sorted pcs at which a basic block starts: pc 0, every jump target,
    and the pc after every jump and ``RETURN``.  With ``by_gas``, also the
    pc after every instruction that :func:`charges_by_data`, so that every
    other instruction of a block costs exactly one gas.

    Raises :class:`AnalysisError` for an empty stream or a jump whose
    target is not a pc of the stream."""
    code = func.instructions
    n = len(code)
    if n == 0:
        raise AnalysisError(f"{func.name}: empty instruction stream")
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr.op in JUMP_OPS:
            target = instr.arg
            if not isinstance(target, int) or not (0 <= target < n):
                raise AnalysisError(
                    f"{func.name}: jump at pc {pc} targets invalid pc {target!r}"
                )
            leaders.add(target)
            leaders.add(pc + 1)
        elif instr.op == Op.RETURN or (by_gas and charges_by_data(instr)):
            leaders.add(pc + 1)
    return sorted(pc for pc in leaders if pc < n)
