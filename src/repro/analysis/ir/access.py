"""IR-level storage access sites with back-traced key operands.

An abstract interpretation over the CFG tracks, for every stack slot, a
small symbolic value — constant, parameter, local, or an f-string
concatenation of those — so that when a ``DB_GET`` / ``DB_PUT`` /
``RW_READ`` / ``RW_WRITE`` opcode pops its (table, key) operands we can
report *which* table and *what shape of key* the access touches, straight
from the artifact the VM executes.

This is the IR mirror of the AST symbolic executor's
:class:`~repro.analysis.symbolic.AccessSite` report, and
:func:`cross_validate` checks the two (plus the sliced f^rw) agree — a
three-way consistency check between engines over the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Set

from ...wasm.ir import Op, WasmFunction
from .cfg import build_cfg

__all__ = ["SymValue", "IRAccessSite", "CrossValidation", "extract_access_sites", "cross_validate"]

_MAX_PASSES = 30

#: Immutable constant types a ``const`` SymValue may carry.  Lists/dicts
#: are mutable and never constant; tuples of constants are fine.
CONST_TYPES = (str, int, float, bool, type(None), tuple)


def is_const_value(value: Any) -> bool:
    if isinstance(value, tuple):
        return all(is_const_value(v) for v in value)
    return isinstance(value, CONST_TYPES)


@dataclass(frozen=True)
class SymValue:
    """Abstract operand value: a tagged, hashable mini-term.

    ``kind`` is one of ``const`` (payload: the value), ``param`` /
    ``local`` (payload: the name), ``format`` (payload: tuple of parts),
    ``dbread`` (payload: the read site's ``(table, key)`` SymValues — a
    pure function of the value read there, possibly with a constant
    default), ``incr`` (payload: ``(base, delta)`` — a dbread-rooted value
    plus a storage-independent delta; what the commutative-write
    classifier looks for), or ``unknown`` (payload: the producing opcode,
    informational only).  ``dbread``/``incr`` render as ``{?}`` so key
    patterns are unchanged by their introduction.
    """

    kind: str
    payload: Any = None

    UNKNOWN: ClassVar["SymValue"]  # set below

    @staticmethod
    def const(value: Any) -> "SymValue":
        return SymValue("const", value)

    @staticmethod
    def join(a: "SymValue", b: "SymValue") -> "SymValue":
        if a == b:
            return a
        # A dbread joined with a constant keeps its dbread identity: it
        # still denotes "a pure function of the value read at that site,
        # possibly defaulted" — the idiom behind ``v = db_get(...); if v
        # is None: v = 0``.  Only the commutative-write classifier looks
        # at dbread payloads, and the defaulted read commutes the same
        # way the raw read does.
        if a.kind in ("dbread", "incr") and b.kind == "const":
            return a
        if b.kind in ("dbread", "incr") and a.kind == "const":
            return b
        return SymValue.UNKNOWN

    def pattern(self) -> str:
        """Human/matcher-facing rendering, ``{…}`` for non-constant parts."""
        if self.kind == "const":
            return str(self.payload)
        if self.kind == "param":
            return "{input:%s}" % self.payload
        if self.kind == "local":
            return "{var:%s}" % self.payload
        if self.kind == "format":
            return "".join(part.pattern() for part in self.payload)
        return "{?}"

    def const_prefix(self) -> str:
        """Longest constant string prefix of the rendered key."""
        if self.kind == "const":
            return str(self.payload)
        if self.kind == "format":
            prefix = []
            for part in self.payload:
                if part.kind == "const":
                    prefix.append(str(part.payload))
                else:
                    break
            return "".join(prefix)
        return ""

    def is_concrete(self) -> bool:
        return self.kind == "const"

    def input_only(self) -> bool:
        """True when the rendered key depends on constants and parameters
        only — the same key string on every access within one invocation
        (provided the parameters are never reassigned)."""
        if self.kind in ("const", "param"):
            return True
        if self.kind == "format":
            return all(part.input_only() for part in self.payload)
        return False


SymValue.UNKNOWN = SymValue("unknown")


@dataclass(frozen=True)
class IRAccessSite:
    """One storage opcode with its back-traced operands."""

    pc: int
    opcode: str
    kind: str                     # "read" | "write"
    table: Optional[str]          # concrete table name, or None if opaque
    key: SymValue
    in_loop: bool                 # site may execute more than once
    value: Optional[SymValue] = None  # written operand (write sites only)

    @property
    def key_pattern(self) -> str:
        return self.key.pattern()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pc": self.pc,
            "opcode": self.opcode,
            "kind": self.kind,
            "table": self.table,
            "key_pattern": self.key_pattern,
            "multiplicity": "many" if self.in_loop else "one",
        }


_READ_OPS = {Op.DB_GET: "read", Op.RW_READ: "read"}
_WRITE_OPS = {Op.DB_PUT: "write", Op.RW_WRITE: "write"}
_ACCESS_OPS = {**_READ_OPS, **_WRITE_OPS}

# Delta operands whose value cannot depend on storage state.
_PURE_DELTA_KINDS = ("const", "param")


def _incr_of(lhs: SymValue, rhs: SymValue) -> SymValue:
    """Symbolic result of ``lhs + rhs``.

    When one operand is dbread-rooted and the other is a
    storage-independent delta, the sum is an ``incr`` term — the shape the
    commutative-write classifier recognises.  Anything else is unknown.
    """
    if lhs.kind in ("dbread", "incr") and rhs.kind in _PURE_DELTA_KINDS:
        return SymValue("incr", (lhs, rhs))
    if rhs.kind in ("dbread", "incr") and lhs.kind in _PURE_DELTA_KINDS:
        return SymValue("incr", (rhs, lhs))
    return SymValue.UNKNOWN


def _transfer(
    block,
    entry_stack: List[SymValue],
    env: Dict[str, SymValue],
    params: Set[str],
    sites: Optional[Dict[int, IRAccessSite]],
    loop_blocks: Set[int],
) -> List[SymValue]:
    """Symbolically execute one block; optionally record access sites.

    ``env`` maps locals to symbolic values and is mutated; the returned
    list is the exit stack (conditional pops applied per opcode semantics —
    the keep-variants leave their operand for both successors).
    """
    stack = list(entry_stack)

    def pop() -> SymValue:
        return stack.pop() if stack else SymValue.UNKNOWN

    def popn(n: int) -> List[SymValue]:
        return [pop() for _ in range(n)][::-1]

    for pc, instr in block.pcs():
        op = instr.op
        if op == Op.PUSH:
            stack.append(
                SymValue.const(instr.arg) if is_const_value(instr.arg) else SymValue.UNKNOWN
            )
        elif op == Op.LOAD:
            name = instr.arg
            if name in env:
                stack.append(env[name])
            elif name in params:
                stack.append(SymValue("param", name))
            else:
                stack.append(SymValue("local", name))
        elif op == Op.STORE:
            env[instr.arg] = pop()
        elif op == Op.POP:
            pop()
        elif op == Op.DUP:
            stack.append(stack[-1] if stack else SymValue.UNKNOWN)
        elif op == Op.FORMAT:
            parts = popn(instr.arg)
            if all(p.kind == "const" for p in parts):
                try:
                    stack.append(SymValue.const("".join(str(p.payload) for p in parts)))
                except Exception:  # pragma: no cover - const payloads always format
                    stack.append(SymValue.UNKNOWN)
            else:
                flat: List[SymValue] = []
                for p in parts:
                    flat.extend(p.payload if p.kind == "format" else (p,))
                stack.append(SymValue("format", tuple(flat)))
        elif op in _ACCESS_OPS:
            value = pop() if op == Op.DB_PUT else None  # the written operand
            key = pop()
            table = pop()
            if sites is not None and pc not in sites:
                sites[pc] = IRAccessSite(
                    pc=pc,
                    opcode=op,
                    kind=_ACCESS_OPS[op],
                    table=str(table.payload) if table.is_concrete() else None,
                    key=key,
                    in_loop=block.index in loop_blocks,
                    value=value,
                )
            if op in _READ_OPS:
                # The read result is a pure function of its (table, key)
                # site — remember that so the commutative-write classifier
                # can recognise read-modify-write increments.
                stack.append(SymValue("dbread", (table, key)))
            else:
                stack.append(SymValue.UNKNOWN)
        elif op == Op.BINOP and instr.arg == "+":
            rhs, lhs = pop(), pop()
            stack.append(_incr_of(lhs, rhs))
        elif op in (Op.BINOP, Op.COMPARE):
            popn(2)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.UNARY:
            pop()
            stack.append(SymValue.UNKNOWN)
        elif op in (Op.CALL, Op.INTRINSIC):
            popn(instr.arg[1])
            stack.append(SymValue.UNKNOWN)
        elif op == Op.METHOD:
            popn(instr.arg[1] + 1)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.BUILD_LIST or op == Op.BUILD_TUPLE:
            popn(instr.arg)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.BUILD_DICT:
            popn(2 * instr.arg)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.INDEX:
            popn(2)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.STORE_INDEX:
            popn(3)
        elif op == Op.SLICE:
            popn(3)
            stack.append(SymValue.UNKNOWN)
        elif op == Op.EXT_CALL:
            popn(2)
            stack.append(SymValue.UNKNOWN)
        elif op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE):
            pop()
        elif op in (Op.JUMP, Op.JUMP_IF_FALSE_KEEP, Op.JUMP_IF_TRUE_KEEP):
            pass
        elif op == Op.RETURN:
            pop()
        else:  # pragma: no cover - compiler emits only known opcodes
            stack.append(SymValue.UNKNOWN)
    return stack


def _join_stacks(a: Optional[List[SymValue]], b: List[SymValue]) -> List[SymValue]:
    if a is None:
        return list(b)
    if len(a) != len(b):
        # Ill-balanced join (never produced by the compiler): collapse.
        depth = min(len(a), len(b))
        return [SymValue.UNKNOWN] * depth
    return [SymValue.join(x, y) for x, y in zip(a, b)]


def _join_envs(
    a: Optional[Dict[str, SymValue]], b: Dict[str, SymValue]
) -> Dict[str, SymValue]:
    if a is None:
        return dict(b)
    merged: Dict[str, SymValue] = {}
    for name in set(a) | set(b):
        if name in a and name in b:
            merged[name] = SymValue.join(a[name], b[name])
        else:
            merged[name] = SymValue.UNKNOWN
    return merged


def extract_access_sites(func: WasmFunction) -> List[IRAccessSite]:
    """All storage access sites of ``func`` with back-traced operands.

    Runs the symbolic transfer to a fixpoint over the CFG (the lattice is
    shallow: any disagreement collapses to unknown), then records sites in
    a final pass so every site sees the stable environment.
    """
    cfg = build_cfg(func)
    loop_blocks = cfg.loop_blocks()
    params = set(func.params)

    entry_stacks: Dict[int, Optional[List[SymValue]]] = {cfg.entry: []}
    entry_envs: Dict[int, Optional[Dict[str, SymValue]]] = {
        cfg.entry: {p: SymValue("param", p) for p in func.params}
    }

    for _pass in range(_MAX_PASSES):
        changed = False
        for block in cfg.blocks:
            if block.index not in entry_stacks:
                continue
            env = dict(entry_envs[block.index])
            exit_stack = _transfer(
                block, entry_stacks[block.index], env, params, None, loop_blocks
            )
            for s in block.succs:
                # Keep-jump operands are already left on the exit stack by
                # _transfer, so both arms see them.
                new_stack = _join_stacks(entry_stacks.get(s), list(exit_stack))
                new_env = _join_envs(entry_envs.get(s), env)
                if new_stack != entry_stacks.get(s) or new_env != entry_envs.get(s):
                    entry_stacks[s] = new_stack
                    entry_envs[s] = new_env
                    changed = True
        if not changed:
            break

    sites: Dict[int, IRAccessSite] = {}
    for block in cfg.blocks:
        if block.index not in entry_stacks:
            continue  # unreachable
        env = dict(entry_envs[block.index])
        _transfer(block, entry_stacks[block.index], env, params, sites, loop_blocks)
    return [sites[pc] for pc in sorted(sites)]


# -- three-way cross-validation ----------------------------------------------


@dataclass
class CrossValidation:
    """Agreement report between the IR extractor, the AST symbolic
    executor, and the sliced f^rw."""

    function: str
    consistent: bool
    discrepancies: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "consistent": self.consistent,
            "discrepancies": list(self.discrepancies),
        }


def _tables(sites: Sequence[IRAccessSite], kind: str) -> Set[str]:
    return {s.table for s in sites if s.kind == kind and s.table is not None}


def cross_validate(
    f: WasmFunction,
    frw: Optional[WasmFunction],
    symbolic_report,
) -> CrossValidation:
    """Check that three engines tell the same story about one function:
    the IR extractor over ``f``, the AST symbolic executor's report, and
    the slice ``frw``.

    The engines have different precision (the symbolic executor
    enumerates feasible paths; the IR extractor sees every reachable
    opcode), so the checks are containment/flag checks, not set equality
    on sites: any violation is a genuine engine bug.
    """
    problems: List[str] = []
    ir_sites = extract_access_sites(f)

    # 1. Tables: the symbolic executor only reports feasible-path sites,
    #    so its table sets must be contained in the IR's (opaque IR tables
    #    make the IR side unbounded, so skip when any table is opaque).
    if all(s.table is not None for s in ir_sites):
        sym_reads = {site.table for site in symbolic_report.reads}
        sym_writes = {site.table for site in symbolic_report.writes}
        if not sym_reads <= _tables(ir_sites, "read"):
            problems.append(
                f"symbolic read tables {sorted(sym_reads)} not covered by "
                f"IR read tables {sorted(_tables(ir_sites, 'read'))}"
            )
        if not sym_writes <= _tables(ir_sites, "write"):
            problems.append(
                f"symbolic write tables {sorted(sym_writes)} not covered by "
                f"IR write tables {sorted(_tables(ir_sites, 'write'))}"
            )

    # 2. The f^rw must touch a subset of f's tables (slicing only
    #    removes code) and must preserve the write sites' tables exactly.
    if frw is not None:
        frw_sites = extract_access_sites(frw)
        if all(s.table is not None for s in ir_sites):
            f_tables = _tables(ir_sites, "read") | _tables(ir_sites, "write")
            frw_tables = {s.table for s in frw_sites if s.table is not None}
            if not frw_tables <= f_tables:
                problems.append(
                    f"f^rw touches tables {sorted(frw_tables - f_tables)} "
                    f"absent from f"
                )
        if _tables(frw_sites, "write") != _tables(ir_sites, "write") and all(
            s.table is not None for s in ir_sites
        ):
            problems.append(
                f"f^rw write tables {sorted(_tables(frw_sites, 'write'))} != "
                f"f write tables {sorted(_tables(ir_sites, 'write'))}"
            )

    return CrossValidation(
        function=f.name, consistent=not problems, discrepancies=problems
    )
