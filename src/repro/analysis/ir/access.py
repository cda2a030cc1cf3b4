"""Storage access sites, and the one abstract interpreter that finds them.

:class:`KeyShapeAnalysis` is a forward
:class:`~repro.analysis.ir.dataflow.DataflowAnalysis` that
:func:`~repro.analysis.ir.dataflow.solve` runs over the CFG.  Every stack
slot and local in its facts holds a pair:

* a :class:`SymValue` — constant, parameter, local, an f-string
  concatenation of those, or a value read from storage — which says *what
  shape of key* an access touches, and
* an integer interval (the ``_iv_*`` values), which bounds keys of the
  form ``prefix + str(i)`` when ``i`` is provably confined to a finite
  range (the ``int(x) % c`` sharding idiom).

When a ``DB_GET`` / ``DB_PUT`` / ``RW_READ`` / ``RW_WRITE`` opcode pops its
(table, key) operands, :func:`extract_access_sites` reports the table,
the key's shape and, when the interval half bounds it, the key's span —
straight from the artifact the VM executes.  :func:`cross_validate`
checks the sites against the AST symbolic executor's report and the
sliced f^rw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Set, Tuple

from ...wasm.ir import Op, WasmFunction
from .cfg import CFG, BasicBlock, build_cfg, stack_effect
from .dataflow import DataflowAnalysis, solve

__all__ = [
    "SymValue",
    "IRAccessSite",
    "KeyShapeAnalysis",
    "CrossValidation",
    "extract_access_sites",
    "cross_validate",
]

def _is_const(value: Any) -> bool:
    """May a ``const`` SymValue carry ``value``?  Lists and dicts are
    mutable and never constant; tuples of constants are fine."""
    if isinstance(value, tuple):
        return all(map(_is_const, value))
    return isinstance(value, (str, int, float, bool, type(None)))


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
    #: ``(prefix, lo, hi)`` when the key is provably ``prefix + str(i)``
    #: with ``lo <= i <= hi``.
    span: Optional[Tuple[str, int, int]] = None

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


def _format_of(parts: List[SymValue]) -> SymValue:
    """Symbolic result of ``FORMAT``: a constant when every part is one,
    else the flattened concatenation."""
    if all(p.kind == "const" for p in parts):
        return SymValue.const("".join(str(p.payload) for p in parts))
    flat: List[SymValue] = []
    for p in parts:
        flat.extend(p.payload if p.kind == "format" else (p,))
    return SymValue("format", tuple(flat))


# -- the interval half --------------------------------------------------------

#: Interval values are small tagged tuples:
#:   ("int", lo, hi)          integer interval; a ``None`` bound is unbounded
#:   ("str", s)               exactly the string ``s``
#:   ("key", prefix, lo, hi)  the string ``prefix + str(i)`` for some
#:                            ``lo <= i <= hi`` (both bounds finite)
#:   IV_TOP                   any value at all
IV_TOP = ("top",)


def _iv_of_const(value: Any) -> Tuple:
    if isinstance(value, bool):
        return ("int", int(value), int(value))
    if isinstance(value, int):
        return ("int", value, value)
    if isinstance(value, str):
        return ("str", value)
    return IV_TOP


def _iv_join(a: Tuple, b: Tuple) -> Tuple:
    if a == b:
        return a
    if a[0] == "int" and b[0] == "int":
        lo = None if a[1] is None or b[1] is None else min(a[1], b[1])
        hi = None if a[2] is None or b[2] is None else max(a[2], b[2])
        return ("int", lo, hi)
    return IV_TOP


def _iv_widen(prev: Tuple, new: Tuple) -> Tuple:
    """``prev ∇ new``: keep bounds that stopped moving, jump growing ones
    straight to unbounded.  Guarantees finite ascending chains, which the
    interval lattice alone does not."""
    if prev == new:
        return new
    if prev[0] != "int" or new[0] != "int":
        return IV_TOP
    lo = prev[1] if prev[1] is not None and new[1] is not None and new[1] >= prev[1] else None
    hi = prev[2] if prev[2] is not None and new[2] is not None and new[2] <= prev[2] else None
    return ("int", lo, hi)


def _iv_binop(op: str, lhs: Tuple, rhs: Tuple) -> Tuple:
    if op == "+" and lhs[0] == "str" and rhs[0] == "str":
        return ("str", lhs[1] + rhs[1])
    if lhs[0] != "int" or rhs[0] != "int":
        return IV_TOP
    a_lo, a_hi, b_lo, b_hi = lhs[1], lhs[2], rhs[1], rhs[2]
    if op == "%":
        # Python's % with a positive divisor lands in [0, c) regardless of
        # the dividend's sign; lhs must be a known int (a float dividend
        # would yield a fractional result).
        if b_lo is not None and b_lo == b_hi and b_lo > 0:
            return ("int", 0, b_lo - 1)
        return IV_TOP
    if op == "+":
        return (
            "int",
            None if a_lo is None or b_lo is None else a_lo + b_lo,
            None if a_hi is None or b_hi is None else a_hi + b_hi,
        )
    if op == "-":
        return (
            "int",
            None if a_lo is None or b_hi is None else a_lo - b_hi,
            None if a_hi is None or b_lo is None else a_hi - b_lo,
        )
    if op == "*":
        if None in (a_lo, a_hi, b_lo, b_hi):
            return IV_TOP
        products = [a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi]
        return ("int", min(products), max(products))
    if op == "//" and b_lo is not None and b_lo == b_hi and b_lo > 0:
        return (
            "int",
            None if a_lo is None else a_lo // b_lo,
            None if a_hi is None else a_hi // b_lo,
        )
    return IV_TOP


def _iv_neg(value: Tuple) -> Tuple:
    if value[0] != "int":
        return IV_TOP
    return ("int", None if value[2] is None else -value[2], None if value[1] is None else -value[1])


def _iv_format(parts: List[Tuple]) -> Tuple:
    """FORMAT over interval parts: constant pieces accumulate into a
    prefix; a trailing finite int interval makes the result a key span."""
    prefix: List[str] = []
    for i, p in enumerate(parts):
        if p[0] == "str":
            prefix.append(p[1])
        elif p[0] == "int" and p[1] is not None and p[2] is not None:
            if i == len(parts) - 1:
                return ("key", "".join(prefix), p[1], p[2])
            if p[1] == p[2]:
                prefix.append(str(p[1]))
            else:
                return IV_TOP
        else:
            return IV_TOP
    return ("str", "".join(prefix))


# -- the analysis -------------------------------------------------------------

#: One stack slot or local: its symbolic term and its interval.
Slot = Tuple[SymValue, Tuple]
_UNKNOWN: Slot = (SymValue.UNKNOWN, IV_TOP)


class KeyShapeAnalysis(DataflowAnalysis):
    """Forward key-shape analysis: which table and which key every
    storage access touches.

    A fact is ``None`` for a block not (yet) reached, else a pair
    ``(stack, env)``: the operand stack at block entry as a tuple of
    :data:`Slot` s, and the locals as a tuple of ``(name, slot)`` sorted
    by name, so equality and the meet never depend on set iteration order.
    Stacks are carried across edges, so a value pushed on one arm of a
    conditional expression (or left by a keep-jump) reaches the join.

    The meet joins both halves slot by slot.  A local assigned on only
    one incoming path has no symbolic term there (``unknown``) and keeps
    that path's interval, since loading it on the other path traps.

    Termination comes from the lattice, not from a pass cap:

    * The symbolic half has finite height: two values that differ join to
      ``unknown``, except a ``dbread``/``incr`` joined with a ``const``,
      which keeps the read.  So a slot can change at most twice.  The
      transfer is not monotone in it, though (a read's key can nest the
      previous iteration's read), so a loop block joins each revisit's
      in-fact into its previous one: the chain only ascends.
    * The interval half has unbounded chains, so a loop block *widens*
      each revisit's intervals against its previous in-fact
      (:func:`_iv_widen`).  Branch joins outside loops stay precise.

    Every cycle of a compiled function passes through a loop block, so
    the solve terminates.  Instances are single-use per :func:`solve`
    call: the transfer keeps each loop block's previous in-fact.
    """

    forward = True

    def __init__(self, cfg: CFG) -> None:
        self._params = frozenset(cfg.func.params)
        self._loop_blocks = cfg.loop_blocks()
        self._prev_in: Dict[int, Tuple] = {}

    def boundary(self, cfg: CFG) -> Tuple:
        return ((), tuple(sorted((p, (SymValue("param", p), IV_TOP)) for p in self._params)))

    def top(self, cfg: CFG) -> None:
        return None

    def meet(self, a: Optional[Tuple], b: Optional[Tuple]) -> Optional[Tuple]:
        if a is None:
            return b
        if b is None:
            return a
        return self._combine(a, b, _iv_join)

    def transfer(self, cfg: CFG, block: BasicBlock, fact: Optional[Tuple]) -> Optional[Tuple]:
        if fact is None:
            return None
        if block.index in self._loop_blocks:
            prev = self._prev_in.get(block.index)
            if prev is not None:
                fact = self._combine(prev, fact, _iv_widen)
            self._prev_in[block.index] = fact
        return self.walk(block, fact)

    @staticmethod
    def _combine(a: Tuple, b: Tuple, interval_op) -> Tuple:
        """Merge two facts slot by slot: join the symbolic halves, and
        merge the interval halves with ``interval_op`` (join or widen)."""

        def slot(x: Slot, y: Slot) -> Slot:
            return (SymValue.join(x[0], y[0]), interval_op(x[1], y[1]))

        (stack_a, env_a), (stack_b, env_b) = a, b
        if len(stack_a) == len(stack_b):
            stack = tuple(map(slot, stack_a, stack_b))
        else:  # ill-balanced join (never produced by the compiler): collapse
            stack = (_UNKNOWN,) * min(len(stack_a), len(stack_b))
        left, right = dict(env_a), dict(env_b)
        env = {}
        for name in left.keys() | right.keys():
            if name in left and name in right:
                env[name] = slot(left[name], right[name])
            else:
                env[name] = (SymValue.UNKNOWN, left.get(name, right.get(name))[1])
        return (stack, tuple(sorted(env.items())))

    def walk(self, block: BasicBlock, fact: Tuple, sites: Optional[List[IRAccessSite]] = None) -> Tuple:
        """Interpret ``block`` from ``fact``; return the exit fact.

        With ``sites``, append an :class:`IRAccessSite` for every access
        opcode.  The keep-variants of the conditional jumps leave their
        operand on the exit stack, so both successors see it.
        """
        stack, env = list(fact[0]), dict(fact[1])

        def pop() -> Slot:
            return stack.pop() if stack else _UNKNOWN

        def popn(n: int) -> List[Slot]:
            return [pop() for _ in range(n)][::-1]

        for pc, instr in block.pcs():
            op, arg = instr.op, instr.arg
            if op == Op.PUSH:
                sym = SymValue.const(arg) if _is_const(arg) else SymValue.UNKNOWN
                stack.append((sym, _iv_of_const(arg)))
            elif op == Op.LOAD:
                kind = "param" if arg in self._params else "local"
                stack.append(env.get(arg) or (SymValue(kind, arg), IV_TOP))
            elif op == Op.STORE:
                env[arg] = pop()
            elif op == Op.DUP:
                dup = pop()
                stack += [dup, dup]
            elif op == Op.FORMAT:
                parts = popn(arg)
                stack.append((_format_of([p[0] for p in parts]), _iv_format([p[1] for p in parts])))
            elif op in _ACCESS_OPS:
                value = pop()[0] if op == Op.DB_PUT else None  # the written operand
                key, table = pop(), pop()
                if sites is not None:
                    sites.append(IRAccessSite(
                        pc=pc,
                        opcode=op,
                        kind=_ACCESS_OPS[op],
                        table=str(table[0].payload) if table[0].is_concrete() else None,
                        key=key[0],
                        in_loop=block.index in self._loop_blocks,
                        value=value,
                        span=key[1][1:] if key[1][0] == "key" else None,
                    ))
                # The read result is a pure function of its (table, key)
                # site — remember that so the commutative-write classifier
                # can recognise read-modify-write increments.
                sym = SymValue("dbread", (table[0], key[0])) if op in _READ_OPS else SymValue.UNKNOWN
                stack.append((sym, IV_TOP))
            elif op == Op.BINOP:
                rhs, lhs = pop(), pop()
                sym = _incr_of(lhs[0], rhs[0]) if arg == "+" else SymValue.UNKNOWN
                stack.append((sym, _iv_binop(arg, lhs[1], rhs[1])))
            elif op == Op.UNARY:
                operand = pop()
                stack.append((SymValue.UNKNOWN, _iv_neg(operand[1]) if arg == "-" else IV_TOP))
            elif op == Op.CALL and arg == ("int", 1):
                # int() always yields an integer (or the VM traps before
                # any access happens) — the hook that lets ``int(x) % c``
                # bound otherwise-opaque request arguments.
                operand = pop()
                iv = operand[1] if operand[1][0] == "int" else ("int", None, None)
                stack.append((SymValue.UNKNOWN, iv))
            else:
                pops, pushes = stack_effect(instr)
                popn(pops)
                stack.extend([_UNKNOWN] * pushes)
        return (tuple(stack), tuple(sorted(env.items())))


def extract_access_sites(func: WasmFunction) -> List[IRAccessSite]:
    """All storage access sites of ``func`` with back-traced operands.

    Solves :class:`KeyShapeAnalysis` over the CFG, then records sites in
    one more walk of every reachable block from its solved in-fact.
    """
    cfg = build_cfg(func)
    analysis = KeyShapeAnalysis(cfg)
    in_facts, _ = solve(cfg, analysis)
    sites: List[IRAccessSite] = []
    for block in cfg.blocks:
        if in_facts[block.index] is not None:
            analysis.walk(block, in_facts[block.index], sites)
    return sites


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
    return {s.table for s in sites if s.kind == kind}


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
    on sites: any violation is a genuine engine bug.  An opaque IR table
    makes the IR side unbounded, so then nothing is checked.
    """
    problems: List[str] = []
    ir_sites = extract_access_sites(f)
    if any(s.table is None for s in ir_sites):
        return CrossValidation(function=f.name, consistent=True, discrepancies=[])
    f_reads, f_writes = _tables(ir_sites, "read"), _tables(ir_sites, "write")

    # 1. Tables: the symbolic executor only reports feasible-path sites,
    #    so its table sets must be contained in the IR's.
    sym_reads = {site.table for site in symbolic_report.reads}
    sym_writes = {site.table for site in symbolic_report.writes}
    if not sym_reads <= f_reads:
        problems.append(
            f"symbolic read tables {sorted(sym_reads)} not covered by "
            f"IR read tables {sorted(f_reads)}"
        )
    if not sym_writes <= f_writes:
        problems.append(
            f"symbolic write tables {sorted(sym_writes)} not covered by "
            f"IR write tables {sorted(f_writes)}"
        )

    # 2. The f^rw must touch a subset of f's tables (slicing only
    #    removes code) and must preserve the write sites' tables exactly.
    if frw is not None:
        frw_sites = extract_access_sites(frw)
        frw_tables = {s.table for s in frw_sites if s.table is not None}
        if not frw_tables <= f_reads | f_writes:
            problems.append(
                f"f^rw touches tables {sorted(frw_tables - (f_reads | f_writes))} "
                f"absent from f"
            )
        frw_writes = {s.table for s in frw_sites if s.kind == "write" and s.table is not None}
        if frw_writes != f_writes:
            problems.append(
                f"f^rw write tables {sorted(frw_writes)} != "
                f"f write tables {sorted(f_writes)}"
            )

    return CrossValidation(
        function=f.name, consistent=not problems, discrepancies=problems
    )
