"""Generic worklist dataflow solver plus the classic analyses.

The solver is direction-agnostic: an analysis declares ``forward`` or
``backward``, a boundary fact, a top element, a meet and a per-block
transfer function, and :func:`solve` iterates to the (unique, because all
lattices here are finite) fixpoint.

Instances provided:

* :class:`ReachingDefinitions` — forward, may; which ``STORE`` sites can
  reach each block.
* :class:`Liveness` — backward, may; which locals may still be loaded.
* :class:`IntervalAnalysis` — forward integer-interval propagation over
  locals (with loop-head widening, since the interval lattice has
  unbounded chains); :func:`access_key_intervals` uses it to bound keys
  of the form ``prefix + str(i)`` where ``i`` is provably confined to a
  finite range (the ``int(x) % c`` sharding idiom).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ...wasm.ir import Op, WasmFunction
from .cfg import CFG, BasicBlock, build_cfg, stack_effect

__all__ = [
    "DataflowAnalysis",
    "solve",
    "ReachingDefinitions",
    "Liveness",
    "IntervalAnalysis",
    "IV_TOP",
    "access_key_intervals",
]


class DataflowAnalysis:
    """Interface a concrete analysis implements for :func:`solve`."""

    forward: bool = True

    def boundary(self, cfg: CFG) -> Any:
        """Fact at the entry (forward) or at every exit block (backward)."""
        raise NotImplementedError

    def top(self, cfg: CFG) -> Any:
        """Initial interior fact — the meet identity."""
        raise NotImplementedError

    def meet(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, cfg: CFG, block: BasicBlock, fact: Any) -> Any:
        """Push ``fact`` through ``block`` (in its dataflow direction)."""
        raise NotImplementedError


def solve(cfg: CFG, analysis: DataflowAnalysis) -> Tuple[List[Any], List[Any]]:
    """Run ``analysis`` to fixpoint; returns (in_facts, out_facts) per block.

    For a backward analysis the pair is still (in, out) in *control-flow*
    orientation: ``in_facts[b]`` holds at block entry, ``out_facts[b]`` at
    block exit.
    """
    n = len(cfg.blocks)
    top = analysis.top(cfg)
    boundary = analysis.boundary(cfg)
    in_facts: List[Any] = [top] * n
    out_facts: List[Any] = [top] * n

    if analysis.forward:
        in_facts[cfg.entry] = boundary
        worklist = list(range(n))
        while worklist:
            b = worklist.pop(0)
            block = cfg.blocks[b]
            if b != cfg.entry:
                fact = top
                for p in block.preds:
                    fact = analysis.meet(fact, out_facts[p])
                in_facts[b] = fact
            new_out = analysis.transfer(cfg, block, in_facts[b])
            if new_out != out_facts[b]:
                out_facts[b] = new_out
                for s in block.succs:
                    if s not in worklist:
                        worklist.append(s)
        return in_facts, out_facts

    # Backward: seed every exit block (no successors) with the boundary.
    for b, block in enumerate(cfg.blocks):
        if not block.succs:
            out_facts[b] = boundary
    worklist = list(range(n))
    while worklist:
        b = worklist.pop(0)
        block = cfg.blocks[b]
        if block.succs:
            fact = top
            for s in block.succs:
                fact = analysis.meet(fact, in_facts[s])
            out_facts[b] = fact
        new_in = analysis.transfer(cfg, block, out_facts[b])
        if new_in != in_facts[b]:
            in_facts[b] = new_in
            for p in block.preds:
                if p not in worklist:
                    worklist.append(p)
    return in_facts, out_facts


# -- reaching definitions ----------------------------------------------------

#: A definition site: (variable, pc).  Parameters use pc -1-i.
DefSite = Tuple[str, int]


class ReachingDefinitions(DataflowAnalysis):
    """Forward may-analysis: which STORE sites reach each program point."""

    forward = True

    def boundary(self, cfg: CFG) -> FrozenSet[DefSite]:
        return frozenset((p, -1 - i) for i, p in enumerate(cfg.func.params))

    def top(self, cfg: CFG) -> FrozenSet[DefSite]:
        return frozenset()

    def meet(self, a: FrozenSet[DefSite], b: FrozenSet[DefSite]) -> FrozenSet[DefSite]:
        return a | b

    def transfer(self, cfg: CFG, block: BasicBlock, fact: FrozenSet[DefSite]) -> FrozenSet[DefSite]:
        defs = dict()
        for pc, instr in block.pcs():
            if instr.op == Op.STORE:
                defs[instr.arg] = pc
        killed_vars = set(defs)
        survivors = {d for d in fact if d[0] not in killed_vars}
        survivors.update((var, pc) for var, pc in defs.items())
        return frozenset(survivors)


# -- liveness ----------------------------------------------------------------


class Liveness(DataflowAnalysis):
    """Backward may-analysis over local variables (LOAD = use, STORE = def)."""

    forward = False

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        return frozenset()

    def top(self, cfg: CFG) -> FrozenSet[str]:
        return frozenset()

    def meet(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(self, cfg: CFG, block: BasicBlock, fact: FrozenSet[str]) -> FrozenSet[str]:
        live = set(fact)
        for instr in reversed(block.instrs):
            if instr.op == Op.STORE:
                live.discard(instr.arg)
            elif instr.op == Op.LOAD:
                live.add(instr.arg)
        return frozenset(live)


# -- interval analysis -------------------------------------------------------

#: Abstract values are small tagged tuples:
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


def _iv_format(parts: List[Tuple]) -> Tuple:
    """FORMAT over abstract parts: constant pieces accumulate into a
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


def _interval_walk(block: BasicBlock, env: Dict[str, Tuple], record) -> None:
    """Interval-abstract interpretation of one block, mutating ``env``.

    ``record(pc, keyspan)`` is invoked for every storage access whose key
    operand is a ``("key", prefix, lo, hi)`` span (``None`` to skip)."""
    stack: List[Tuple] = []

    def pop() -> Tuple:
        return stack.pop() if stack else IV_TOP

    def popn(n: int) -> List[Tuple]:
        return [pop() for _ in range(n)][::-1]

    def access(pc: int, extra: int) -> None:
        if extra:
            pop()
        key = pop()
        pop()  # table
        if record is not None and key[0] == "key":
            record(pc, key)
        stack.append(IV_TOP)

    for pc, instr in block.pcs():
        op = instr.op
        if op == Op.PUSH:
            stack.append(_iv_of_const(instr.arg))
        elif op == Op.LOAD:
            stack.append(env.get(instr.arg, IV_TOP))
        elif op == Op.STORE:
            env[instr.arg] = pop()
        elif op == Op.POP:
            pop()
        elif op == Op.DUP:
            stack.append(stack[-1] if stack else IV_TOP)
        elif op == Op.BINOP:
            rhs, lhs = pop(), pop()
            stack.append(_iv_binop(instr.arg, lhs, rhs))
        elif op == Op.UNARY:
            v = pop()
            if instr.arg == "-" and v[0] == "int":
                lo = None if v[2] is None else -v[2]
                hi = None if v[1] is None else -v[1]
                stack.append(("int", lo, hi))
            else:
                stack.append(IV_TOP)
        elif op == Op.FORMAT:
            stack.append(_iv_format(popn(instr.arg)))
        elif op in (Op.DB_GET, Op.RW_READ, Op.RW_WRITE):
            access(pc, 0)
        elif op == Op.DB_PUT:
            access(pc, 1)
        elif op in (Op.CALL, Op.INTRINSIC):
            name, argc = instr.arg
            args = popn(argc)
            if op == Op.CALL and name == "int" and argc == 1:
                # int() always yields an integer (or the VM traps before
                # any access happens) — the hook that lets ``int(x) % c``
                # bound otherwise-opaque request arguments.
                stack.append(args[0] if args[0][0] == "int" else ("int", None, None))
            else:
                stack.append(IV_TOP)
        else:
            pops, pushes = stack_effect(instr)
            popn(pops)
            stack.extend([IV_TOP] * pushes)


class IntervalAnalysis(DataflowAnalysis):
    """Forward interval propagation over locals.

    A fact maps variable name -> abstract value (absent = unassigned).  Instances are single-use per :func:`solve`
    call: the transfer function keeps a per-block memo of the previous
    in-fact and applies :func:`_iv_widen` on every revisit of a block
    inside a loop, so the fixpoint terminates even though the interval
    lattice has infinite ascending chains.  Branch joins outside loops
    stay precise (plain interval hull).
    """

    forward = True

    def __init__(self) -> None:
        self._prev_in: Dict[int, Dict[str, Tuple]] = {}
        self._loop_blocks: Optional[set] = None

    def boundary(self, cfg: CFG) -> Dict[str, Tuple]:
        return {p: IV_TOP for p in cfg.func.params}

    def top(self, cfg: CFG) -> Dict[str, Tuple]:
        return {}

    def meet(self, a: Dict[str, Tuple], b: Dict[str, Tuple]) -> Dict[str, Tuple]:
        if not a:
            return dict(b)
        if not b:
            return dict(a)
        merged: Dict[str, Tuple] = {}
        for var in set(a) | set(b):
            if var not in a:
                merged[var] = b[var]
            elif var not in b:
                merged[var] = a[var]
            else:
                merged[var] = _iv_join(a[var], b[var])
        return merged

    def transfer(self, cfg: CFG, block: BasicBlock, fact: Dict[str, Tuple]) -> Dict[str, Tuple]:
        if self._loop_blocks is None:
            self._loop_blocks = cfg.loop_blocks()
        if block.index in self._loop_blocks:
            prev = self._prev_in.get(block.index)
            if prev is not None:
                fact = {
                    var: _iv_widen(prev[var], iv) if var in prev else iv
                    for var, iv in fact.items()
                }
            self._prev_in[block.index] = dict(fact)
        env = dict(fact)
        _interval_walk(block, env, None)
        return env


def access_key_intervals(func: WasmFunction) -> Dict[int, Tuple[str, int, int]]:
    """Map access-site pc -> ``(prefix, lo, hi)`` for every storage access
    whose key is provably ``prefix + str(i)`` with ``lo <= i <= hi``.

    This is the interval complement to
    :func:`~repro.analysis.ir.access.extract_access_sites`: where the
    symbolic extractor reports an opaque ``{?}`` key part, the interval
    walk can still bound it to a finite key span (e.g. ``int(uid) % 8``
    sharding suffixes), which the conflict predicate turns into an
    interval constraint.
    """
    cfg = build_cfg(func)
    in_facts, _ = solve(cfg, IntervalAnalysis())
    spans: Dict[int, Tuple[str, int, int]] = {}

    def record(pc: int, key: Tuple) -> None:
        spans[pc] = (key[1], key[2], key[3])

    for block in cfg.blocks:
        _interval_walk(block, dict(in_facts[block.index]), record)
    return spans
