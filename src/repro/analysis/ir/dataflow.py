"""Generic worklist dataflow solver plus the classic analyses.

The solver is direction-agnostic: an analysis declares ``forward`` or
``backward``, a boundary fact, a top element, a meet and a per-block
transfer function, and :func:`solve` iterates to the fixpoint.  There is
no iteration cap: an analysis whose lattice has infinite ascending chains
must widen inside its transfer.

Instances provided:

* :class:`ReachingDefinitions` — forward, may; which ``STORE`` sites can
  reach each block.
* :class:`Liveness` — backward, may; which locals may still be loaded.
* :class:`~repro.analysis.ir.access.KeyShapeAnalysis` — forward; the
  symbolic term and integer interval of every stack slot and local,
  which say which table and key each storage access touches.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Tuple

from ...wasm.ir import Op
from .cfg import CFG, BasicBlock

__all__ = [
    "DataflowAnalysis",
    "solve",
    "ReachingDefinitions",
    "Liveness",
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
        worklist = list(range(n))
        while worklist:
            b = worklist.pop(0)
            block = cfg.blocks[b]
            # The entry meets its boundary with any back edge into it (a
            # function that opens with a ``while`` loop).
            fact = boundary if b == cfg.entry else top
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
