"""Control-flow graph over a wasm-lite instruction stream.

The compiler (:mod:`repro.wasm.compiler`) emits a flat instruction vector
with absolute-pc jump targets; this module recovers the block structure the
dataflow analyses and the optimizer need: basic blocks, successor /
predecessor edges, dominators, post-dominators and natural-loop
membership.

One wasm-lite wrinkle matters here: the keep-variants of the conditional
jumps (``jifk`` / ``jitk``, emitted for ``and`` / ``or`` chains) *peek* at
the top of stack instead of popping it, so a value can be live on the
operand stack **across block boundaries**.  Block-local stack reasoning in
the optimizer therefore treats the entry stack as opaque; the CFG records
which edges carry such values only implicitly (via the opcode of the
terminator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...errors import AnalysisError
from ...wasm.intrinsics import lookup
from ...wasm.ir import Instr, Op, WasmFunction

__all__ = ["BasicBlock", "CFG", "build_cfg", "stack_effect", "static_gas"]

#: Opcodes that transfer control (operand = absolute target pc).
JUMP_OPS = {
    Op.JUMP,
    Op.JUMP_IF_FALSE,
    Op.JUMP_IF_TRUE,
    Op.JUMP_IF_FALSE_KEEP,
    Op.JUMP_IF_TRUE_KEEP,
}

#: Conditional jumps: fall through as well as jump.
COND_JUMP_OPS = JUMP_OPS - {Op.JUMP}


def stack_effect(instr: Instr) -> Tuple[int, int]:
    """(values popped, values pushed) by one instruction.  The keep-jumps
    peek and count as (0, 0); ``DUP`` is the caller's to model."""
    op, arg = instr.op, instr.arg
    if op in (Op.PUSH, Op.LOAD):
        return 0, 1
    if op in (Op.STORE, Op.POP, Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE, Op.RETURN):
        return 1, 0
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


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start`` is the pc of the first instruction in the original stream;
    ``instrs`` the instructions themselves (terminator included).
    """

    index: int
    start: int
    instrs: List[Instr]
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        """pc one past the last instruction."""
        return self.start + len(self.instrs)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def pcs(self):
        """Iterate (pc, instr) pairs."""
        for offset, instr in enumerate(self.instrs):
            yield self.start + offset, instr


class CFG:
    """Blocks plus edges for one function; entry is always block 0."""

    def __init__(self, func: WasmFunction, blocks: List[BasicBlock]):
        self.func = func
        self.blocks = blocks
        self._block_at: Dict[int, int] = {b.start: b.index for b in blocks}

    @property
    def entry(self) -> int:
        return 0

    def block_at(self, pc: int) -> int:
        """Index of the block starting at ``pc`` (must be a leader)."""
        try:
            return self._block_at[pc]
        except KeyError:
            raise AnalysisError(
                f"{self.func.name}: pc {pc} is not a basic-block leader"
            ) from None

    def reachable(self) -> Set[int]:
        """Block indices reachable from the entry."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(self.blocks[b].succs)
        return seen

    def dominators(self) -> List[Set[int]]:
        """dom[b] = set of blocks dominating b (iterative dataflow).

        Unreachable blocks get the full set (vacuous truth), matching the
        textbook initialisation.
        """
        return self._dominance([self.entry], lambda b: self.blocks[b].preds)

    def post_dominators(self) -> List[Set[int]]:
        """pdom[b] = set of blocks on every path from b to a return — the
        reverse of :meth:`dominators`, rooted at every exit block.  Blocks
        that cannot reach a return get the full set."""
        exits = [b.index for b in self.blocks if not b.succs]
        return self._dominance(exits, lambda b: self.blocks[b].succs)

    def immediate_post_dominators(self) -> List[Optional[int]]:
        """ipdom[b] = the nearest strict post-dominator of b, or None when
        b's paths share no block before the function returns."""
        pdom = self.post_dominators()
        out: List[Optional[int]] = []
        for b, doms in enumerate(pdom):
            strict = doms - {b}
            out.append(next((d for d in sorted(strict) if pdom[d] == strict), None))
        return out

    def _dominance(self, roots: List[int], edges_in) -> List[Set[int]]:
        n = len(self.blocks)
        everything = set(range(n))
        dom: List[Set[int]] = [everything.copy() for _ in range(n)]
        for r in roots:
            dom[r] = {r}
        changed = True
        while changed:
            changed = False
            for b in range(n):
                if b in roots:
                    continue
                new = everything.copy()
                for p in edges_in(b):
                    new &= dom[p]
                new.add(b)
                if new != dom[b]:
                    dom[b] = new
                    changed = True
        return dom

    def back_edges(self) -> List[Tuple[int, int]]:
        """Edges (u, v) where v dominates u — each closes a natural loop."""
        dom = self.dominators()
        reach = self.reachable()
        edges = []
        for b in self.blocks:
            if b.index not in reach:
                continue
            for s in b.succs:
                if s in dom[b.index]:
                    edges.append((b.index, s))
        return edges

    def loop_blocks(self) -> Set[int]:
        """Blocks belonging to some natural loop (an instruction here may
        execute more than once per invocation)."""
        members: Set[int] = set()
        for tail, header in self.back_edges():
            members.add(header)
            stack = [tail]
            while stack:
                b = stack.pop()
                if b in members:
                    continue
                members.add(b)
                stack.extend(self.blocks[b].preds)
        return members


def build_cfg(func: WasmFunction) -> CFG:
    """Split ``func``'s instruction vector into basic blocks and wire edges."""
    code = func.instructions
    n = len(code)
    if n == 0:
        raise AnalysisError(f"{func.name}: empty instruction stream")

    leaders: Set[int] = {0}
    for pc, instr in enumerate(code):
        if instr.op in JUMP_OPS:
            target = instr.arg
            if not isinstance(target, int) or not (0 <= target < n):
                raise AnalysisError(
                    f"{func.name}: jump at pc {pc} targets invalid pc {target!r}"
                )
            leaders.add(target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif instr.op == Op.RETURN and pc + 1 < n:
            leaders.add(pc + 1)

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else n
        blocks.append(BasicBlock(index=index, start=start, instrs=list(code[start:end])))

    cfg = CFG(func, blocks)
    for block in blocks:
        term = block.terminator
        if term.op == Op.RETURN:
            succs: List[int] = []
        elif term.op == Op.JUMP:
            succs = [cfg.block_at(term.arg)]
        elif term.op in COND_JUMP_OPS:
            if block.end >= n:
                raise AnalysisError(
                    f"{func.name}: conditional jump at pc {block.end - 1} "
                    f"falls off the end of the code"
                )
            succs = [cfg.block_at(block.end), cfg.block_at(term.arg)]
        else:
            # Plain fallthrough into the next leader (or off the end, which
            # the VM would trap on — surface it as an analysis error).
            if block.end >= n:
                raise AnalysisError(
                    f"{func.name}: block at pc {block.start} falls off the end"
                )
            succs = [cfg.block_at(block.end)]
        block.succs = succs
    for block in blocks:
        for s in block.succs:
            if block.index not in blocks[s].preds:
                blocks[s].preds.append(block.index)
    return cfg


def static_gas(func: WasmFunction) -> int:
    """Gas-weighted size of an instruction stream.

    Every instruction costs 1 gas; intrinsics additionally charge their
    declared cost, and a ``busy(n)`` call with a literal amount charges
    ``n`` — statically recoverable because the compiler emits
    ``PUSH n; CALL ('busy', 1)``.  Data-dependent extra gas (``len``-scaled
    builtins, method costs) is not statically known and is weighted as the
    base 1.  This is the denominator/numerator of the IR-level
    ``slice_ratio`` (Table 1's size column analogue).
    """
    total = 0
    prev: Instr = Instr(Op.RETURN)
    for instr in func.instructions:
        total += 1
        if instr.op == Op.INTRINSIC:
            name, _argc = instr.arg
            total += lookup(name).cost
        elif instr.op == Op.CALL:
            name, argc = instr.arg
            if name == "busy" and argc == 1 and prev.op == Op.PUSH and isinstance(prev.arg, int):
                total += max(0, prev.arg)
        prev = instr
    return total
