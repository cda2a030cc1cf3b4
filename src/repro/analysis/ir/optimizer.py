"""Executed-gas-non-increasing optimizer for compiled f^rw bodies.

Three classic passes run to fixpoint over the CFG:

* **constant folding / propagation** — constants flow through locals
  (:class:`~repro.analysis.ir.dataflow.ConstantLattice`) and the operand
  stack; foldable pure opcodes over constant operands collapse to ``PUSH``.
* **jump threading** — jump-to-jump chains collapse, conditional jumps
  with both arms equal or a compile-time-constant condition degrade to
  unconditional jumps, and unreachable blocks are dropped.
* **dead-code elimination** — liveness
  (:class:`~repro.analysis.ir.dataflow.Liveness`) turns dead ``STORE``\\ s
  into ``POP``\\ s, and a symbolic-stack pass cancels ``POP``\\ s against
  their side-effect-free, trap-free producers.

The invariant every pass preserves on **every** input: the optimized
function performs the same storage accesses in the same order, returns the
same result, traps iff the original traps, and executes at most as much
gas.  Deleting whole statements that cannot reach an access is the
slicer's job (:mod:`repro.analysis.ir.slice`), not the optimizer's.

Trap preservation is the subtle part — a ``LOAD`` of a local that may be
unbound, or a ``BINOP`` on ill-typed operands, is a *visible* effect (f^rw
failure falls back to near-storage execution), so POP-cancellation only
deletes producers proven trap-free: ``PUSH``/``DUP``, ``LOAD`` of a
definitely assigned local
(:class:`~repro.analysis.ir.dataflow.DefiniteAssignment`),
identity/equality compares, ``not``, and list/tuple construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ...wasm.ir import Instr, Op, WasmFunction
from .cfg import CFG, COND_JUMP_OPS, build_cfg, stack_effect, static_gas
from .dataflow import (
    NAC,
    ConstantLattice,
    DefiniteAssignment,
    Liveness,
    fold_arity,
    fold_instr,
    is_const_value,
    solve,
)

__all__ = ["OptimizationReport", "optimize"]

_MAX_ROUNDS = 10

#: COMPARE operators that can never trap on sandbox values.
_SAFE_COMPARES = {"==", "!=", "is", "is not"}

#: Conditional jumps that pop their condition (vs. the keep variants).
_POPPING_BRANCHES = {Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE}


@dataclass
class OptimizationReport:
    """What the optimizer did to one function."""

    function: str
    instrs_before: int
    instrs_after: int
    static_gas_before: int
    static_gas_after: int
    constants_folded: int = 0
    jumps_threaded: int = 0
    branches_removed: int = 0
    dead_instrs_removed: int = 0
    rounds: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "instrs_before": self.instrs_before,
            "instrs_after": self.instrs_after,
            "static_gas_before": self.static_gas_before,
            "static_gas_after": self.static_gas_after,
            "constants_folded": self.constants_folded,
            "jumps_threaded": self.jumps_threaded,
            "branches_removed": self.branches_removed,
            "dead_instrs_removed": self.dead_instrs_removed,
            "rounds": self.rounds,
        }


@dataclass
class _OptBlock:
    """A block under rewriting: instruction *slots* (a deleted instruction
    becomes an empty slot, a demoted one a multi-instruction slot) plus a
    symbolic terminator."""

    label: int
    slots: List[List[Instr]]
    # ("ret",) | ("jump", label) | ("branch", op, target_label, fall_label)
    term: Tuple


@dataclass
class _StackEntry:
    """One abstract operand-stack value during the forward scan."""

    value: Any = NAC
    slot: Optional[int] = None  # producing slot index, if produced in-block


def optimize(func: WasmFunction) -> Tuple[WasmFunction, OptimizationReport]:
    """Optimize ``func`` (typically an f^rw body); returns the rewritten
    function plus a report.  The input is never mutated."""
    report = OptimizationReport(
        function=func.name,
        instrs_before=len(func.instructions),
        instrs_after=len(func.instructions),
        static_gas_before=static_gas(func),
        static_gas_after=static_gas(func),
    )
    current = func
    for _round in range(_MAX_ROUNDS):
        rewritten, changed = _run_round(current, report)
        report.rounds = _round + 1
        if not changed:
            break
        current = rewritten
    if current is not func:
        current = WasmFunction(
            name=func.name,
            params=list(func.params),
            instructions=current.instructions,
            source=func.source,
            kind=func.kind,
            metadata={**func.metadata, "optimized": True},
        )
    report.instrs_after = len(current.instructions)
    report.static_gas_after = static_gas(current)
    return current, report


# -- one optimization round --------------------------------------------------


def _run_round(func: WasmFunction, report: OptimizationReport) -> Tuple[WasmFunction, bool]:
    cfg = build_cfg(func)
    const_in, _const_out = solve(cfg, ConstantLattice())
    live_in, live_out = solve(cfg, Liveness())
    assigned_in, _assigned_out = solve(cfg, DefiniteAssignment())

    blocks = _to_opt_blocks(cfg)
    changed = False
    for block in blocks:
        b = block.label
        changed |= _demote_dead_stores(block, live_out[b], report)
        changed |= _forward_scan(block, dict(const_in[b]), set(assigned_in[b]), report)
    changed |= _thread_jumps(blocks, report)
    changed |= _drop_unreachable(blocks, report)
    new_func = _linearize(func, blocks)
    if len(new_func.instructions) != len(func.instructions) or any(
        a != b for a, b in zip(new_func.instructions, func.instructions)
    ):
        changed = True
    return new_func, changed


def _to_opt_blocks(cfg: CFG) -> List[_OptBlock]:
    blocks: List[_OptBlock] = []
    for block in cfg.blocks:
        instrs = block.instrs
        term_instr = instrs[-1]
        if term_instr.op == Op.RETURN:
            body, term = instrs, ("ret",)
        elif term_instr.op == Op.JUMP:
            body, term = instrs[:-1], ("jump", cfg.block_at(term_instr.arg))
        elif term_instr.op in COND_JUMP_OPS:
            body = instrs[:-1]
            term = (
                "branch",
                term_instr.op,
                cfg.block_at(term_instr.arg),
                cfg.block_at(block.end),
            )
        else:
            # Plain fallthrough normalises to a jump (elided again at
            # linearization when the target stays adjacent).
            body, term = instrs, ("jump", cfg.block_at(block.end))
        blocks.append(_OptBlock(label=block.index, slots=[[i] for i in body], term=term))
    return blocks


# -- dead-store demotion (liveness) ------------------------------------------


def _demote_dead_stores(block: _OptBlock, live_out, report: OptimizationReport) -> bool:
    """Backward walk: a STORE to a local that is dead afterwards keeps only
    its stack effect (POP)."""
    live = set(live_out)
    changed = False
    for slot in reversed(block.slots):
        for i in range(len(slot) - 1, -1, -1):
            instr = slot[i]
            if instr.op == Op.STORE:
                if instr.arg in live:
                    live.discard(instr.arg)
                else:
                    slot[i] = Instr(Op.POP)
                    report.dead_instrs_removed += 1
                    changed = True
            elif instr.op == Op.LOAD:
                live.add(instr.arg)
    return changed


# -- the forward symbolic-stack scan -----------------------------------------

def _forward_scan(
    block: _OptBlock,
    env: Dict[str, Any],
    bound: Set[str],
    report: OptimizationReport,
) -> bool:
    """Constant propagation/folding plus POP-against-producer cancellation
    within one block, then constant-condition branch folding.

    ``env`` is the constant-lattice in-fact (mutated as the scan walks),
    ``bound`` the definitely-assigned set at block entry.
    """
    changed = False
    stack: List[_StackEntry] = []

    def pop() -> _StackEntry:
        return stack.pop() if stack else _StackEntry()

    def popn(n: int) -> List[_StackEntry]:
        return [pop() for _ in range(n)][::-1]

    def push(value: Any = NAC, slot: Optional[int] = None) -> None:
        stack.append(_StackEntry(value=value, slot=slot))

    def slot_is(idx: Optional[int], *ops: str) -> bool:
        if idx is None:
            return False
        slot = block.slots[idx]
        return len(slot) == 1 and slot[0].op in ops

    for si in range(len(block.slots)):
        slot = block.slots[si]
        if len(slot) != 1:
            # Deleted or demoted slots only contain POPs; process each.
            for sub in slot:
                assert sub.op == Op.POP
                _cancel_pop_inplace(block, slot, sub, pop(), bound, report)
            # _cancel_pop_inplace may rewrite slot contents in place.
            continue
        instr = slot[0]
        op = instr.op
        if op == Op.PUSH:
            push(instr.arg if is_const_value(instr.arg) else NAC, si)
        elif op == Op.LOAD:
            value = env.get(instr.arg, NAC)
            if value is not NAC and instr.arg in bound:
                slot[0] = Instr(Op.PUSH, value)
                report.constants_folded += 1
                changed = True
                push(value, si)
            else:
                push(NAC, si if instr.arg in bound else None)
        elif op == Op.STORE:
            env[instr.arg] = pop().value
            bound.add(instr.arg)
        elif op == Op.POP:
            entry = pop()
            if _cancel_pop(block, si, entry, bound, report):
                changed = True
        elif op == Op.DUP:
            top = stack[-1] if stack else _StackEntry()
            # The duplicated original must survive: if its producer were
            # deleted, this DUP would duplicate whatever sits below it.
            top.slot = None
            push(top.value, si)
        elif op in (Op.BINOP, Op.UNARY, Op.COMPARE, Op.FORMAT, Op.BUILD_TUPLE, Op.CALL):
            arity = fold_arity(instr)
            operands = popn(arity if arity is not None else 0)
            folded = False
            if (
                operands
                and all(o.value is not NAC for o in operands)
                and all(slot_is(o.slot, Op.PUSH) for o in operands)
            ):
                try:
                    result = fold_instr(instr, [o.value for o in operands])
                except Exception:
                    result = NAC
                if result is not NAC:
                    for o in operands:
                        block.slots[o.slot] = []
                    slot[0] = Instr(Op.PUSH, result)
                    report.constants_folded += 1
                    report.dead_instrs_removed += len(operands)
                    changed = True
                    push(result, si)
                    folded = True
            if not folded:
                push(NAC, si)
        else:
            pops, pushes = stack_effect(instr)
            popn(pops)
            if pushes:
                push(NAC, si)

    changed |= _fold_terminator(block, stack, report)
    return changed


def _fold_terminator(block: _OptBlock, stack: List[_StackEntry], report) -> bool:
    """Collapse a branch whose arms coincide or whose condition is a
    compile-time constant."""
    if block.term[0] != "branch":
        return False
    _tag, op, target, fall = block.term
    cond = stack[-1] if stack else _StackEntry()

    if target == fall:
        if op in _POPPING_BRANCHES:
            block.slots.append([Instr(Op.POP)])
        block.term = ("jump", fall)
        report.branches_removed += 1
        return True
    if cond.value is NAC:
        return False
    truthy = bool(cond.value)
    if op in (Op.JUMP_IF_FALSE, Op.JUMP_IF_FALSE_KEEP):
        taken = not truthy
    else:
        taken = truthy
    if op in _POPPING_BRANCHES:
        block.slots.append([Instr(Op.POP)])
    block.term = ("jump", target if taken else fall)
    report.branches_removed += 1
    return True


def _cancel_pop(block: _OptBlock, pop_si: int, entry: _StackEntry, bound, report) -> bool:
    """Try to delete a POP together with its side-effect-free producer."""
    si = entry.slot
    if si is None:
        return False
    producer_slot = block.slots[si]
    if len(producer_slot) != 1:
        return False
    producer = producer_slot[0]
    op = producer.op
    if op in (Op.PUSH, Op.DUP):
        block.slots[si] = []
        block.slots[pop_si] = []
        report.dead_instrs_removed += 2
        return True
    if op == Op.LOAD and producer.arg in bound:
        block.slots[si] = []
        block.slots[pop_si] = []
        report.dead_instrs_removed += 2
        return True
    if op == Op.COMPARE and producer.arg in _SAFE_COMPARES:
        block.slots[si] = [Instr(Op.POP), Instr(Op.POP)]
        block.slots[pop_si] = []
        report.dead_instrs_removed += 1
        return True
    if op == Op.UNARY and producer.arg == "not":
        block.slots[si] = [Instr(Op.POP)]
        block.slots[pop_si] = []
        report.dead_instrs_removed += 1
        return True
    if op in (Op.BUILD_LIST, Op.BUILD_TUPLE):
        block.slots[si] = [Instr(Op.POP)] * producer.arg
        block.slots[pop_si] = []
        report.dead_instrs_removed += 1
        return True
    return False


def _cancel_pop_inplace(block, slot, pop_instr, entry: _StackEntry, bound, report) -> None:
    """POPs living in demoted multi-instruction slots cancel against their
    producers too; deletion here rewrites the containing slot."""
    si = entry.slot
    if si is None:
        return
    producer_slot = block.slots[si]
    if len(producer_slot) != 1:
        return
    producer = producer_slot[0]
    removable = (
        producer.op in (Op.PUSH, Op.DUP)
        or (producer.op == Op.LOAD and producer.arg in bound)
    )
    if removable:
        block.slots[si] = []
        slot.remove(pop_instr)
        report.dead_instrs_removed += 2


# -- jump threading and unreachable-code removal -----------------------------


def _resolve_chain(blocks_by_label: Dict[int, _OptBlock], label: int) -> int:
    """Follow empty-body unconditional-jump blocks to their final target."""
    seen = set()
    while label not in seen:
        seen.add(label)
        block = blocks_by_label.get(label)
        if (
            block is None
            or block.term[0] != "jump"
            or any(slot for slot in block.slots)
            or block.term[1] == label
        ):
            break
        label = block.term[1]
    return label


def _thread_jumps(blocks: List[_OptBlock], report: OptimizationReport) -> bool:
    by_label = {b.label: b for b in blocks}
    changed = False
    for block in blocks:
        if block.term[0] == "jump":
            target = _resolve_chain(by_label, block.term[1])
            if target != block.term[1]:
                block.term = ("jump", target)
                report.jumps_threaded += 1
                changed = True
        elif block.term[0] == "branch":
            _tag, op, target, fall = block.term
            new_target = _resolve_chain(by_label, target)
            new_fall = _resolve_chain(by_label, fall)
            if (new_target, new_fall) != (target, fall):
                block.term = ("branch", op, new_target, new_fall)
                report.jumps_threaded += 1
                changed = True
            if new_target == new_fall:
                changed |= _fold_terminator(block, [], report)
    return changed


def _drop_unreachable(blocks: List[_OptBlock], report: OptimizationReport) -> bool:
    by_label = {b.label: b for b in blocks}
    entry = blocks[0].label
    seen: Set[int] = set()
    stack = [entry]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        block = by_label[label]
        if block.term[0] == "jump":
            stack.append(block.term[1])
        elif block.term[0] == "branch":
            stack.extend(block.term[2:4])
    dropped = [b for b in blocks if b.label not in seen]
    if not dropped:
        return False
    for b in dropped:
        report.dead_instrs_removed += sum(len(s) for s in b.slots)
        blocks.remove(b)
    return True


# -- linearization -----------------------------------------------------------


def _linearize(func: WasmFunction, blocks: List[_OptBlock]) -> WasmFunction:
    """Re-emit a flat instruction vector, eliding jumps to the next block."""
    order = sorted(blocks, key=lambda b: b.label)
    next_of: Dict[int, Optional[int]] = {}
    for i, block in enumerate(order):
        next_of[block.label] = order[i + 1].label if i + 1 < len(order) else None

    # First pass: lay out instructions with symbolic (block-label) targets.
    out: List[Any] = []  # Instr or ("jump-to", label, op)
    starts: Dict[int, int] = {}
    for block in order:
        starts[block.label] = len(out)
        for slot in block.slots:
            out.extend(slot)
        term = block.term
        if term[0] == "ret":
            continue
        if term[0] == "jump":
            if term[1] != next_of[block.label]:
                out.append(("jump-to", term[1], Op.JUMP))
            continue
        _tag, op, target, fall = term
        out.append(("jump-to", target, op))
        if fall != next_of[block.label]:
            out.append(("jump-to", fall, Op.JUMP))

    instructions = [
        item if isinstance(item, Instr) else Instr(item[2], starts[item[1]])
        for item in out
    ]
    return WasmFunction(
        name=func.name,
        params=list(func.params),
        instructions=instructions,
        source=func.source,
        kind=func.kind,
        metadata=dict(func.metadata),
    )
