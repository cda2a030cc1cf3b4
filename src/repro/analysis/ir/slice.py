"""f^rw as a backward slice over the compiled function (paper §3.3, §4).

The paper's analyzer works on the compiled WASM binary and keeps "only the
pieces of f needed to determine the final inputs to read and write calls".
This module does the same on the wasm-lite instruction stream of ``f``:

* **seeds** — every reachable ``DB_GET`` / ``DB_PUT``;
* **data dependence** — a kept instruction needs the producers of its
  operands.  Operands are tracked as *webs*: the set of producers whose
  values may meet in one stack slot (the arms of ``a or b`` and of an
  ``x if c else y`` form one web), so a web is either materialized in the
  slice with every producer, or absent.  A kept ``LOAD`` needs the
  ``STORE`` s reaching it (:class:`~repro.analysis.ir.dataflow.ReachingDefinitions`);
* **aliasing** — an in-place mutation (``STORE_INDEX``, a method in
  :data:`_MUTATING_METHODS`) is a definition of every name that may observe
  the mutated object (:class:`_ObsGraph`), and is kept when one of those
  names is live over the kept loads after it;
* **control dependence** — a branch is kept when anything is kept in its
  *region*, the blocks reachable from it before its immediate
  post-dominator.  A dropped branch jumps straight to that post-dominator
  (or returns, when there is none), so a ``return`` / ``break`` /
  ``continue`` survives exactly when it can cut off a later kept access.

The kept instructions are emitted in their original order: ``DB_GET``
becomes ``RW_READ``, ``DB_PUT`` an ``RW_WRITE`` of (table, key) (the written
value is never computed), every ``RETURN`` returns ``None``, and a kept
value nobody in the slice consumes is popped where it is produced.  An
``EXT_CALL`` left in the slice means some access depends on an external
response, and the function is unanalyzable.

The slice relaxes one clause of f's semantics: code it drops can no longer
trap, so an input on which ``f`` traps (and the invocation falls back to
near-storage execution) may instead yield the rw-set of well-formed data.
That is safe because of the runtime soundness sanitizer
(:mod:`repro.analysis.sanitizer`): every speculative execution's access
trace is checked against the prediction, and an uncovered one fails closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ...errors import AnalysisError
from ...wasm.ir import Instr, Op, WasmFunction
from .cfg import COND_JUMP_OPS, CFG, build_cfg, stack_effect
from .dataflow import Liveness, ReachingDefinitions, solve

__all__ = ["FrwSlice", "slice_frw"]

#: Methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "sort", "reverse", "setdefault",
}

_KEEP_JUMPS = {Op.JUMP_IF_FALSE_KEEP, Op.JUMP_IF_TRUE_KEEP}

#: All storage reads may return the same underlying object, and stack
#: values crossing block boundaries are anonymous: both get sentinel
#: "names" in the alias analysis.
_EXTERN = "<extern>"
_FLOAT = "<float>"


@dataclass
class FrwSlice:
    """The derived f^rw plus the Table 1 facts read off ``f``."""

    frw: WasmFunction
    writes: bool              # f may write to storage
    reads: bool               # f may read from storage
    dependent_reads: bool     # some access key data-depends on a prior read


def _is_mutation(instr: Instr) -> bool:
    return instr.op == Op.STORE_INDEX or (
        instr.op == Op.METHOD and instr.arg[0] in _MUTATING_METHODS
    )


class _ObsGraph:
    """Directed may-expose graph over local names.

    Edge ``u -> v`` means *reading u may expose (part of) the object v
    names*: ``u = v`` draws both directions (same object), while storing v
    into a container u (``u.append(v)``, ``u[k] = v``, ``u = [v] + ...``)
    draws only ``u -> v`` — reading v can never surface u.  Directionality
    is what keeps an int parameter appended into a dead list from making
    the list's mutation observable."""

    def __init__(self) -> None:
        self._rev: Dict[str, Set[str]] = {}

    def add(self, src: str, dst: str) -> None:
        self._rev.setdefault(dst, set()).add(src)

    def link(self, a: str, b: str) -> None:
        self.add(a, b)
        self.add(b, a)

    def observers(self, targets: Set[str]) -> FrozenSet[str]:
        """All names ``n`` with a path ``n ->* t`` into ``targets``
        (including the targets themselves)."""
        seen = set(targets)
        work = list(targets)
        while work:
            for pred in self._rev.get(work.pop(), ()):
                if pred not in seen:
                    seen.add(pred)
                    work.append(pred)
        return frozenset(seen)


#: A value's alias taint: the names whose objects it may *be*, and the
#: names whose objects a fresh value (a new list, a concatenation) may
#: *hold* without being any of them.
_Taint = Tuple[Set[str], Set[str]]

#: Opcodes whose result is a fresh object holding (parts of) its operands.
_FRESH_OPS = {Op.BINOP, Op.SLICE, Op.BUILD_LIST, Op.BUILD_TUPLE, Op.BUILD_DICT}

#: Opcodes whose result is a fresh immutable value.
_SCALAR_OPS = {Op.UNARY, Op.COMPARE, Op.FORMAT}


def _taint_pass(cfg: CFG, graph: _ObsGraph) -> Dict[int, Set[str]]:
    """One flow-insensitive pass building the may-expose graph; returns
    the objects each mutation site may mutate.  Storing a value that may
    be v's object links the two names both ways; storing a fresh value
    that holds v's object, or inserting v into a container, draws only
    the edge into v.  Anything that may hand back an operand or a part of
    it (indexing, calls, methods) is conservatively taken to *be* it."""
    receivers: Dict[int, Set[str]] = {}
    for block in cfg.blocks:
        stack: List[_Taint] = []

        def tpop() -> _Taint:
            return stack.pop() if stack else ({_FLOAT}, set())

        def tpopn(n: int) -> Set[str]:
            """Pop n values; every name any of them may be or hold."""
            out: Set[str] = set()
            for _ in range(n):
                same, inner = tpop()
                out |= same | inner
            return out

        for pc, instr in block.pcs():
            op = instr.op
            if op == Op.LOAD:
                stack.append(({instr.arg}, set()))
            elif op == Op.STORE:
                same, inner = tpop()
                for t in same:
                    graph.link(instr.arg, t)
                for t in inner:
                    graph.add(instr.arg, t)
            elif op == Op.DUP:
                top = tpop()
                stack.extend((top, top))
            elif op in _FRESH_OPS:
                stack.append((set(), tpopn(stack_effect(instr)[0])))
            elif op in _SCALAR_OPS:
                tpopn(stack_effect(instr)[0])
                stack.append((set(), set()))
            elif op in (Op.INDEX, Op.CALL, Op.INTRINSIC):
                stack.append((tpopn(stack_effect(instr)[0]), set()))
            elif op == Op.METHOD:
                args = tpopn(instr.arg[1])
                recv, recv_inner = tpop()
                if instr.arg[0] in _MUTATING_METHODS:
                    receivers[pc] = recv
                    for r in recv:
                        for a in args:
                            graph.add(r, a)
                stack.append((recv | recv_inner | args, set()))
            elif op == Op.STORE_INDEX:
                value = tpopn(2)  # the index too, in case it is a container
                recv, _inner = tpop()
                receivers[pc] = recv
                for r in recv:
                    for v in value:
                        graph.add(r, v)
            elif op in (Op.DB_GET, Op.RW_READ):
                tpopn(2)
                stack.append(({_EXTERN}, set()))
            elif op == Op.DB_PUT:
                for v in tpopn(1):
                    graph.add(_EXTERN, v)
                tpopn(2)
                stack.append((set(), set()))
            else:
                pops, pushes = stack_effect(instr)
                tpopn(pops)
                stack.extend((set(), set()) for _ in range(pushes))
        # Values left for a successor (keep-branch operands, conditional
        # expression arms) are anonymous there: tie them to the float name.
        for same, inner in stack:
            for t in same:
                graph.link(_FLOAT, t)
            for t in inner:
                graph.add(_FLOAT, t)
    return receivers


class _KeptLiveness(Liveness):
    """Liveness counting only the loads the slice keeps."""

    def __init__(self, kept: Set[int]) -> None:
        self.kept = kept

    def transfer(self, cfg, block, fact):
        live = set(fact)
        for pc, instr in reversed(list(block.pcs())):
            if instr.op == Op.STORE:
                live.discard(instr.arg)
            elif instr.op == Op.LOAD and pc in self.kept:
                live.add(instr.arg)
        return frozenset(live)


class _Slicer:
    """Static facts about ``f`` the slicing fixpoint runs over."""

    def __init__(self, f: WasmFunction) -> None:
        self.f = f
        cfg = self.cfg = build_cfg(f)
        self.reachable = cfg.reachable()
        self.block_of: Dict[int, int] = {
            pc: b.index for b in cfg.blocks for pc, _ in b.pcs()
        }
        self._stack_flow()
        self._reaching_defs()
        self._regions()
        graph = _ObsGraph()
        receivers = _taint_pass(cfg, graph)
        self.observers = {
            pc: graph.observers(recv)
            for pc, recv in receivers.items()
            if self.block_of[pc] in self.reachable
        }

    # -- static facts -------------------------------------------------------

    def _stack_flow(self) -> None:
        """Which producers' values each operand slot may hold, joined into
        webs.  ``operands[pc]`` lists the webs ``pc`` pops (bottom first) or
        peeks; ``below[pc]`` the webs beneath a mutation's operands."""
        cfg = self.cfg
        entry: Dict[int, Tuple[FrozenSet[int], ...]] = {cfg.entry: ()}
        raw: Dict[int, List[FrozenSet[int]]] = {}
        raw_below: Dict[int, List[FrozenSet[int]]] = {}
        work = [cfg.entry]
        while work:
            b = work.pop()
            stack = list(entry[b])
            for pc, instr in cfg.blocks[b].pcs():
                pops, pushes = stack_effect(instr)
                if instr.op in _KEEP_JUMPS:
                    pops = 1
                if len(stack) < pops:
                    raise AnalysisError(f"{self.f.name}: stack underflow at pc {pc}")
                taken = stack[len(stack) - pops:] if pops else []
                raw[pc] = [
                    a | b_ for a, b_ in zip(raw.get(pc, taken), taken)
                ] or taken
                if _is_mutation(instr):
                    below = stack[:len(stack) - pops]
                    prev = raw_below.get(pc, below)
                    raw_below[pc] = [a | b_ for a, b_ in zip(prev, below)]
                if instr.op not in _KEEP_JUMPS and pops:
                    del stack[len(stack) - pops:]
                stack.extend(frozenset([pc]) for _ in range(pushes))
            for s in cfg.blocks[b].succs:
                old = entry.get(s)
                if old is None:
                    new = tuple(stack)
                elif len(old) != len(stack):
                    raise AnalysisError(
                        f"{self.f.name}: unbalanced stack entering pc {cfg.blocks[s].start}"
                    )
                else:
                    new = tuple(a | b_ for a, b_ in zip(old, stack))
                if new != old:
                    entry[s] = new
                    work.append(s)

        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while x != root:
                parent[x], x = root, parent.get(x, x)
            return root

        for slots in list(raw.values()) + list(raw_below.values()):
            for producers in slots:
                first, *rest = sorted(producers)
                for p in rest:
                    ra, rb = find(first), find(p)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        self.web_of = find
        self.operands = {pc: [find(min(s)) for s in slots] for pc, slots in raw.items()}
        self.below = {
            pc: {find(min(s)) for s in slots} for pc, slots in raw_below.items()
        }
        self.producers: Dict[int, List[int]] = {}
        self.consumers: Dict[int, List[int]] = {}
        for pc in sorted(raw):
            if stack_effect(self.f.instructions[pc])[1]:
                self.producers.setdefault(find(pc), []).append(pc)
            for w in self.operands[pc]:
                self.consumers.setdefault(w, []).append(pc)

    def _reaching_defs(self) -> None:
        """``defs[pc]`` = the STORE pcs that may reach the LOAD at ``pc``."""
        cfg = self.cfg
        in_facts, _out = solve(cfg, ReachingDefinitions())
        self.defs: Dict[int, Set[int]] = {}
        for b in self.reachable:
            current: Dict[str, Set[int]] = {}
            for var, pc in in_facts[b]:
                current.setdefault(var, set()).add(pc)
            for pc, instr in cfg.blocks[b].pcs():
                if instr.op == Op.LOAD:
                    self.defs[pc] = {d for d in current.get(instr.arg, ()) if d >= 0}
                elif instr.op == Op.STORE:
                    current[instr.arg] = {pc}

    def _regions(self) -> None:
        """For every conditional branch, the blocks it decides between:
        those reachable from it before its immediate post-dominator.
        ``guards[b]`` lists the branch pcs whose region holds block b."""
        cfg = self.cfg
        self.ipdom = cfg.immediate_post_dominators()
        self.guards: Dict[int, List[int]] = {}
        for a in sorted(self.reachable):
            block = cfg.blocks[a]
            if block.terminator.op not in COND_JUMP_OPS:
                continue
            stop = self.ipdom[a]
            seen: Set[int] = set()
            work = list(block.succs)
            while work:
                b = work.pop()
                if b == stop or b in seen:
                    continue
                seen.add(b)
                work.extend(cfg.blocks[b].succs)
            for b in seen:
                self.guards.setdefault(b, []).append(block.end - 1)

    # -- the fixpoint -------------------------------------------------------

    def closure(self, seed_pcs: List[int], seed_webs: List[int], control: bool):
        """Least set of kept pcs (and materialized webs) closed under the
        dependence rules; ``control`` adds control dependence."""
        kept: Set[int] = set()
        webs: Set[int] = set()
        emitting: Set[int] = set()
        work: List[int] = []
        code = self.f.instructions

        def keep(pc: int) -> None:
            if pc not in kept:
                kept.add(pc)
                work.append(pc)

        def emit_in(b: int) -> None:
            if control and b not in emitting:
                emitting.add(b)
                for branch in self.guards.get(b, ()):
                    keep(branch)

        def materialize(w: int) -> None:
            if w in webs:
                return
            webs.add(w)
            for pc in self.producers.get(w, ()):
                keep(pc)
            for pc in self.consumers.get(w, ()):
                if code[pc].op in _KEEP_JUMPS:
                    keep(pc)
                emit_in(self.block_of[pc])  # a dropped consumer pops it

        for pc in seed_pcs:
            keep(pc)
        for w in seed_webs:
            materialize(w)
        while True:
            while work:
                pc = work.pop()
                emit_in(self.block_of[pc])
                op = code[pc].op
                for i, w in enumerate(self.operands.get(pc, ())):
                    if not (op == Op.RETURN or (op == Op.DB_PUT and i == 2)):
                        materialize(w)
                for d in self.defs.get(pc, ()):
                    keep(d)
            _in, live_out = solve(self.cfg, _KeptLiveness(kept))
            grown = [pc for pc in sorted(self.observers) if pc not in kept
                     and self._observed(pc, kept, webs, live_out)]
            if not grown:
                return kept, webs
            for pc in grown:
                keep(pc)

    def _observed(self, pc: int, kept: Set[int], webs: Set[int], live_out) -> bool:
        """Can a kept instruction see the mutation at ``pc``?  Yes when a
        may-observer name is live (over kept loads) right after it, or a
        materialized value is waiting on the stack beneath it."""
        if self.below.get(pc, set()) & webs:
            return True
        block = self.cfg.blocks[self.block_of[pc]]
        live = set(live_out[block.index])
        for q, instr in reversed(list(block.pcs())):
            if q == pc:
                break
            if instr.op == Op.STORE:
                live.discard(instr.arg)
            elif instr.op == Op.LOAD and q in kept:
                live.add(instr.arg)
        return bool(self.observers[pc] & live)

    # -- emission -----------------------------------------------------------

    def emit(self, kept: Set[int], webs: Set[int]) -> WasmFunction:
        """Lay the kept instructions out over the slice's control flow."""
        cfg = self.cfg
        code = self.f.instructions
        ret = [Instr(Op.PUSH, None), Instr(Op.RETURN)]

        def pops_for(pc: int) -> List[Instr]:
            return [Instr(Op.POP) for w in self.operands.get(pc, ()) if w in webs]

        blocks: Dict[int, _EmitBlock] = {}
        work = [cfg.entry]
        while work:
            b = work.pop()
            if b in blocks:
                continue
            block = cfg.blocks[b]
            out: List[Instr] = []
            term: Tuple = ("jump", b + 1)
            for pc, instr in block.pcs():
                op = instr.op
                if op == Op.RETURN:
                    out += pops_for(pc) + ret
                    term = ("ret",)
                elif op == Op.JUMP:
                    term = ("jump", cfg.block_at(instr.arg))
                elif op in COND_JUMP_OPS and pc in kept:
                    term = ("branch", op, cfg.block_at(instr.arg), b + 1)
                elif op in COND_JUMP_OPS:
                    # A dropped branch goes straight to where its arms meet.
                    if op not in _KEEP_JUMPS:
                        out += pops_for(pc)
                    if self.ipdom[b] is None:
                        out += ret
                        term = ("ret",)
                    else:
                        term = ("jump", self.ipdom[b])
                elif pc not in kept:
                    out += pops_for(pc)
                elif op == Op.EXT_CALL:
                    raise AnalysisError(
                        f"{self.f.name}: a storage access depends on an external "
                        "service response; f^rw cannot be derived"
                    )
                else:
                    if op == Op.DB_GET:
                        instr = Instr(Op.RW_READ)
                    elif op == Op.DB_PUT:
                        if self.operands[pc][2] in webs:
                            out.append(Instr(Op.POP))
                        instr = Instr(Op.RW_WRITE)
                    out.append(instr)
                    if stack_effect(code[pc])[1] and self.web_of(pc) not in webs:
                        out.append(Instr(Op.POP))
            blocks[b] = _EmitBlock(label=b, instrs=out, term=term)
            work.extend(t for t in term[1:] if isinstance(t, int))
        return WasmFunction(
            name=self.f.name, params=list(self.f.params),
            instructions=_linearize(list(blocks.values())),
            source=self.f.source, kind="frw",
        )


@dataclass
class _EmitBlock:
    """One block of the slice being laid out: its kept instructions plus a
    symbolic terminator."""

    label: int
    instrs: List[Instr]
    # ("ret",) | ("jump", label) | ("branch", op, target_label, fall_label)
    term: Tuple


def _linearize(blocks: List[_EmitBlock]) -> List[Instr]:
    """Flatten blocks in label order into one instruction vector, eliding
    jumps to the next block."""
    order = sorted(blocks, key=lambda b: b.label)
    next_of: Dict[int, Optional[int]] = {}
    for i, block in enumerate(order):
        next_of[block.label] = order[i + 1].label if i + 1 < len(order) else None

    # First pass: lay out instructions with symbolic (block-label) targets.
    out: List[Any] = []  # Instr or ("jump-to", label, op)
    starts: Dict[int, int] = {}
    for block in order:
        starts[block.label] = len(out)
        out.extend(block.instrs)
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

    return [
        item if isinstance(item, Instr) else Instr(item[2], starts[item[1]])
        for item in out
    ]


def slice_frw(f: WasmFunction) -> FrwSlice:
    """Derive f^rw from the compiled ``f``; raises :class:`AnalysisError`
    when an access depends on an external service response."""
    slicer = _Slicer(f)
    code = f.instructions
    sites = [
        pc for pc in sorted(slicer.block_of)
        if code[pc].op in (Op.DB_GET, Op.DB_PUT) and slicer.block_of[pc] in slicer.reachable
    ]
    frw = slicer.emit(*slicer.closure(sites, [], control=True))
    # A dependent read: some access's (table, key) operands data-depend on
    # a read's result — an existence check that only steers control does
    # not count (paper Table 1).
    key_webs = [w for pc in sites for w in slicer.operands[pc][:2]]
    key_feeding, _webs = slicer.closure([], key_webs, control=False)
    return FrwSlice(
        frw=frw,
        writes=any(i.op == Op.DB_PUT for i in code),
        reads=any(i.op == Op.DB_GET for i in code),
        dependent_reads=any(code[pc].op == Op.DB_GET for pc in key_feeding),
    )
