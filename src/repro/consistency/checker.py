"""Strict-serializability checking over versioned transaction histories.

Because the primary store gives every item a dense, totally ordered version
sequence (v=1,2,3,...) and each record carries the exact versions it read
and wrote, serializability checking avoids the NP-hard polygraph search:

* **ww order** per key is the version order itself;
* **wr edges**: the reader of version v depends on the writer of v;
* **rw anti-dependency**: a transaction that *read* version v must precede
  the transaction that wrote v+1;
* **real-time edges**: if T1's response precedes T2's invocation, T1 must
  come first (this is what upgrades serializability to strictness, i.e.
  Linearizability at transaction granularity — §3.6's property).

The history is strictly serializable iff the resulting dependency graph is
acyclic.  On violation the checker reports a cycle as a human-readable
explanation.

A classic Wing & Gill exhaustive checker for single-register histories
lives in :func:`check_register_linearizable`, used to validate the ABD
replicated store independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConsistencyViolation
from .history import Key, TxnRecord

__all__ = [
    "check_strict_serializability",
    "DependencyGraph",
    "RegisterOp",
    "check_register_linearizable",
    "CutEvent",
    "find_read_your_writes_violations",
    "find_monotonic_read_violations",
    "find_causal_cut_violations",
    "check_read_your_writes",
    "check_monotonic_reads",
    "check_causal_cut",
]


@dataclass
class DependencyGraph:
    """Adjacency sets over transaction ids, with labelled edges for
    violation reporting."""

    edges: Dict[int, set]
    labels: Dict[Tuple[int, int], str]

    def find_cycle(self) -> Optional[List[int]]:
        """Return one cycle as a node list, or None if the graph is a DAG.

        A depth-first search with an explicit stack, so a dependency chain
        of any length checks without recursion.  Roots and successors are
        visited in sorted order, so the first cycle found is always the
        same one."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.edges}
        for root in sorted(self.edges):
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            path = [root]
            successors = [iter(sorted(self.edges[root]))]
            while successors:
                for nxt in successors[-1]:
                    state = color.get(nxt, WHITE)
                    if state == GRAY:
                        return path[path.index(nxt):] + [nxt]
                    if state == WHITE:
                        color[nxt] = GRAY
                        path.append(nxt)
                        successors.append(iter(sorted(self.edges.get(nxt, ()))))
                        break
                else:
                    successors.pop()
                    color[path.pop()] = BLACK
        return None


def build_dependency_graph(records: Sequence[TxnRecord]) -> DependencyGraph:
    """Construct the wr/ww/rw/real-time dependency graph."""
    edges: Dict[int, set] = {r.txn_id: set() for r in records}
    labels: Dict[Tuple[int, int], str] = {}

    def add(a: int, b: int, label: str) -> None:
        if a == b:
            return
        if b not in edges[a]:
            edges[a].add(b)
            labels[(a, b)] = label

    # Index writers by (key, version).
    writer_of: Dict[Tuple[Key, int], int] = {}
    for r in records:
        for key, version in r.writes.items():
            prev = writer_of.get((key, version))
            if prev is not None and prev != r.txn_id:
                raise ConsistencyViolation(
                    f"two transactions ({prev}, {r.txn_id}) both wrote "
                    f"{key} version {version}: duplicate write application"
                )
            writer_of[(key, version)] = r.txn_id

    for r in records:
        # wr: reading v depends on the writer of v (version 0 = initial).
        for key, version in r.reads.items():
            if version > 0:
                writer = writer_of.get((key, version))
                if writer is not None:
                    add(writer, r.txn_id, f"wr {key}@v{version}")
            # rw: the writer of v+1 must come after this read.
            overwriter = writer_of.get((key, version + 1))
            if overwriter is not None:
                add(r.txn_id, overwriter, f"rw {key}@v{version}->v{version + 1}")
        # ww: version order per key.
        for key, version in r.writes.items():
            nxt = writer_of.get((key, version + 1))
            if nxt is not None:
                add(r.txn_id, nxt, f"ww {key}@v{version}->v{version + 1}")

    # Real-time edges: every pair with ``earlier.responded_at <
    # later.invoked_at`` gets one, so this is O(n^2) edges on a sequential
    # history (ROADMAP item 1(b) replaces it with barrier nodes).
    ordered = sorted(records, key=lambda r: (r.responded_at, r.invoked_at))
    for i, earlier in enumerate(ordered):
        for later in ordered[i + 1:]:
            if earlier.responded_at < later.invoked_at:
                add(earlier.txn_id, later.txn_id, "rt")

    return DependencyGraph(edges=edges, labels=labels)


def check_strict_serializability(records: Sequence[TxnRecord]) -> None:
    """Raise :class:`ConsistencyViolation` (with a cycle explanation) if
    the history is not strictly serializable."""
    graph = build_dependency_graph(records)
    cycle = graph.find_cycle()
    if cycle is None:
        return
    parts = []
    for a, b in zip(cycle, cycle[1:]):
        parts.append(f"T{a} --[{graph.labels.get((a, b), '?')}]--> T{b}")
    raise ConsistencyViolation("dependency cycle: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# Session guarantees (Terry et al.): read-your-writes & monotonic reads.
#
# Because every Radical path validates at the primary before acknowledging,
# strict serializability already implies both guarantees for *acked*
# results.  The mesh (repro.mesh) nevertheless enforces them client-side so
# that migrated sessions never even *speculate* on known-stale cache
# entries; these checkers are the verification instrument the chaos matrix
# runs against every mesh case.  Records are grouped by ``TxnRecord.session``
# (empty sessions are skipped — unrelated clients share no session) and
# ordered by invocation time, which is the issue order of a sequential
# client.
# ---------------------------------------------------------------------------

def _session_order(records: Sequence[TxnRecord]) -> Dict[str, List[TxnRecord]]:
    sessions: Dict[str, List[TxnRecord]] = {}
    for r in records:
        if r.session:
            sessions.setdefault(r.session, []).append(r)
    for ops in sessions.values():
        ops.sort(key=lambda r: (r.invoked_at, r.responded_at, r.txn_id))
    return sessions


def find_read_your_writes_violations(records: Sequence[TxnRecord]) -> List[str]:
    """Read-your-writes: once a session's write of version v is acked, every
    later read of that key by the same session must return version >= v."""
    violations: List[str] = []
    for session, ops in sorted(_session_order(records).items()):
        written: Dict[Key, int] = {}
        for r in ops:
            for key, version in sorted(r.reads.items()):
                floor = written.get(key, 0)
                if version < floor:
                    violations.append(
                        f"session {session}: T{r.txn_id} ({r.function}) read "
                        f"{key}@v{version} after the session wrote v{floor}"
                    )
            for key, version in r.writes.items():
                if version > written.get(key, 0):
                    written[key] = version
    return violations


def find_monotonic_read_violations(records: Sequence[TxnRecord]) -> List[str]:
    """Monotonic reads: within a session, reads of a key never go backwards
    in version order."""
    violations: List[str] = []
    for session, ops in sorted(_session_order(records).items()):
        seen: Dict[Key, int] = {}
        for r in ops:
            for key, version in sorted(r.reads.items()):
                floor = seen.get(key, 0)
                if version < floor:
                    violations.append(
                        f"session {session}: T{r.txn_id} ({r.function}) read "
                        f"{key}@v{version} after an earlier read observed v{floor}"
                    )
                else:
                    seen[key] = version
    return violations


def check_read_your_writes(records: Sequence[TxnRecord]) -> None:
    """Raise :class:`ConsistencyViolation` on any read-your-writes breach."""
    violations = find_read_your_writes_violations(records)
    if violations:
        raise ConsistencyViolation("read-your-writes: " + "; ".join(violations))


def check_monotonic_reads(records: Sequence[TxnRecord]) -> None:
    """Raise :class:`ConsistencyViolation` on any monotonic-reads breach."""
    violations = find_monotonic_read_violations(records)
    if violations:
        raise ConsistencyViolation("monotonic-reads: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# Causal-cut validity for mesh PoP application logs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutEvent:
    """One gossip update applied at a PoP, in application order.

    ``origin`` is the writer PoP's identity (``region#epoch`` in the mesh),
    ``seq`` its per-origin sequence number, and ``deps`` the origin version
    vector the writer observed at write time — every ``(origin, seq)`` pair
    the update causally depends on.
    """

    origin: str
    seq: int
    deps: Tuple[Tuple[str, int], ...] = ()


def find_causal_cut_violations(events: Sequence[CutEvent], label: str = "") -> List[str]:
    """Replay a PoP's application log and verify it always formed a causal
    cut: per-origin updates applied gaplessly in sequence order, and never
    before every dependency was already applied."""
    where = f"[{label}] " if label else ""
    violations: List[str] = []
    vv: Dict[str, int] = {}
    for i, e in enumerate(events):
        expected = vv.get(e.origin, 0) + 1
        if e.seq != expected:
            kind = "re-applied" if e.seq < expected else "skipped ahead to"
            violations.append(
                f"{where}event {i}: {kind} {e.origin}:{e.seq} "
                f"(next in sequence was {e.origin}:{expected})"
            )
            if e.seq < expected:
                continue
        for origin, seq in sorted(e.deps):
            if origin == e.origin and seq < e.seq:
                continue  # own-origin prefix is covered by the gap check
            if vv.get(origin, 0) < seq:
                violations.append(
                    f"{where}event {i}: applied {e.origin}:{e.seq} before its "
                    f"dependency {origin}:{seq} (only {origin}:{vv.get(origin, 0)} "
                    f"was applied)"
                )
        vv[e.origin] = e.seq
    return violations


def check_causal_cut(events: Sequence[CutEvent], label: str = "") -> None:
    """Raise :class:`ConsistencyViolation` if the application log ever left
    the causal cut."""
    violations = find_causal_cut_violations(events, label=label)
    if violations:
        raise ConsistencyViolation("causal-cut: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# Register-level linearizability (Wing & Gill) for the ABD store.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisterOp:
    """A read or write on a single register, with its real-time window."""

    op_id: int
    kind: str          # "read" | "write"
    value: object      # written value, or value the read returned
    invoked_at: float
    responded_at: float


def check_register_linearizable(ops: Sequence[RegisterOp], initial: object = None) -> bool:
    """Exhaustively decide linearizability of a single-register history.

    Wing & Gill style search: repeatedly pick a *minimal* operation (one
    whose invocation precedes every unfinished operation's response),
    simulate it against the register, and recurse.  Exponential in the
    worst case — use for small histories (tests use <= ~12 ops).
    """
    ops = list(ops)
    n = len(ops)
    if n == 0:
        return True
    # Memoize on (frozenset of remaining op ids, current value index).
    from functools import lru_cache

    values = {id(op): op for op in ops}

    def minimal_ops(remaining: frozenset) -> List[RegisterOp]:
        rem = [o for o in ops if o.op_id in remaining]
        min_response = min(o.responded_at for o in rem)
        return [o for o in rem if o.invoked_at <= min_response]

    seen = set()

    def search(remaining: frozenset, current) -> bool:
        if not remaining:
            return True
        state = (remaining, repr(current))
        if state in seen:
            return False
        for op in minimal_ops(remaining):
            if op.kind == "write":
                if search(remaining - {op.op_id}, op.value):
                    return True
            else:
                if op.value == current and search(remaining - {op.op_id}, current):
                    return True
        seen.add(state)
        return False

    return search(frozenset(o.op_id for o in ops), initial)
