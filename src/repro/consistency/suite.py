"""One recorder and one verdict suite for a finished deployment.

A :class:`Recorder` sits between clients and a runtime: every acked
invocation lands in the history, and every ack or clean
``UnavailableError`` becomes one :class:`Request` row.  After the run has
drained, :func:`verdicts` judges the deployment's final state against
every claim the paper makes about it and returns an ordered
``{name: "" | first problem}`` — an empty string is a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..errors import ConsistencyViolation, UnavailableError
from .checker import (
    check_strict_serializability,
    find_causal_cut_violations,
    find_monotonic_read_violations,
    find_read_your_writes_violations,
)
from .history import HistoryRecorder

__all__ = ["Recorder", "Request", "verdicts"]


@dataclass
class Request:
    """One finished invocation as its client saw it."""

    function: str
    args: List[Any]
    started: float
    ended: float
    region: str
    #: The acked outcome's execution path; ``None`` for a clean
    #: ``UnavailableError`` (the write may or may not have landed).
    path: Optional[str]
    #: Measured traffic rather than deliberate load (a surge).
    probe: bool

    @property
    def took_ms(self) -> float:
        return self.ended - self.started


class Recorder:
    """The history of acked invocations plus one :class:`Request` per
    ack or clean ``UnavailableError``.  Any other exception propagates
    unrecorded: it is the client's failure, not an outcome."""

    def __init__(self):
        self.history = HistoryRecorder()
        self.requests: List[Request] = []

    def invoke(self, runtime, function_id: str, args: List[Any],
               session=None, probe: bool = True) -> Generator:
        """``runtime.invoke`` with the outcome recorded; re-raises an
        ``UnavailableError`` after recording it."""
        sim = runtime.sim
        started = sim.now
        record = self.history.begin(
            function_id, started, session=session.client_id if session is not None else "",
        )
        try:
            outcome = yield from runtime.invoke(function_id, args, session=session)
        except UnavailableError:
            self.requests.append(
                Request(function_id, args, started, sim.now, runtime.region, None, probe))
            raise
        self.history.finish(
            record, sim.now, reads=outcome.read_versions, writes=outcome.write_versions,
        )
        self.requests.append(
            Request(function_id, args, started, sim.now, runtime.region, outcome.path, probe))
        return outcome


def verdicts(dep, recorder: Recorder, counters: Sequence[str], bump: str) -> Dict[str, str]:
    """Every state claim about the drained deployment ``dep``.

    ``counters`` are the keys of the ``counters`` table the run bumped,
    and ``bump`` is the function whose first argument names the counter
    it increments by one.  ``dirty_set_balanced`` is judged only with a
    conflict detector, and ``session_guarantees`` / ``causal_cuts`` only
    with a cache mesh.
    """
    records = recorder.history.records()
    out: Dict[str, str] = {}
    try:
        check_strict_serializability(records)
        out["strict_serializability"] = ""
    except ConsistencyViolation as exc:
        out["strict_serializability"] = str(exc)
    out["exactly_once"] = _exactly_once(dep, recorder.requests, counters, bump)
    pending = dep.pending_intents()
    out["no_pending_intents"] = "" if not pending else f"{len(pending)} intents still pending"
    held = [o for server in dep.servers for o in server.locks.held_owners()]
    out["no_held_locks"] = "" if not held else f"{len(held)} owners still hold locks"
    unsound = dep.metrics.counter("analysis.unsound")
    out["analysis_sound"] = "" if unsound == 0 else f"{unsound} unsound executions"
    if dep.router.detector is not None:
        dirty = dep.router.detector.dirty
        out["dirty_set_balanced"] = "" if dirty.balanced else f"unbalanced: {dirty.stats()}"
    if dep.mesh is not None:
        sessions = [r for r in records if r.session]
        problems = find_read_your_writes_violations(sessions)
        problems += find_monotonic_read_violations(sessions)
        out["session_guarantees"] = "" if not problems else problems[0]
        cuts: List[str] = []
        for region in sorted(dep.mesh.pops):
            for label, log in dep.mesh.pop(region).application_logs():
                cuts.extend(find_causal_cut_violations(log, label=label))
        out["causal_cuts"] = "" if not cuts else cuts[0]
    return out


def _exactly_once(dep, requests: Sequence[Request], counters: Sequence[str], bump: str) -> str:
    """Per counter: acked <= value <= acked + maybe-applied, and the value
    moved in lock step with the version (no non-bump write landed)."""
    acked: Dict[str, int] = {}
    maybe: Dict[str, int] = {}
    for r in requests:
        if r.function == bump:
            tally = maybe if r.path is None else acked
            tally[r.args[0]] = tally.get(r.args[0], 0) + 1
    for key in counters:
        item = dep.get_or_none("counters", key)
        value = item.value if item is not None else 0
        low, high = acked.get(key, 0), acked.get(key, 0) + maybe.get(key, 0)
        if not low <= value <= high:
            return f"{key}: value {value} outside [{low}, {high}]"
        if item is not None and item.version - 1 != value:
            return f"{key}: version {item.version} does not match value {value}"
    return ""
