"""Runtime rw-set soundness sanitizer (the analyzer's machine-checked contract).

The whole LVI fast path rests on one assumption: the rw-set f^rw predicts
*covers* every access the speculative ``f`` execution actually performs
(§3.3's soundness argument).  This module turns that assumption into a
runtime check: every speculative execution's recorded access trace is
compared against the prediction with :meth:`ReadWriteSet.covers`, and

* an **under-prediction** (``analysis.unsound``) is a consistency bug —
  the runtime raises :class:`~repro.errors.ProtocolError`, tests and the
  chaos harness treat any occurrence as a hard failure;
* an **over-approximation** (``analysis.overapprox``) is merely wasted
  work — every predicted-but-unused key still costs a lock at the LVI
  server, so the sanitizer counts the wasted keys as a metric.

Both verdicts flow through the obs spine (`analysis.*` events) so traces
and the chaos matrix can assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .rwset import Key, ReadWriteSet

__all__ = ["SanitizerReport", "check_coverage", "access_checker", "constraint_checker"]


@dataclass(frozen=True)
class SanitizerReport:
    """Outcome of checking one speculative execution against f^rw."""

    function: str
    predicted: ReadWriteSet
    actual: ReadWriteSet
    unsound_reads: Tuple[Key, ...]   # read by f, missing from prediction
    unsound_writes: Tuple[Key, ...]  # written by f, missing from prediction
    wasted_reads: Tuple[Key, ...]    # predicted read, never read
    wasted_writes: Tuple[Key, ...]   # predicted write, never written

    @property
    def sound(self) -> bool:
        return not self.unsound_reads and not self.unsound_writes

    @property
    def wasted_locks(self) -> int:
        """Locks the LVI server took for nothing (over-approximation cost).

        A key both predicted-read and predicted-written holds one lock, so
        the count is over the union — the lock set the server takes.
        """
        used = (set(self.predicted.reads) - set(self.wasted_reads)) | (
            set(self.predicted.writes) - set(self.wasted_writes)
        )
        return len((set(self.predicted.reads) | set(self.predicted.writes)) - used)

    def describe(self) -> str:
        if self.sound:
            return f"{self.function}: sound ({self.wasted_locks} wasted locks)"
        return (
            f"{self.function}: UNSOUND — reads {sorted(self.unsound_reads)}, "
            f"writes {sorted(self.unsound_writes)} escaped the prediction"
        )


def check_coverage(
    function: str, predicted: ReadWriteSet, trace
) -> SanitizerReport:
    """Compare a prediction with an :class:`~repro.wasm.vm.ExecutionTrace`.

    ``predicted.covers(actual)`` is the authoritative verdict; the report
    spells out *which* keys broke it (or were wasted) for diagnostics and
    metrics.  Note the asymmetry the rw-set contract requires: a key the
    execution *wrote* is only covered by a predicted **write** — a
    predicted read of the same key does not excuse it, because validation
    would take the wrong lock type.
    """
    actual = ReadWriteSet.from_lists(trace.read_keys(), trace.write_keys())
    predicted_reads = set(predicted.reads)
    predicted_writes = set(predicted.writes)
    actual_reads = set(actual.reads)
    actual_writes = set(actual.writes)
    report = SanitizerReport(
        function=function,
        predicted=predicted,
        actual=actual,
        unsound_reads=tuple(sorted(actual_reads - predicted_reads)),
        unsound_writes=tuple(sorted(actual_writes - predicted_writes)),
        wasted_reads=tuple(sorted(predicted_reads - actual_reads)),
        wasted_writes=tuple(sorted(predicted_writes - actual_writes)),
    )
    # The spelled-out verdict must agree with the set-level contract.
    assert report.sound == predicted.covers(actual)
    return report


def access_checker(
    predicted: ReadWriteSet, violations: List[Tuple[str, str, str]]
) -> Callable[[str, str, str], None]:
    """Build a VM access hook that streams each storage access against the
    prediction as it happens.

    The returned callable matches the VM's ``access_hook`` signature
    ``(kind, table, key)``; every access not covered by the prediction is
    appended to ``violations`` as ``(kind, "table", key)`` with the pc-level
    ordering preserved.  This is the interposition flavour of
    :func:`check_coverage`: same verdict, but it pinpoints the *first*
    escaping access rather than post-processing the trace.
    """
    predicted_reads = set(predicted.reads)
    predicted_writes = set(predicted.writes)

    def hook(kind: str, table: str, key: str) -> None:
        k = (table, key)
        if kind == "read":
            if k not in predicted_reads:
                violations.append(("read", table, key))
        elif kind == "write":
            if k not in predicted_writes:
                violations.append(("write", table, key))

    return hook


def constraint_checker(
    read_facts: Sequence, violations: List[Tuple[str, str, str]]
) -> Callable[[str, str, str], None]:
    """Build a VM access hook that checks each storage access against a
    request's *instantiated key constraints* (``KeyFact`` objects from
    :mod:`repro.analysis.ir.summary`) instead of a concrete rw-set.

    This is the conflict-detection flavour of :func:`access_checker`: a
    lock-skipped request promised the router it would only read keys
    admitted by its static constraints, so any read outside every fact —
    or any write at all (only read-only functions may skip locks) — is a
    soundness violation and lands in ``violations``.
    """
    facts = list(read_facts)

    def hook(kind: str, table: str, key: str) -> None:
        if kind == "write":
            violations.append(("write", table, key))
            return
        if kind == "read" and not any(f.covers(table, key) for f in facts):
            violations.append(("read", table, key))

    return hook
