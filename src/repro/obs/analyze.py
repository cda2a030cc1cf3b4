"""Critical-path analysis over trace spans.

The acceptance contract for the tracing spine: for every invocation trace,
the client-side *phase* spans are contiguous and non-overlapping, so their
durations sum to the recorded end-to-end latency within float tolerance.
This module verifies that invariant and turns raw span streams into the
per-phase latency breakdowns the paper's §5.5 table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .trace import (
    SPAN_KIND_INVOCATION,
    SPAN_KIND_PHASE,
    Span,
)

__all__ = [
    "Breakdown",
    "group_traces",
    "invocation_breakdown",
    "all_breakdowns",
    "assert_balanced",
    "orphan_spans",
    "phase_summary_rows",
    "critical_path",
    "critical_path_signatures",
]

#: Phases in sum-to-e2e tolerance: 1e-6 ms = one nanosecond of virtual time.
BALANCE_TOLERANCE_MS = 1e-6


@dataclass
class Breakdown:
    """Per-invocation latency decomposition."""

    trace_id: int
    e2e_ms: float
    phases: Dict[str, float] = field(default_factory=dict)
    path: str = ""
    region: str = ""
    function: str = ""

    @property
    def phase_total_ms(self) -> float:
        return sum(self.phases.values())

    @property
    def residual_ms(self) -> float:
        """e2e minus the phase sum — must be ~0 for a balanced trace."""
        return self.e2e_ms - self.phase_total_ms

    def balanced(self, tolerance: float = BALANCE_TOLERANCE_MS) -> bool:
        return abs(self.residual_ms) <= tolerance


def group_traces(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Spans grouped by trace id, preserving input order."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped


def invocation_breakdown(trace_spans: List[Span]) -> Optional[Breakdown]:
    """Decompose one trace; ``None`` when it has no invocation root
    (e.g. a trace consisting only of background followup activity)."""
    root = next((s for s in trace_spans if s.kind == SPAN_KIND_INVOCATION), None)
    if root is None or not root.finished:
        return None
    phases: Dict[str, float] = {}
    for span in trace_spans:
        if span.kind == SPAN_KIND_PHASE and span.finished:
            phases[span.name] = phases.get(span.name, 0.0) + span.duration_ms
    return Breakdown(
        trace_id=root.trace_id,
        e2e_ms=root.duration_ms,
        phases=phases,
        path=str(root.attrs.get("path", "")),
        region=str(root.attrs.get("region", "")),
        function=str(root.attrs.get("function", "")),
    )


def all_breakdowns(spans: Iterable[Span]) -> List[Breakdown]:
    """Breakdowns for every invocation trace, in trace-id order."""
    grouped = group_traces(spans)
    out = []
    for trace_id in sorted(grouped):
        bd = invocation_breakdown(grouped[trace_id])
        if bd is not None:
            out.append(bd)
    return out


def assert_balanced(
    breakdowns: Iterable[Breakdown], tolerance: float = BALANCE_TOLERANCE_MS
) -> None:
    """Raise ``AssertionError`` naming the first unbalanced trace."""
    for bd in breakdowns:
        if not bd.balanced(tolerance):
            raise AssertionError(
                f"trace {bd.trace_id} ({bd.path or 'unknown path'}): phases sum to "
                f"{bd.phase_total_ms:.9f} ms but e2e is {bd.e2e_ms:.9f} ms "
                f"(residual {bd.residual_ms:.9f} ms > {tolerance} ms)"
            )


def orphan_spans(spans: Iterable[Span]) -> List[Span]:
    """Spans never finished.  Under failure injection (drops, partitions,
    duplicates) every hop span must still be closed — an open span means a
    code path lost track of a message."""
    return [s for s in spans if not s.finished]


def phase_summary_rows(breakdowns: List[Breakdown]) -> List[dict]:
    """Aggregate rows: one per (path, phase) with count/mean/p50/p99 and
    the phase's share of that path's mean e2e."""
    from ..sim.monitor import percentile

    by_path: Dict[str, List[Breakdown]] = {}
    for bd in breakdowns:
        by_path.setdefault(bd.path or "unknown", []).append(bd)
    rows: List[dict] = []
    for path in sorted(by_path):
        group = by_path[path]
        mean_e2e = sum(b.e2e_ms for b in group) / len(group)
        phase_names = sorted({name for b in group for name in b.phases})
        for name in phase_names:
            samples = [b.phases.get(name, 0.0) for b in group]
            mean = sum(samples) / len(samples)
            rows.append({
                "path": path,
                "phase": name,
                "count": len(samples),
                "mean_ms": mean,
                "p50_ms": percentile(samples, 50.0),
                "p99_ms": percentile(samples, 99.0),
                "share_pct": 100.0 * mean / mean_e2e if mean_e2e > 0 else 0.0,
            })
        rows.append({
            "path": path,
            "phase": "(e2e)",
            "count": len(group),
            "mean_ms": mean_e2e,
            "p50_ms": percentile([b.e2e_ms for b in group], 50.0),
            "p99_ms": percentile([b.e2e_ms for b in group], 99.0),
            "share_pct": 100.0,
        })
    return rows


def critical_path(trace_spans: List[Span]) -> List[Tuple[str, float]]:
    """The invocation's critical path as ``(segment, duration_ms)`` pairs.

    Phases are already critical-path segments by construction.  For a phase
    that *overlaps* concurrent work (``phase.spec_overlap`` covers both the
    speculative execution and the LVI round trip), the dominant enclosed
    span is named — ``phase.spec_overlap/rpc`` means the network round trip,
    not the execution, set that phase's length (the paper's max(exec, RTT)
    argument, §3.2), ``.../rpc+retransmit`` that the round trip waited
    out a retransmission timeout (a lost request or reply), and
    ``.../rpc+relay`` that its answer came back through a relay region
    (a detour around a lossy direct path).
    """
    eps = 1e-9
    phases = sorted(
        (s for s in trace_spans if s.kind == SPAN_KIND_PHASE and s.finished),
        key=lambda s: (s.start_ms, s.span_id),
    )
    others = [
        s for s in trace_spans
        if s.kind not in (SPAN_KIND_PHASE, SPAN_KIND_INVOCATION) and s.finished
    ]
    segments: List[Tuple[str, float]] = []
    for phase in phases:
        inside = [
            s for s in others
            if s.start_ms >= phase.start_ms - eps
            and s.end_ms is not None
            and s.end_ms <= phase.end_ms + eps
            and s.duration_ms > 0
        ]
        label = phase.name
        if inside:
            dominant = max(inside, key=lambda s: (s.duration_ms, -s.span_id))
            # Only annotate when the enclosed span actually determines the
            # phase length (covers its tail within tolerance of jitterless
            # scheduling).
            if abs(dominant.end_ms - phase.end_ms) <= 1e-6:
                label = f"{phase.name}/{dominant.name}"
                if dominant.attrs.get("relayed"):
                    label += "+relay"
                elif dominant.attrs.get("retransmits"):
                    label += "+retransmit"
        segments.append((label, phase.duration_ms))
    return segments


def critical_path_signatures(spans: Iterable[Span]) -> Dict[str, int]:
    """Histogram of critical-path shapes across all invocation traces —
    e.g. ``overhead → frw → spec_overlap/rpc`` for RTT-bound requests."""
    grouped = group_traces(spans)
    signatures: Dict[str, int] = {}
    for trace_id in sorted(grouped):
        trace = grouped[trace_id]
        if not any(s.kind == SPAN_KIND_INVOCATION for s in trace):
            continue
        sig = " -> ".join(name for name, _dur in critical_path(trace))
        if sig:
            signatures[sig] = signatures.get(sig, 0) + 1
    return signatures
