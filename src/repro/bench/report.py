"""Plain-text table rendering and JSON persistence for experiment output.

Every scenario prints the same rows/series the paper's figures and tables
report via these helpers; :func:`save_results` is the canonical artifact
writer, and the scenario driver (:mod:`repro.scenarios.driver`) its only
caller — nothing else writes ``results/``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "format_table",
    "print_table",
    "save_results",
    "load_results",
    "results_dir",
    "format_breakdown_report",
    "print_breakdown_report",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned fixed-width table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}" if abs(value) >= 10 else f"{value:.2f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def print_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> None:
    print()
    print(format_table(headers, rows, title))
    print()


def results_dir() -> str:
    """The repo-local results directory (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(here, "results")
    os.makedirs(path, exist_ok=True)
    return path


def format_breakdown_report(breakdowns: Sequence[Any], title: str = "Latency breakdown") -> str:
    """Render the per-invocation latency decomposition (paper §5.5 style).

    ``breakdowns`` are :class:`repro.obs.Breakdown` objects (one per
    invocation); the report aggregates them per protocol path and phase.
    Every breakdown is balance-checked first — phases must sum to the
    recorded e2e latency within float tolerance, or rendering refuses.
    """
    from ..obs import assert_balanced, phase_summary_rows

    breakdowns = list(breakdowns)
    if not breakdowns:
        return f"{title}: no invocation traces recorded"
    assert_balanced(breakdowns)
    rows = phase_summary_rows(breakdowns)
    return format_table(
        ["path", "phase", "count", "mean (ms)", "p50 (ms)", "p99 (ms)", "share %"],
        [[r["path"], r["phase"], r["count"], r["mean_ms"], r["p50_ms"],
          r["p99_ms"], r["share_pct"]] for r in rows],
        title=title,
    )


def print_breakdown_report(breakdowns: Sequence[Any], title: str = "Latency breakdown") -> None:
    print()
    print(format_breakdown_report(breakdowns, title))
    print()


def save_results(name: str, payload: Dict[str, Any]) -> str:
    """Persist one scenario's payload as ``results/<name>.json`` (sorted
    keys, so the bytes are a function of the payload alone)."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    return path


def load_results(name: str) -> Optional[Dict[str, Any]]:
    """The ``results/<name>.json`` on disk, decoded; None when absent."""
    path = os.path.join(results_dir(), f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
