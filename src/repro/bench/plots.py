"""Terminal bar charts for the figure scenarios.

The paper's figures are grouped bar charts (median bars, p99 whiskers).
These helpers render the same shape in plain text so `radical-repro run
fig4` and friends show a *figure*, not just a table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["bar_chart", "grouped_bar_chart"]

_FULL = "█"
_MARK = "▏"


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "ms",
    markers: Optional[Sequence[Optional[float]]] = None,
    title: str = "",
) -> str:
    """One horizontal bar per label; optional marker per bar (e.g. p99).

    Bars are scaled to the maximum of values and markers.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    marks = list(markers) if markers is not None else [None] * len(labels)
    peak = max(
        [v for v in values] + [m for m in marks if m is not None] + [1e-9]
    )
    label_w = max((len(l) for l in labels), default=0)
    lines = []
    if title:
        lines.append(title)
    for label, value, mark in zip(labels, values, marks):
        bar_len = max(1, round(value / peak * width)) if value > 0 else 0
        bar = _FULL * bar_len
        if mark is not None:
            mark_pos = min(width, round(mark / peak * width))
            if mark_pos > bar_len:
                bar = bar + " " * (mark_pos - bar_len - 1) + _MARK
        suffix = f" {value:.0f} {unit}"
        if mark is not None:
            suffix += f" (p99 {mark:.0f})"
        lines.append(f"{label.rjust(label_w)} |{bar.ljust(width)}|{suffix}")
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Sequence[str],
    series: Dict[str, Sequence[float]],
    width: int = 50,
    unit: str = "ms",
    title: str = "",
) -> str:
    """Figure-4-style grouped bars: per group, one bar per series."""
    peak = max((v for values in series.values() for v in values), default=1e-9)
    name_w = max((len(n) for n in series), default=0)
    group_w = max((len(g) for g in groups), default=0)
    lines = []
    if title:
        lines.append(title)
    for gi, group in enumerate(groups):
        lines.append(f"{group}")
        for name, values in series.items():
            value = values[gi]
            bar_len = max(1, round(value / peak * width)) if value > 0 else 0
            lines.append(
                f"  {name.rjust(name_w)} |{(_FULL * bar_len).ljust(width)}| "
                f"{value:.0f} {unit}"
            )
    return "\n".join(lines)
