"""Plain-text table formatting for benchmark output.

Benchmarks print the same rows the paper's figures plot; these
helpers keep the output uniform and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table", "format_metrics"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_metrics(registry: Any, prefix: str = "", title: str = "") -> str:
    """Render a :class:`~repro.telemetry.MetricsRegistry` as a table.

    Uses the registry's :meth:`flat` view, so histograms arrive already
    expanded into their summary statistics.  ``prefix`` narrows the
    dump to one subtree (e.g. ``"server.db"``).
    """
    flat = registry.flat(prefix)
    rows = [(name, flat[name]) for name in sorted(flat)]
    return format_table(
        ["metric", "value"], rows, title=title or f"metrics: {registry.name}"
    )
