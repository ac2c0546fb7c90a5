"""Critical-path analysis: where did this query spend its time?

The paper's Figure 11 and Figure 14 drill-downs decompose observed
latency into device service, network and CPU components read off
perfmon.  This module does the simulation-side equivalent from a span
trace: given a root span (a query, a page fault, one I/O), attribute
every microsecond of its wall-clock interval to a category.

Attribution rule: for each elementary time interval, among the
*categorized* descendant spans covering it, the **deepest** one wins —
a ``cpu.compute`` span nested inside an ``rdma.read`` counts as CPU,
not network.  Ties (same depth, overlapping concurrent children) break
toward the later-starting, then higher-sid span, which keeps the
decomposition deterministic.  Time inside the root covered by no
categorized descendant is reported as ``"blocked"`` — the query was
waiting on something the trace has no category for (event waits,
scheduler gaps).

Overlap caveat: categories are attributed by *wall-clock coverage* of
the root interval, not summed service time — two concurrent disk reads
covering the same 100 µs contribute 100 µs of ``disk``, exactly like a
perfmon utilization counter would.
"""

from __future__ import annotations

from typing import Optional

from .tracer import Span, TraceRecorder

__all__ = ["CATEGORIES", "decompose", "format_breakdown"]

#: Categories instrumentation sites use, in display order.
CATEGORIES = ("cpu", "net", "disk", "queue", "rpc", "fault")


def _descendants(tracer: TraceRecorder, root: Span) -> list[Span]:
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    out: list[Span] = []
    frontier = [root.sid]
    while frontier:
        sid = frontier.pop()
        for child in children.get(sid, ()):
            out.append(child)
            frontier.append(child.sid)
    return out


def decompose(tracer: TraceRecorder, root: Span) -> dict[str, float]:
    """Decompose ``root``'s latency into per-category microseconds.

    Returns ``{category: us, ..., "blocked": us, "total": us}`` where
    the categories plus ``blocked`` sum to ``total`` (the root span's
    duration), up to float rounding.
    """
    end_default = tracer.sim.now
    root_start = root.start_us
    root_end = root.end_us if root.end_us is not None else end_default
    total = max(0.0, root_end - root_start)
    out = {category: 0.0 for category in CATEGORIES}
    out["blocked"] = total
    out["total"] = total
    if total <= 0.0:
        return out

    # Clip categorized descendants to the root interval.
    clipped: list[tuple[float, float, int, int, str]] = []
    boundaries = {root_start, root_end}
    for span in _descendants(tracer, root):
        if span.cat not in CATEGORIES:
            continue
        start = max(root_start, span.start_us)
        end = min(root_end, span.end_us if span.end_us is not None else end_default)
        if end <= start:
            continue
        clipped.append((start, end, span.depth, span.sid, span.cat))
        boundaries.add(start)
        boundaries.add(end)
    if not clipped:
        return out

    # Sweep the elementary intervals; deepest active categorized span
    # wins, ties break toward later start then larger sid.
    edges = sorted(boundaries)
    attributed = 0.0
    for left, right in zip(edges, edges[1:]):
        width = right - left
        if width <= 0.0:
            continue
        winner: Optional[tuple[int, float, int, str]] = None
        for start, end, depth, sid, cat in clipped:
            if start <= left and end >= right:
                key = (depth, start, sid)
                if winner is None or key > (winner[0], winner[1], winner[2]):
                    winner = (depth, start, sid, cat)
        if winner is not None:
            out[winner[3]] += width
            attributed += width
    out["blocked"] = max(0.0, total - attributed)
    return out


def format_breakdown(breakdown: dict[str, float], title: str = "critical path") -> str:
    """Render a decomposition as an aligned text table (µs and %)."""
    total = breakdown.get("total", 0.0)
    lines = [title, "-" * len(title)]
    for key, value in breakdown.items():
        if key == "total":
            continue
        share = 100.0 * value / total if total > 0 else 0.0
        lines.append(f"{key:>10s}  {value:12.1f} us  {share:5.1f}%")
    lines.append(f"{'total':>10s}  {total:12.1f} us  100.0%")
    return "\n".join(lines)
