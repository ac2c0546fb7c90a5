"""Exporters: Chrome trace-event JSON and flat metrics.

The Chrome trace-event format (the ``traceEvents`` JSON Object Format)
is what Perfetto and ``about:tracing`` load directly.  Spans become
``"X"`` (complete) events with microsecond timestamps — conveniently
the simulator's native unit — and each kernel process becomes a track
(``tid``) named via ``"M"`` metadata events, so the interleaving of
query, transfer and device processes is visible on a real timeline.
"""

from __future__ import annotations

import json
from typing import Any

from .tracer import TraceRecorder

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]

#: Synthetic process id: the whole simulation is one "process".
TRACE_PID = 1


def to_chrome_trace(tracer: TraceRecorder, label: str = "repro-sim") -> dict[str, Any]:
    """Render every recorded span as a Chrome trace-event JSON object."""
    end_of_trace = tracer.sim.now
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for tid in sorted(tracer.thread_names):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": tracer.thread_names[tid]},
            }
        )
    for span in tracer.spans:
        end = span.end_us if span.end_us is not None else end_of_trace
        args: dict[str, Any] = {"span_id": span.sid, "parent_id": span.parent_id}
        if span.args:
            for key, value in span.args.items():
                args[key] = value if isinstance(value, (int, float, str, bool)) else str(value)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.cat or "span",
                "ts": span.start_us,
                "dur": max(0.0, end - span.start_us),
                "pid": TRACE_PID,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: TraceRecorder, path: str, label: str = "repro-sim") -> str:
    """Serialize the trace to ``path``; returns the path for convenience."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tracer, label=label), fh, indent=1)
    return path


def validate_chrome_trace(obj: Any) -> list[dict[str, Any]]:
    """Assert the trace-event JSON shape Perfetto expects.

    Returns the event list on success; raises ``ValueError`` describing
    the first malformed event otherwise.  Used by the exporter tests
    and by ``examples/trace_a_query.py`` on the trace it writes.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("trace must be an object with a 'traceEvents' key")
    events = obj["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {index} is missing {key!r}")
        phase = event["ph"]
        if phase == "M":
            continue
        if phase != "X":
            raise ValueError(f"event {index} has unexpected phase {phase!r}")
        for key in ("ts", "dur", "cat", "args"):
            if key not in event:
                raise ValueError(f"event {index} ('{event['name']}') is missing {key!r}")
        if event["ts"] < 0 or event["dur"] < 0:
            raise ValueError(f"event {index} has negative ts/dur")
        # The whole document must round-trip as JSON (catches raw
        # objects smuggled into args).
        json.dumps(event)
    return events
