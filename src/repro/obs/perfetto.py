"""Chrome/Perfetto trace-event JSON export.

Maps the recorded event stream onto the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``ui.perfetto.dev`` and ``chrome://tracing``: each
sub-channel becomes a process, each event kind becomes a thread-like
track inside it, duration events render as slices ("X") and
zero-duration events as instants ("i"). Timestamps are microseconds in
the format, so simulated nanoseconds are divided by 1000;
``displayTimeUnit`` keeps the UI readout in ns.

:func:`_fields` is the one per-event mapping and :func:`_record` lays
its result out as a record. :func:`perfetto_view` serves the records as
a view over a recorder's columns that encodes itself with one template
per (kind, phase), compiled from :func:`_record`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.encoding import JsonRows
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.recorder import TraceRecorder


def _fields(code: int, ts_ns: float, dur_ns: float, sub: int, bank: int,
            client: int, value: float) -> Tuple[int, tuple]:
    """The trace-event mapping of one event: ``(shape, fields)``.

    Positive-duration events are slices, the rest instants; the kind's
    code is its track id; times go from ns to µs. ``shape`` is
    ``2 * code + 1`` for a slice and ``2 * code`` for an instant;
    ``fields`` follow the record's sorted keys.
    """
    if dur_ns > 0:
        return 2 * code + 1, (bank, client, value, dur_ns / 1000.0, sub,
                              code, ts_ns / 1000.0)
    return 2 * code, (bank, client, value, sub, code, ts_ns / 1000.0)


def _record(shape: int, fields: tuple) -> Dict[str, object]:
    """The trace-event record of one event's :func:`_fields`."""
    if shape & 1:
        bank, client, value, dur, pid, tid, ts = fields
        phase: Dict[str, object] = {"ph": "X", "dur": dur}
    else:
        bank, client, value, pid, tid, ts = fields
        phase = {"ph": "i", "s": "t"}
    return {
        "name": EVENT_KINDS[shape >> 1],
        "cat": "repro",
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "args": {"bank": bank, "client": client, "value": value},
        **phase,
    }


def perfetto_view(recorder: TraceRecorder) -> Dict[str, object]:
    """The trace-event dict of a recorder's events.

    ``traceEvents`` is a :class:`~repro.obs.encoding.JsonRows` view:
    one record per event, then the metadata records naming each
    sub-channel process and (sub-channel, kind) track.
    """
    names = [
        {"name": "process_name", "ph": "M", "pid": sub, "tid": 0,
         "args": {"name": f"subchannel {sub}"}}
        for sub in sorted(set(recorder.sub))
    ] + [
        {"name": "thread_name", "ph": "M", "pid": sub, "tid": code,
         "args": {"name": EVENT_KINDS[code]}}
        for sub, code in sorted(set(zip(recorder.sub, recorder.codes)))
    ]
    return {
        "traceEvents": JsonRows(recorder, _fields, _record, tail=names),
        "displayTimeUnit": "ns",
    }


def to_perfetto(events: Iterable[TraceEvent],
                meta: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
    """Build a Perfetto-loadable trace-event dict from events."""
    trace = perfetto_view(TraceRecorder.of(events))
    trace["traceEvents"] = list(trace["traceEvents"])
    if meta:
        trace["otherData"] = dict(meta)
    return trace


def write_perfetto(path, events: Iterable[TraceEvent],
                   meta: Optional[Dict[str, object]] = None) -> Path:
    """Write the Perfetto JSON for ``events`` to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(to_perfetto(events, meta), indent=None,
                   separators=(",", ":"), sort_keys=True) + "\n")
    return target
