"""The trace recorder and its zero-overhead null object.

Every instrumented component (engine, channel, controller, crossbar)
holds a ``recorder`` attribute that defaults to :data:`NULL_RECORDER`,
whose ``enabled`` is ``False``. Emission sites are guarded with ``if
recorder.enabled:`` — on the disabled path that is one attribute read
on *cold* code (REF execution, ALERT assertion, batch-level flushes,
post-hoc passes over served batches), and nothing at all inside the
struct-of-arrays hot loops, which are never instrumented. Attaching a
recorder changes no dispatch decision anywhere (see
:meth:`repro.mc.controller.MemoryController.serve_streams`): results
with tracing enabled are bit-identical to results without.

Per-request queue/crossbar events are not emitted from the serving
loops at all: they are *derived* after the fact from the
:class:`~repro.mc.controller.ServedBatch` struct-of-arrays
(:func:`record_batch_events`), so enabled-tracing overhead is one
linear pass per served stream, and disabled-tracing overhead is one
``enabled`` check per stream.

The enabled recorder is columnar: one typed array per
:class:`~repro.obs.events.TraceEvent` field, the kind stored as its
:data:`~repro.obs.events.KIND_CODE`. Recording appends to the arrays
and builds no per-event object; :class:`EventRows` views compute a
value per event from the columns only when read.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import EVENT_KINDS, KIND_CODE, TraceEvent


class NullRecorder:
    """The disabled recorder: never collects, never allocates.

    ``enabled`` is a class attribute so the guard is a plain attribute
    read; :meth:`emit` exists only so an unguarded call site would fail
    loudly in tests rather than silently diverge (guarded sites never
    call it).
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, ts_ns: float, dur_ns: float = 0.0,
             sub: int = 0, bank: int = -1, client: int = -1,
             value: float = 0.0) -> None:
        """No-op (the enabled guard should have skipped this call)."""


#: The shared disabled recorder every component starts with.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects typed, sim-time-stamped events from an enabled run.

    Distinct from :class:`repro.trace.TraceRecorder` (the
    activation-address trace wrapper): this one records the
    observability event stream. It is deliberately not re-exported at
    the ``repro`` top level — spell it ``repro.obs.TraceRecorder``.

    Events are stored column by column in emission order: ``codes``
    (kind codes), ``ts_ns``, ``dur_ns`` and ``value`` (doubles),
    ``sub``, ``bank`` and ``client`` (signed 64-bit ints).

    Args:
        meta: Free-form run identity recorded into the artifact
            (workload name, policy, n_trefi, ...).
    """

    __slots__ = ("codes", "ts_ns", "dur_ns", "sub", "bank", "client",
                 "value", "meta")

    enabled = True

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.codes = array("B")
        self.ts_ns = array("d")
        self.dur_ns = array("d")
        self.sub = array("q")
        self.bank = array("q")
        self.client = array("q")
        self.value = array("d")
        self.meta: Dict[str, object] = dict(meta or {})

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "TraceRecorder":
        """A recorder holding ``events``, in order."""
        recorder = cls()
        for event in events:
            recorder.emit(event.kind, event.ts_ns, event.dur_ns, event.sub,
                          event.bank, event.client, event.value)
        return recorder

    def emit(self, kind: str, ts_ns: float, dur_ns: float = 0.0,
             sub: int = 0, bank: int = -1, client: int = -1,
             value: float = 0.0) -> None:
        """Record one event (see :class:`~repro.obs.events.TraceEvent`).

        Raises:
            ValueError: ``kind`` is not in :data:`EVENT_KINDS`.
        """
        try:
            code = KIND_CODE[kind]
        except KeyError:
            raise ValueError(
                f"unregistered trace event kind {kind!r} "
                f"(registered: {', '.join(EVENT_KINDS)})"
            ) from None
        self.codes.append(code)
        self.ts_ns.append(ts_ns)
        self.dur_ns.append(dur_ns)
        self.sub.append(sub)
        self.bank.append(bank)
        self.client.append(client)
        self.value.append(value)

    def columns(self) -> Tuple[array, ...]:
        """The columns, in :class:`TraceEvent` field order."""
        return (self.codes, self.ts_ns, self.dur_ns, self.sub, self.bank,
                self.client, self.value)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def events(self) -> "EventRows":
        """Read-only view of the events recorded so far, as
        :class:`TraceEvent` objects built on access."""
        return EventRows(self, _event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Every recorded event of ``kind``, in emission order."""
        code = KIND_CODE.get(kind)
        return [_event(*fields) for fields in zip(*self.columns())
                if fields[0] == code]

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        code = KIND_CODE.get(kind)
        return 0 if code is None else self.codes.count(code)

    def counts(self) -> Dict[str, int]:
        """Kind -> count over every registered kind (zeros included)."""
        return {kind: self.codes.count(code)
                for kind, code in KIND_CODE.items()}


def _event(code: int, ts_ns: float, dur_ns: float, sub: int, bank: int,
           client: int, value: float) -> TraceEvent:
    return TraceEvent(EVENT_KINDS[code], ts_ns, dur_ns, sub, bank, client,
                      value)


class EventRows(Sequence):
    """Read-only sequence of one value per recorded event.

    ``row(code, ts_ns, dur_ns, sub, bank, client, value)`` computes the
    value of one event from its column entries, on each access. The
    view covers the events recorded when it was made, followed by the
    plain values of ``tail``. It compares equal to a list of the same
    values.
    """

    __slots__ = ("_columns", "_n", "_row", "_tail")

    def __init__(self, recorder: TraceRecorder, row: Callable[..., object],
                 tail: Iterable[object] = ()) -> None:
        self._columns = recorder.columns()
        self._n = len(recorder)
        self._row = row
        self._tail = list(tail)

    def columns(self) -> List[array]:
        """The viewed column entries (copies, in field order)."""
        return [column[:self._n] for column in self._columns]

    def __len__(self) -> int:
        return self._n + len(self._tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        if index >= self._n:
            return self._tail[index - self._n]
        return self._row(*[column[index] for column in self._columns])

    def __iter__(self):
        yield from map(self._row, *self.columns())
        yield from self._tail

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventRows):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def record_batch_events(recorder: TraceRecorder, batch,
                        sub_base: int = 0) -> None:
    """Derive per-request queue events from a served batch, post hoc.

    ``batch`` is a :class:`~repro.mc.controller.ServedBatch` (duck
    typed: ``requests``/``ridx``/``enqueue_ns``/``start_ns``/
    ``complete_ns``). Appends to the recorder's columns, per
    completion: ``queue-stall`` (only when admission was delayed past
    arrival), ``queue-admit``, ``queue-issue`` (``value`` = queued
    time), and ``complete`` (``value`` = end-to-end latency) —
    everything the serving loops know, recovered with zero cost inside
    them.
    """
    stall, admit, issue, complete = (
        KIND_CODE[kind]
        for kind in ("queue-stall", "queue-admit", "queue-issue", "complete")
    )
    codes, ts_col, dur_col, sub_col, bank_col, client_col, value_col = (
        column.append for column in recorder.columns()
    )

    def add(code: int, ts_ns: float, dur_ns: float, value: float) -> None:
        codes(code)
        ts_col(ts_ns)
        dur_col(dur_ns)
        sub_col(sub)
        bank_col(bank)
        client_col(client)
        value_col(value)

    requests = batch.requests
    ridx = batch.ridx
    enqueue_ns = batch.enqueue_ns
    start_ns = batch.start_ns
    complete_ns = batch.complete_ns
    for i in range(len(ridx)):
        req = requests[ridx[i]]
        arrival = req.issue_ns
        enq = enqueue_ns[i]
        start = start_ns[i]
        done = complete_ns[i]
        sub = sub_base + req.subchannel
        bank = req.bank
        client = req.client
        if enq > arrival:
            add(stall, arrival, enq - arrival, 0.0)
        add(admit, enq, 0.0, 0.0)
        add(issue, start, done - start, start - enq)
        add(complete, done, 0.0, done - arrival)


def merged_events(recorders: Iterable[TraceRecorder]) -> List[TraceEvent]:
    """Concatenate several recorders' event streams (shard merge)."""
    out: List[TraceEvent] = []
    for recorder in recorders:
        out.extend(recorder.events)
    return out
