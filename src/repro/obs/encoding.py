"""Templated ``indent=1`` JSON encoding of per-event rows.

Artifacts are written as ``json.dumps(artifact, indent=1,
sort_keys=True)``, and with ``indent`` set CPython encodes through its
pure-Python generator encoder: several seconds for the few hundred
thousand rows of one traced closed-loop run. :class:`JsonRows` views
encode themselves instead. Each row takes one of a few fixed shapes,
and each shape gets one ``%``-template, compiled from the stdlib
encoding of the shape's own row built with slot markers for its
fields; a row is then one ``template % fields``.
:func:`repro.sweep.artifacts.write_artifact` splices the result into
the stdlib encoding of the rest of the artifact, byte for byte what
the stdlib would have written for the equivalent plain list.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from typing import Callable, Dict, Iterator, Tuple

from repro.obs.recorder import EventRows, TraceRecorder

#: Rows per encoded chunk.
_BLOCK = 4096

#: A compiled slot marker, as the stdlib encodes it.
_SLOT = re.compile(r'"\\u0000(\d+)"')


class _Slot:
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


def _encode(row: object, newline: str, default=None) -> str:
    """Stdlib encoding of ``row`` as an item whose lines follow
    ``newline`` (a newline plus the item's indentation)."""
    return json.dumps(row, indent=1, sort_keys=True,
                      default=default).replace("\n", newline)


def _compile(row: object, newline: str) -> str:
    """The ``%``-template of a row built with :class:`_Slot` fields.

    Each slot becomes ``%r``: for an int or a finite float that prints
    exactly what the stdlib prints. Slots must appear in field order in
    the sorted-key encoding.
    """
    text = _encode(row, newline, default=lambda slot: f"\0{slot.index}")
    order = [int(index) for index in _SLOT.findall(text)]
    if order != list(range(len(order))):
        raise ValueError(f"row fields out of sorted-key order: {order}")
    return _SLOT.sub("%r", text.replace("%", "%%"))


class JsonRows(EventRows):
    """Per-event JSON rows, encoded with one template per row shape.

    Args:
        recorder: The recorder whose events become rows.
        fields: ``fields(code, ts_ns, dur_ns, sub, bank, client,
            value) -> (shape, values)``: an event's row shape (a hashable
            key) and its field values, ints or floats only.
        build: ``build(shape, values) -> row``: the list or dict one
            event stands for.
        tail: Plain rows after the per-event ones.
    """

    __slots__ = ("_fields", "_build")

    def __init__(self, recorder: TraceRecorder,
                 fields: Callable[..., Tuple[object, tuple]],
                 build: Callable[[object, tuple], object],
                 tail=()) -> None:
        super().__init__(recorder,
                         lambda *event: build(*fields(*event)), tail)
        self._fields = fields
        self._build = build

    def json_chunks(self, indent: int) -> Iterator[str]:
        """``json.dumps(list(self), indent=1, sort_keys=True)``, as laid
        out on a line indented by ``indent`` spaces, in chunks.

        A row whose template text shows a non-finite float (``%r``
        prints ``nan``/``inf``, JSON wants ``NaN``/``Infinity``) is
        encoded through the stdlib instead.
        """
        if not len(self):
            yield "[]"
            return
        newline = "\n" + " " * (indent + 1)
        separator = "," + newline
        build = self._build
        templates: Dict[object, str] = {}

        def exact(shape: object, values: tuple) -> str:
            text = templates[shape] % values
            if "nan" in text or "inf" in text:
                return _encode(build(shape, values), newline)
            return text

        opening = "[" + newline
        rows = map(self._fields, *self.columns())
        while True:
            block = list(islice(rows, _BLOCK))
            if not block:
                break
            for shape, values in dict(block).items():
                if shape not in templates:
                    slots = tuple(_Slot(i) for i in range(len(values)))
                    templates[shape] = _compile(build(shape, slots), newline)
            text = separator.join([templates[shape] % values
                                   for shape, values in block])
            if "nan" in text or "inf" in text:
                text = separator.join([exact(shape, values)
                                       for shape, values in block])
            yield opening + text
            opening = separator
        for row in self._tail:
            yield opening + _encode(row, newline)
            opening = separator
        yield "\n" + " " * indent + "]"
