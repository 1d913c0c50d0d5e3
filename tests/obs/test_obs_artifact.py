"""``repro.obs/v1`` artifact round-trip and Perfetto export schema."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    EVENT_KINDS,
    OBS_SCHEMA,
    TraceRecorder,
    artifact_events,
    artifact_histograms,
    histogram_of,
    load_obs_artifact,
    make_obs_artifact,
    summarize_obs,
    to_perfetto,
    write_perfetto,
)
from repro.obs.events import TraceEvent
from repro.obs.encoding import _BLOCK
from repro.obs.events import KIND_CODE
from repro.sweep.artifacts import write_artifact


def _sample_recorder() -> TraceRecorder:
    """One event of every kind, spread over two sub-channels."""
    recorder = TraceRecorder(meta={"workload": "sample", "n_trefi": 4})
    recorder.emit("act-burst", 100.0, sub=0, bank=1, value=3.0)
    recorder.emit("ref", 200.0, 410.0, sub=0)
    recorder.emit("alert", 350.0, 180.0, sub=1, value=2.0)
    recorder.emit("queue-stall", 400.0, 50.0, sub=1, bank=2, client=0)
    recorder.emit("queue-admit", 450.0, sub=1, bank=2, client=0)
    recorder.emit("queue-issue", 500.0, 60.0, sub=1, bank=2, client=0,
                  value=50.0)
    recorder.emit("grant", 450.0, sub=1, bank=2, client=0)
    recorder.emit("complete", 560.0, sub=1, bank=2, client=0, value=160.0)
    return recorder


def test_artifact_json_roundtrip(tmp_path):
    recorder = _sample_recorder()
    artifact = make_obs_artifact(recorder, n_trefi=4, t_refi_ns=3900.0)
    path = tmp_path / "trace.json"
    write_artifact(path, artifact)

    loaded = load_obs_artifact(path)
    assert loaded["schema"] == OBS_SCHEMA
    assert artifact_events(loaded) == recorder.events
    assert loaded["counts"] == recorder.counts()
    assert loaded["meta"]["workload"] == "sample"
    revived = artifact_histograms(loaded)
    assert revived["request_latency_ns"] == histogram_of(
        recorder.events, "complete", "value"
    )
    assert loaded["series"]["n_trefi"] == 4
    assert len(loaded["series"]["alerts"]) == 4
    # Provenance is always present on observability artifacts.
    assert loaded["provenance"]["provenance_version"] == 1
    assert "backend" in loaded["provenance"]


def test_artifact_counts_keep_zero_kinds():
    recorder = TraceRecorder()
    recorder.emit("ref", 0.0, 410.0)
    artifact = make_obs_artifact(recorder)
    assert set(artifact["counts"]) == set(EVENT_KINDS)
    assert artifact["counts"]["ref"] == 1
    assert artifact["counts"]["alert"] == 0


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "other.json"
    write_artifact(path, {"schema": "repro.sweep/v1", "points": []})
    with pytest.raises(ValueError):
        load_obs_artifact(path)


def test_event_row_roundtrip():
    event = TraceEvent(kind="complete", ts_ns=12.5, dur_ns=0.0, sub=3,
                       bank=7, client=2, value=160.25)
    assert TraceEvent.from_row(event.to_row()) == event


def test_summarize_rows_cover_counts_and_provenance():
    artifact = make_obs_artifact(_sample_recorder(), n_trefi=4,
                                 t_refi_ns=3900.0)
    rows = dict(summarize_obs(artifact))
    assert rows["schema"] == OBS_SCHEMA
    assert rows["events"] == 8
    assert rows["events:alert"] == 1
    assert "prov:backend" in rows
    assert rows["meta:workload"] == "sample"


def test_perfetto_export_schema():
    recorder = _sample_recorder()
    trace = to_perfetto(recorder.events, meta=recorder.meta)
    assert trace["displayTimeUnit"] == "ns"
    assert trace["otherData"]["workload"] == "sample"

    events = trace["traceEvents"]
    real = [e for e in events if e["ph"] in ("X", "i")]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(real) == len(recorder.events)
    # Chrome trace-event timestamps are microseconds.
    ref = next(e for e in real if e["name"] == "ref")
    assert ref["ph"] == "X"
    assert ref["ts"] == 200.0 / 1000.0
    assert ref["dur"] == 410.0 / 1000.0
    admit = next(e for e in real if e["name"] == "queue-admit")
    assert admit["ph"] == "i" and admit["s"] == "t"
    for event in real:
        assert event["pid"] in (0, 1)
        assert event["tid"] == KIND_CODE[event["name"]]
        assert set(event["args"]) == {"bank", "client", "value"}
    # Every (sub, kind) lane is named for the viewer.
    names = {e["name"] for e in meta}
    assert names == {"process_name", "thread_name"}


def test_perfetto_embedded_in_artifact_and_file_export(tmp_path):
    recorder = _sample_recorder()
    artifact = make_obs_artifact(recorder)
    # The artifact itself is Perfetto-loadable: the JSON loader reads
    # traceEvents and ignores the repro-specific keys.
    assert artifact["displayTimeUnit"] == "ns"
    assert [e for e in artifact["traceEvents"] if e["ph"] != "M"]

    out = write_perfetto(tmp_path / "t.perfetto.json", recorder.events)
    loaded = json.loads(out.read_text())
    assert set(loaded) == {"traceEvents", "displayTimeUnit"}
    assert len(loaded["traceEvents"]) == len(artifact["traceEvents"])


def test_emit_rejects_unregistered_kinds():
    recorder = TraceRecorder()
    with pytest.raises(ValueError, match="'queue-admitt'"):
        recorder.emit("queue-admitt", 10.0)
    assert len(recorder) == 0
    assert recorder.counts() == {kind: 0 for kind in EVENT_KINDS}


def _plain_reference(artifact, events):
    """The artifact as plain lists and dicts, the stdlib's way."""
    return dict(
        artifact,
        events=[event.to_row() for event in events],
        traceEvents=to_perfetto(events)["traceEvents"],
    )


def _assert_written_as_stdlib(path, recorder, events):
    artifact = make_obs_artifact(recorder, meta={"note": "nan%inf"},
                                 provenance={"backend": "pure"})
    reference = _plain_reference(artifact, events)
    write_artifact(path, artifact)
    assert path.read_bytes() == (
        json.dumps(reference, indent=1, sort_keys=True) + "\n"
    ).encode()
    return artifact, reference


_int64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.5, 1e300, -1e-300,
                     math.nan, math.inf, -math.inf]),
)
_events = st.lists(
    st.builds(
        TraceEvent,
        kind=st.sampled_from(EVENT_KINDS),
        ts_ns=_floats,
        dur_ns=st.one_of(st.just(0.0), _floats),
        sub=st.one_of(st.integers(0, 3), _int64),
        bank=st.one_of(st.integers(-1, 15), _int64),
        client=st.one_of(st.integers(-1, 3), _int64),
        value=_floats,
    ),
    max_size=40,
)


@given(events=_events)
@settings(max_examples=300, deadline=None)
def test_written_artifact_is_the_stdlib_encoding(tmp_path_factory, events):
    """The templated writer's bytes equal the stdlib encoding of the
    same artifact built from plain lists and dicts."""
    recorder = TraceRecorder()
    for event in events:
        recorder.emit(event.kind, event.ts_ns, event.dur_ns, event.sub,
                      event.bank, event.client, event.value)
    path = tmp_path_factory.getbasetemp() / "differential.obs.json"
    artifact, reference = _assert_written_as_stdlib(path, recorder, events)
    assert len(artifact["events"]) == len(reference["events"])
    if not any(math.isnan(x) for event in events
               for x in (event.ts_ns, event.dur_ns, event.value)):
        # NaN != NaN, so only NaN-free views can compare equal.
        assert artifact["events"] == reference["events"]
        assert artifact["traceEvents"] == reference["traceEvents"]
        assert list(artifact["events"]) == reference["events"]
        if events:
            assert artifact["events"][-1] == reference["events"][-1]
            assert artifact["traceEvents"][0] == reference["traceEvents"][0]


def test_written_artifact_spans_encoding_blocks(tmp_path):
    """Several encoding blocks, one non-finite row in a later block."""
    recorder = TraceRecorder()
    for i in range(2 * _BLOCK + 5):
        kind = EVENT_KINDS[i % len(EVENT_KINDS)]
        value = math.inf if i == _BLOCK + 7 else i / 7.0
        recorder.emit(kind, i * 1.25, float(i % 3), sub=i % 2,
                      bank=i % 4, value=value)
    _assert_written_as_stdlib(tmp_path / "t.json", recorder,
                              list(recorder.events))
