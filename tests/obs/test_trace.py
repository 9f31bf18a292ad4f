"""Tracer mechanics: no-op default, scoping, export round-trip."""

import dataclasses

import pytest

from repro.obs import trace as T
from repro.obs.trace import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    active_tracer,
    emit,
    load_jsonl,
    set_tracer,
    tracing,
)


class TestDefaultOff:
    def test_null_tracer_is_default(self):
        assert active_tracer() is NULL_TRACER
        assert not active_tracer().enabled

    def test_module_emit_is_swallowed(self):
        emit(T.REQUEST, 1.0, block=1)
        assert len(NULL_TRACER.events) == 0

    def test_null_tracer_emit_is_swallowed(self):
        NULL_TRACER.emit(T.BIND, 2.0, block=1)
        assert len(NULL_TRACER) == 0


class TestScoping:
    def test_tracing_captures_and_restores(self):
        with tracing() as t:
            assert active_tracer() is t
            emit(T.PENDING, 0.5, block=7)
        assert active_tracer() is NULL_TRACER
        assert len(t) == 1
        assert t.events[0] == TraceEvent(T.PENDING, 0.5, {"block": 7})

    def test_nested_tracing_restores_outer(self):
        with tracing() as outer:
            emit(T.REQUEST, 0.0, block=1)
            with tracing() as inner:
                emit(T.BIND, 1.0, block=1)
            emit(T.MLOCK_START, 2.0, block=1)
        assert [e.type for e in outer.events] == [T.REQUEST, T.MLOCK_START]
        assert [e.type for e in inner.events] == [T.BIND]

    def test_set_tracer_returns_previous(self):
        t = Tracer()
        prev = set_tracer(t)
        try:
            assert prev is NULL_TRACER
            assert active_tracer() is t
        finally:
            set_tracer(prev)

    def test_exception_restores_tracer(self):
        try:
            with tracing():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active_tracer() is NULL_TRACER


class TestBuffer:
    def test_of_type_filters_in_stream_order(self):
        t = Tracer()
        t.emit(T.PENDING, 0.0, block=1)
        t.emit(T.BIND, 1.0, block=1)
        t.emit(T.PENDING, 2.0, block=2)
        picked = t.of_type(T.PENDING)
        assert [e.fields["block"] for e in picked] == [1, 2]

    def test_clear(self):
        t = Tracer()
        t.emit(T.REQUEST, 0.0, block=1)
        t.clear()
        assert len(t) == 0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        t = Tracer()
        t.emit(T.REQUEST, 0.0, block=3, job="j1")
        t.emit(T.MLOCK_DONE, 4.5, block=3, node=2, duration=4.5)
        t.emit(T.UNREFERENCED, None, block=3)
        path = t.dump_jsonl(tmp_path / "trace.jsonl")
        events = load_jsonl(path)
        assert events == t.events

    def test_lines_are_parseable_json(self, tmp_path):
        import json

        t = Tracer()
        t.emit(T.BIND, 1.25, block=1, node=0, queue_depth=2)
        path = t.dump_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload == {
            "type": "bind",
            "time": 1.25,
            "block": 1,
            "node": 0,
            "queue_depth": 2,
        }


class TestSlottedEvent:
    """``TraceEvent`` is a frozen, slotted record: no per-instance
    ``__dict__``, with equality and the JSON round trip unchanged."""

    def test_no_instance_dict(self):
        event = TraceEvent(T.BIND, 1.0, {"block": 1, "node": 0})
        assert not hasattr(event, "__dict__")
        assert TraceEvent.__slots__ == ("type", "time", "fields")

    def test_frozen(self):
        event = TraceEvent(T.BIND, 1.0, {"block": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 2.0  # type: ignore[misc]

    def test_equality_is_by_value(self):
        a = TraceEvent(T.MLOCK_DONE, 4.5, {"block": 3, "node": 2})
        assert a == TraceEvent(T.MLOCK_DONE, 4.5, {"node": 2, "block": 3})
        assert a != TraceEvent(T.MLOCK_DONE, 4.0, {"block": 3, "node": 2})
        assert a != TraceEvent(T.MLOCK_ABORT, 4.5, {"block": 3, "node": 2})
        assert TraceEvent(T.REQUEST, None) == TraceEvent(T.REQUEST, None, {})

    def test_json_round_trip(self, tmp_path):
        event = TraceEvent(T.BIND, 1.25, {"block": 1, "node": 0, "queue_depth": 2})
        line = event.to_json()
        assert line == (
            '{"block": 1, "node": 0, "queue_depth": 2, "time": 1.25, '
            '"type": "bind"}'
        )
        assert TraceEvent.from_json(line) == event
        t = Tracer()
        t.emit(T.UNREFERENCED, None, block=3)
        t.emit(T.BIND, 1.25, block=1, node=0, queue_depth=2)
        loaded = load_jsonl(t.dump_jsonl(tmp_path / "trace.jsonl"))
        assert loaded == t.events
        assert loaded[1] == event
