"""Self-time arithmetic and attribute wrapping of the span recorder."""

from __future__ import annotations

import types

import pytest

from spans import SpanRecorder, wrap


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("root"):            # 0 .. 10
        clock.now = 1.0
        with rec.span("a"):           # 1 .. 4
            clock.now = 2.0
            with rec.span("a1"):      # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("b"):           # 5 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert [s.name for s in rec.spans] == ["root", "a", "a1", "b"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert rec.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(rec.self_times()) == pytest.approx(rec.spans[0].duration)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with pytest.raises(ValueError):
        with rec.span("outer"):
            clock.now = 2.0
            raise ValueError
    with rec.span("next"):
        pass
    assert rec.spans[0].duration == 2.0
    assert rec.spans[1].parent == -1


def test_wrap_module_function_method_and_classmethod_then_undo():
    class Store:
        def get(self, k):
            return k * 2

        @classmethod
        def open(cls, n):
            return [n] * n

    module = types.SimpleNamespace(load=lambda path: [1, 2, 3])
    original_load = module.load
    rec = SpanRecorder()
    undo = [
        wrap(rec, module, "load", "io.load", lambda r, path: {"rows": len(r)}),
        wrap(rec, Store, "get", "store.get"),
        wrap(rec, Store, "open", lambda cls, n: f"store.open.{n}"),
    ]
    assert module.load("x") == [1, 2, 3]
    assert Store().get(4) == 8
    assert Store.open(2) == [2, 2]
    assert [(s.name, s.counts) for s in rec.spans] == [
        ("io.load", {"rows": 3}), ("store.get", {}), ("store.open.2", {}),
    ]
    for u in undo:
        u()
    assert module.load is original_load
    assert isinstance(vars(Store)["open"], classmethod)
    Store.open(1)
    Store().get(1)
    assert len(rec.spans) == 3
