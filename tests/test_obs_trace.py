"""Unit tests for the span tracer (repro.obs.trace)."""

import time

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
)


class TestSpanNesting:
    def test_parent_child_ids(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert inner.span.parent_id == outer.span.span_id
        assert outer.span.parent_id is None

    def test_completion_order_children_first(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        assert [s.name for s in tr.spans] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        tr = Tracer()
        with tr.span("level") as lvl:
            with tr.span("score") as a:
                pass
            with tr.span("match") as b:
                pass
        assert a.span.parent_id == lvl.span.span_id
        assert b.span.parent_id == lvl.span.span_id

    def test_current_tracks_stack(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("outer"):
            assert tr.current.name == "outer"
            with tr.span("inner"):
                assert tr.current.name == "inner"
            assert tr.current.name == "outer"
        assert tr.current is None

    def test_span_ids_unique_and_increasing(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("x"):
                pass
        ids = [s.span_id for s in tr.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_timestamps_monotonic_and_nested(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(1000))
        inner, outer = tr.spans
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns
        assert inner.duration_ns >= 0
        assert outer.duration_s >= inner.duration_s


class TestAttributes:
    def test_set_items_and_attrs(self):
        tr = Tracer()
        with tr.span("score", level=3) as sp:
            sp.set(items=42, scorer="modularity")
        span = tr.spans[0]
        assert span.items == 42
        assert span.level == 3
        assert span.attrs["scorer"] == "modularity"

    def test_constructor_attrs(self):
        tr = Tracer()
        with tr.span("run", graph="karate"):
            pass
        assert tr.spans[0].attrs == {"graph": "karate"}

    def test_set_chains(self):
        tr = Tracer()
        with tr.span("x") as sp:
            assert sp.set(a=1) is sp

    def test_exception_closes_span_and_stamps_error(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("nope")
        assert len(tr.spans) == 1
        assert tr.spans[0].attrs["error"] == "ValueError"
        assert tr.current is None

    def test_find_by_name(self):
        tr = Tracer()
        for name in ("a", "b", "a"):
            with tr.span(name):
                pass
        assert len(tr.find("a")) == 2
        assert tr.find("missing") == []


class _Recorder:
    """A listener that logs each call with the span's attributes then."""

    def __init__(self):
        self.calls = []

    def span_open(self, span):
        self.calls.append(("open", span.name, dict(span.attrs)))

    def span_close(self, span):
        self.calls.append(("close", span.name, dict(span.attrs)))


class TestListeners:
    def test_calls_arrive_in_nesting_order(self):
        tr = Tracer()
        rec = _Recorder()
        tr.listeners.append(rec)
        with tr.span("level"):
            with tr.span("score"):
                pass
            with tr.span("match"):
                pass
        assert [c[:2] for c in rec.calls] == [
            ("open", "level"),
            ("open", "score"),
            ("close", "score"),
            ("open", "match"),
            ("close", "match"),
            ("close", "level"),
        ]

    def test_open_sees_the_span_on_the_stack(self):
        tr = Tracer()
        seen = []

        class Current:
            def span_open(self, span):
                seen.append(tr.current is span)

            def span_close(self, span):
                pass

        tr.listeners.append(Current())
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        assert seen == [True, True]

    def test_close_sees_attributes_set_in_the_block(self):
        tr = Tracer()
        rec = _Recorder()
        tr.listeners.append(rec)
        with tr.span("contract", level=2, a=1) as sp:
            sp.set(n_vertices_after=7)
        assert rec.calls == [
            ("open", "contract", {"a": 1}),
            ("close", "contract", {"a": 1, "n_vertices_after": 7}),
        ]

    def test_close_sees_error_on_exception(self):
        tr = Tracer()
        rec = _Recorder()
        tr.listeners.append(rec)
        with pytest.raises(KeyError):
            with tr.span("boom"):
                raise KeyError("x")
        assert rec.calls[-1] == ("close", "boom", {"error": "KeyError"})
        assert tr.current is None

    def test_close_runs_before_the_clock_stops(self):
        # A listener's cost is part of the span it listens to.
        tr = Tracer()

        class Slow:
            def span_open(self, span):
                pass

            def span_close(self, span):
                time.sleep(0.02)

        tr.listeners.append(Slow())
        with tr.span("x"):
            pass
        (span,) = tr.spans
        assert span.end_ns - span.start_ns >= 20_000_000

    def test_every_listener_is_told_in_order(self):
        tr = Tracer()
        order = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def span_open(self, span):
                order.append((self.tag, "open"))

            def span_close(self, span):
                order.append((self.tag, "close"))

        tr.listeners.extend([Tagged("a"), Tagged("b")])
        with tr.span("x"):
            pass
        assert order == [("a", "open"), ("b", "open"), ("a", "close"), ("b", "close")]

    def test_listeners_do_not_change_the_spans(self):
        def record(tr):
            with tr.span("outer", level=0, graph="g") as sp:
                with tr.span("inner", level=0) as inner:
                    inner.set(items=3)
                sp.set(n=1)
            with pytest.raises(ValueError):
                with tr.span("bad"):
                    raise ValueError
            return [
                (s.name, s.span_id, s.parent_id, s.level, s.items, s.attrs)
                for s in tr.spans
            ]

        plain = Tracer()
        listened = Tracer()
        listened.listeners.append(_Recorder())
        assert plain.listeners == []
        assert record(listened) == record(plain)
        assert all(s.end_ns >= s.start_ns for s in listened.spans)


class TestNullTracer:
    def test_span_returns_shared_singleton(self):
        h1 = NULL_TRACER.span("a", level=1, foo="bar")
        h2 = NULL_TRACER.span("b")
        assert h1 is h2  # no allocation on the untraced path

    def test_noop_context_manager(self):
        with NULL_TRACER.span("x") as sp:
            assert sp.set(items=5) is sp
            assert sp.span is None
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.find("x") == []

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False

    def test_as_tracer(self):
        assert as_tracer(None) is NULL_TRACER
        tr = Tracer()
        assert as_tracer(tr) is tr
        nt = NullTracer()
        assert as_tracer(nt) is nt

    def test_current_is_none(self):
        assert NULL_TRACER.current is None


class TestSpanDataclass:
    def test_duration_properties(self):
        s = Span(name="x", span_id=0, start_ns=1_000, end_ns=3_500_000)
        assert s.duration_ns == 3_499_000
        assert s.duration_s == pytest.approx(3.499e-3)


class TestSpanIdentity:
    """v2 schema: every span knows its pid/tid and clock epoch."""

    def test_span_stamped_with_pid_tid_epoch(self):
        import os
        import threading

        tr = Tracer()
        with tr.span("work"):
            pass
        span = tr.spans[0]
        assert span.pid == os.getpid()
        assert span.tid == threading.get_native_id()
        assert span.epoch_ns == tr.epoch_ns
        assert tr.epoch_ns > 0

    def test_epoch_fixed_per_tracer(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert tr.spans[0].epoch_ns == tr.spans[1].epoch_ns

    def test_null_tracer_epoch_zero(self):
        assert NullTracer.epoch_ns == 0
