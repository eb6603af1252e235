"""The dual-clock tracer: nesting, ring buffer, thread safety."""

import threading

import pytest

from repro.hw import SimClock
from repro.obs import Span, Tracer


def _tracer(capacity=65536):
    clock = SimClock()
    wall = [0.0]

    def wall_now():
        wall[0] += 0.25
        return wall[0]

    return clock, Tracer(sim_now=clock.now_ns, capacity=capacity,
                         wall_now=wall_now)


def test_span_records_both_clocks_separately():
    clock, tracer = _tracer()
    with tracer.span("work") as span:
        clock.advance(5000)
    assert span.sim_ns == 5000
    # The fake wall clock ticks 0.25 s per read: one read at open, one at
    # close, independent of the virtual clock.
    assert span.wall_s == pytest.approx(0.25)


def test_spans_nest_per_thread():
    clock, tracer = _tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            clock.advance(10)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    # Inner completes first: the ring holds spans in completion order.
    assert [s.name for s in tracer.spans()] == ["inner", "outer"]


def test_world_and_attrs_recorded():
    _, tracer = _tracer()
    with tracer.span("req", world="secure", conn=7) as span:
        pass
    assert span.world == "secure"
    assert span.attrs == {"conn": 7}


def test_ring_buffer_is_bounded():
    _, tracer = _tracer(capacity=4)
    for index in range(10):
        tracer.instant(f"s{index}")
    assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]
    assert tracer.emitted == 10
    assert tracer.dropped == 6


def test_drain_clears_the_ring():
    _, tracer = _tracer()
    tracer.instant("one")
    assert [s.name for s in tracer.drain()] == ["one"]
    assert tracer.spans() == []


def test_instant_has_zero_sim_duration():
    clock, tracer = _tracer()
    clock.advance(100)
    span = tracer.instant("marker")
    assert span.sim_ns == 0
    assert span.start_sim_ns == 100


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_concurrent_emit_is_safe_and_ids_unique():
    _, tracer = _tracer()
    per_thread = 200

    def worker():
        for _ in range(per_thread):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = tracer.spans()
    assert tracer.emitted == 8 * per_thread * 2
    assert len({s.span_id for s in spans}) == len(spans)
    # Parenting never crosses threads: every inner's parent is an outer
    # recorded by the same thread.
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.name == "inner" and span.parent_id in by_id:
            parent = by_id[span.parent_id]
            assert parent.name == "outer"
            assert parent.thread_id == span.thread_id


def test_exception_still_closes_the_span():
    clock, tracer = _tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            clock.advance(7)
            raise RuntimeError("x")
    (span,) = tracer.spans()
    assert span.sim_ns == 7


def test_span_dataclass_duration_properties():
    span = Span(span_id=1, parent_id=None, name="x", world="",
                start_wall_s=1.0, end_wall_s=1.5,
                start_sim_ns=100, end_sim_ns=350,
                thread_id=1, thread_name="t")
    assert span.wall_s == 0.5
    assert span.sim_ns == 250
