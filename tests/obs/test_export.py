"""Chrome trace export, the Perfetto schema gate, and flame views."""

import json

import pytest

from repro.hw import SimClock
from repro.obs import (Tracer, flame_summary, folded_stacks, to_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)


def _sample_spans():
    clock = SimClock()
    tracer = Tracer(sim_now=clock.now_ns)
    with tracer.span("fleet.request", world="normal", conn=1):
        with tracer.span("hw.smc.enter", world="normal"):
            clock.advance(4000)
        with tracer.span("core.protocol.msg0", world="secure"):
            clock.advance(1000)
    return tracer.drain()


def test_chrome_trace_is_valid_on_both_clocks():
    spans = _sample_spans()
    for clock in ("wall", "sim"):
        trace = to_chrome_trace(spans, clock=clock)
        validate_chrome_trace(trace)  # must not raise
        assert trace["otherData"]["clock"] == clock


def test_chrome_trace_events_are_complete_events():
    spans = _sample_spans()
    trace = to_chrome_trace(spans, clock="sim", process_name="unit")
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    timed = [e for e in events if e["ph"] == "X"]
    assert any(e["name"] == "process_name"
               and e["args"]["name"] == "unit" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    assert {e["name"] for e in timed} == {
        "fleet.request", "hw.smc.enter", "core.protocol.msg0"}
    by_name = {e["name"]: e for e in timed}
    # Sim timestamps are µs from the trace origin.
    assert by_name["hw.smc.enter"]["dur"] == pytest.approx(4.0)
    assert by_name["core.protocol.msg0"]["ts"] == pytest.approx(4.0)
    assert by_name["fleet.request"]["dur"] == pytest.approx(5.0)
    # The other clock rides along in args; category is the name prefix.
    assert by_name["hw.smc.enter"]["args"]["wall_us"] >= 0.0
    assert by_name["hw.smc.enter"]["cat"] == "hw"
    assert by_name["fleet.request"]["args"]["conn"] == 1


def test_wall_trace_preserves_sim_in_args():
    spans = _sample_spans()
    trace = to_chrome_trace(spans, clock="wall")
    by_name = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
    assert by_name["hw.smc.enter"]["args"]["sim_ns"] == 4000


def test_unknown_clock_rejected():
    with pytest.raises(ValueError):
        to_chrome_trace([], clock="cpu")


@pytest.mark.parametrize("trace, message", [
    ([], "JSON object"),
    ({"traceEvents": {}}, "must be a list"),
    ({"traceEvents": ["nope"]}, "not an object"),
    ({"traceEvents": [{"ph": "X", "ts": 0, "dur": 0}]}, "name"),
    ({"traceEvents": [{"name": "x", "ph": "Z", "ts": 0}]}, "phase"),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "dur": 0}]}, "ts"),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]}, "dur"),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                       "dur": float("nan")}]}, "dur"),
    ({"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 0,
                       "pid": "one"}]}, "pid"),
])
def test_validator_rejects_malformed_traces(trace, message):
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(trace)


def test_validator_accepts_metadata_without_timestamps():
    validate_chrome_trace({"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "p"}},
    ]})


def test_write_chrome_trace_roundtrips_through_json(tmp_path):
    spans = _sample_spans()
    path = write_chrome_trace(str(tmp_path / "t.json"), spans, clock="sim")
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    validate_chrome_trace(loaded)
    assert len([e for e in loaded["traceEvents"] if e["ph"] == "X"]) == 3


def test_folded_stacks_use_self_time():
    spans = _sample_spans()
    lines = dict(line.rsplit(" ", 1) for line in folded_stacks(spans,
                                                               clock="sim"))
    assert lines["fleet.request;hw.smc.enter"] == "4000"
    assert lines["fleet.request;core.protocol.msg0"] == "1000"
    # The root's self time excludes both children entirely.
    assert lines["fleet.request"] == "0"


def test_flame_summary_lists_every_span_name():
    text = flame_summary(_sample_spans())
    for name in ("fleet.request", "hw.smc.enter", "core.protocol.msg0"):
        assert name in text
    assert "sim self us" in text
