"""Trace exporters: Chrome ``trace_event`` JSON and text flame views.

The JSON exporter emits the subset of the Trace Event Format that
``chrome://tracing`` and Perfetto load directly: complete events
(``ph: "X"``) with microsecond ``ts``/``dur``, plus ``M`` metadata events
naming processes and threads. One export uses exactly one clock — virtual
SimClock nanoseconds or wall ``perf_counter`` seconds — never both on the
same timeline (DESIGN.md, "Clock discipline"); the other clock's duration
rides along in ``args`` for inspection.

:func:`validate_chrome_trace` is the schema gate CI runs on benchmark
artifacts: it rejects anything Perfetto's importer would choke on
(missing ``ph``/``ts``, negative or non-finite durations, unknown phase
codes) before the file is shipped.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.tracer import Span

#: Phase codes this exporter emits; the validator additionally accepts
#: the other single-event phases Perfetto understands.
_EMITTED_PHASES = ("X", "M")
_KNOWN_PHASES = frozenset("XBEiIMCbnePNODSTFsft")

#: Args fields where the *other* clock's duration is preserved.
WALL_ARG = "wall_us"
SIM_ARG = "sim_ns"

_CLOCKS = ("wall", "sim")


def _timestamps_us(span: Span, clock: str) -> Tuple[float, float]:
    if clock == "wall":
        return span.start_wall_s * 1e6, span.wall_s * 1e6
    return span.start_sim_ns / 1e3, span.sim_ns / 1e3


def to_chrome_trace(spans: Sequence[Span], clock: str = "wall",
                    process_name: str = "watz-repro") -> Dict[str, object]:
    """Render spans as a Trace Event Format object (one clock only)."""
    if clock not in _CLOCKS:
        raise ValueError(f"clock must be one of {_CLOCKS}, got {clock!r}")
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    origin_us = None
    thread_names: Dict[int, str] = {}
    for span in spans:
        start_us, _ = _timestamps_us(span, clock)
        if origin_us is None or start_us < origin_us:
            origin_us = start_us
        thread_names.setdefault(span.thread_id, span.thread_name)
    for tid, name in sorted(thread_names.items()):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name},
        })
    origin_us = origin_us or 0.0
    for span in spans:
        start_us, dur_us = _timestamps_us(span, clock)
        args: Dict[str, object] = dict(span.attrs)
        if span.world:
            args["world"] = span.world
        if clock == "wall":
            args[SIM_ARG] = span.sim_ns
        else:
            args[WALL_ARG] = span.wall_s * 1e6
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": start_us - origin_us,
            "dur": max(0.0, dur_us),
            "pid": 1,
            "tid": span.thread_id,
            "cat": span.name.split(".", 1)[0],
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock},
    }


def validate_chrome_trace(trace: object) -> None:
    """Raise ``ValueError`` unless ``trace`` is Perfetto-loadable.

    Checks the structural contract of the Trace Event Format: a
    ``traceEvents`` list whose entries carry a string ``name``, a known
    one-char ``ph``, and — for timed phases — finite, non-negative
    ``ts``/``dur`` numbers plus integer ``pid``/``tid``.
    """
    if not isinstance(trace, dict):
        raise ValueError("trace must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace.traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing or empty 'name'")
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _KNOWN_PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                raise ValueError(f"{where}: {key!r} must be an integer")
        if phase == "M":
            continue  # metadata events carry no timestamps
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                or not math.isfinite(ts) or ts < 0:
            raise ValueError(f"{where}: 'ts' must be a finite number >= 0")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                    or not math.isfinite(dur) or dur < 0:
                raise ValueError(
                    f"{where}: complete event needs finite 'dur' >= 0")


def write_chrome_trace(path: str, spans: Sequence[Span],
                       clock: str = "wall",
                       process_name: str = "watz-repro") -> str:
    """Validate and write a Chrome trace JSON file; returns the path."""
    trace = to_chrome_trace(spans, clock=clock, process_name=process_name)
    validate_chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return path


# -- flame views ----------------------------------------------------------------


def _paths(spans: Iterable[Span]) -> Dict[int, str]:
    """Root-relative ``a;b;c`` call path per span id (folded-stack keys).

    A span whose parent fell off the flight-recorder ring is treated as a
    root — the path is best-effort over what the buffer still holds.
    """
    by_id = {span.span_id: span for span in spans}
    paths: Dict[int, str] = {}

    def path_of(span: Span) -> str:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_id) if span.parent_id else None
        path = span.name if parent is None \
            else f"{path_of(parent)};{span.name}"
        paths[span.span_id] = path
        return path

    for span in by_id.values():
        path_of(span)
    return paths


def folded_stacks(spans: Sequence[Span], clock: str = "sim") -> List[str]:
    """``flamegraph.pl``-style folded lines: ``path <self time>``.

    Self time per path excludes time attributed to child spans, so the
    lines sum to the trace's total without double counting.
    """
    if clock not in _CLOCKS:
        raise ValueError(f"clock must be one of {_CLOCKS}, got {clock!r}")
    paths = _paths(spans)
    child_total: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] += (
                span.sim_ns if clock == "sim" else span.wall_s)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        own = span.sim_ns if clock == "sim" else span.wall_s
        self_time = max(0.0, own - child_total.get(span.span_id, 0.0))
        totals[paths[span.span_id]] += self_time
    unit = 1 if clock == "sim" else 1e6  # ns / us
    return [f"{path} {value * unit:.0f}"
            for path, value in sorted(totals.items())]


def flame_summary(spans: Sequence[Span]) -> str:
    """Per-name aggregate with both clocks kept in separate columns."""
    child_wall: Dict[int, float] = defaultdict(float)
    child_sim: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent_id is not None:
            child_wall[span.parent_id] += span.wall_s
            child_sim[span.parent_id] += span.sim_ns
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, [0, 0.0, 0.0, 0, 0])
        row[0] += 1
        row[1] += span.wall_s
        row[2] += max(0.0, span.wall_s - child_wall.get(span.span_id, 0.0))
        row[3] += span.sim_ns
        row[4] += max(0, span.sim_ns - child_sim.get(span.span_id, 0))
    from repro.bench.reporting import format_table

    ordered = sorted(rows.items(), key=lambda item: (-item[1][4], -item[1][2]))
    return format_table(
        "flame summary (self time excludes child spans)",
        ["span", "count", "wall total ms", "wall self ms",
         "sim total us", "sim self us"],
        [(name, int(row[0]), f"{row[1] * 1e3:.3f}", f"{row[2] * 1e3:.3f}",
          f"{row[3] / 1e3:.1f}", f"{row[4] / 1e3:.1f}")
         for name, row in ordered],
    )
