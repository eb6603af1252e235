"""repro.obs — cross-world tracing, profiling and replay.

The observability subsystem: a dual-clock :class:`Tracer` (virtual
SimClock nanoseconds + wall ``perf_counter`` seconds, never mixed),
``Tracer.observe`` wrapping the entry points of ``hw``/``optee``/``wasi``/
``core``/``wasm``/``appraisal``/``fleet`` from outside, Chrome
``trace_event``/flame exporters, a span-only :class:`TraceAnalyzer`, and
host-call record/replay for standalone deterministic Wasm benchmarks.
"""

from repro.obs.analysis import PhaseRow, TraceAnalyzer, UNATTRIBUTED
from repro.obs.export import (
    flame_summary,
    folded_stacks,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.record import (
    HostCall,
    HostCallLog,
    ReplayMismatch,
    record_host_calls,
    replay_imports,
    replay_run,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "HostCall",
    "HostCallLog",
    "PhaseRow",
    "ReplayMismatch",
    "Span",
    "TraceAnalyzer",
    "Tracer",
    "UNATTRIBUTED",
    "flame_summary",
    "folded_stacks",
    "record_host_calls",
    "replay_imports",
    "replay_run",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
