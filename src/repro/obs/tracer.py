"""The cross-world tracer: nested spans stamped with both clocks.

Every span records *two* durations, one per time source, and never mixes
them (DESIGN.md, "Clock discipline"):

* **virtual nanoseconds** from the board's :class:`~repro.hw.clock.SimClock`
  — architectural latencies (world transitions, driver round-trips, WASI
  dispatch) that only exist on hardware;
* **wall seconds** from ``time.perf_counter`` — genuine computation done
  by this repo's code (crypto, Wasm execution, appraisal logic).

Spans nest per thread; the tracer keeps a bounded flight-recorder ring
buffer (oldest spans fall off) and is safe for concurrent emit from the
threads that deliver the gateway's messages. The program holds no tracer:
:meth:`Tracer.observe` wraps the stack's entry points from outside for the
duration of a ``with`` block (:mod:`repro.obs.observe`), so an untraced run
executes no tracing code.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional

#: Worlds a span can be attributed to (mirrors repro.hw.caam.World values,
#: without importing hardware into the observability layer).
NORMAL = "normal"
SECURE = "secure"


@dataclass
class Span:
    """One completed region of work, stamped with both clocks."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: "normal" / "secure" / "" when the world is not meaningful.
    world: str
    start_wall_s: float
    end_wall_s: float
    start_sim_ns: int
    end_sim_ns: int
    thread_id: int
    thread_name: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end_wall_s - self.start_wall_s

    @property
    def sim_ns(self) -> int:
        return self.end_sim_ns - self.start_sim_ns


class Tracer:
    """Thread-safe dual-clock tracer with a bounded ring buffer.

    ``sim_now`` must be a *pure* read of the virtual clock (for a board,
    ``soc.clock.now_ns`` — never ``soc.read_monotonic_ns``, which charges
    the cross-world fetch cost and would perturb what it measures).
    """

    def __init__(self, sim_now: Optional[Callable[[], int]] = None,
                 capacity: int = 65536,
                 wall_now: Callable[[], float] = time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._sim_now = sim_now or (lambda: 0)
        self._wall_now = wall_now
        self._buffer: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_id = 1
        self._emitted = 0
        self._stacks = threading.local()

    # -- span lifecycle ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _open(self, name: str, world: str, attrs: Dict[str, object]) -> Span:
        """Start a span on this thread's stack (close it with :meth:`_close`)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        thread = threading.current_thread()
        record = Span(
            span_id=span_id,
            parent_id=stack[-1] if stack else None,
            name=name,
            world=world,
            start_wall_s=self._wall_now(),
            end_wall_s=0.0,
            start_sim_ns=self._sim_now(),
            end_sim_ns=0,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            attrs=attrs,
        )
        stack.append(span_id)
        return record

    def _close(self, record: Span) -> None:
        self._stack().pop()
        record.end_wall_s = self._wall_now()
        record.end_sim_ns = self._sim_now()
        with self._lock:
            self._buffer.append(record)
            self._emitted += 1

    def _nested(self) -> bool:
        """True while this thread has a span of this tracer open."""
        return bool(getattr(self._stacks, "stack", None))

    @contextmanager
    def span(self, name: str, world: str = "",
             **attrs: object) -> Iterator[Span]:
        """Open a nested span; it is recorded when the block exits."""
        record = self._open(name, world, dict(attrs))
        try:
            yield record
        finally:
            self._close(record)

    def instant(self, name: str, world: str = "", **attrs: object) -> Span:
        """Emit a zero-duration marker span."""
        with self.span(name, world=world, **attrs) as record:
            pass
        return record

    # -- access -----------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total spans ever emitted (including ones the ring dropped)."""
        with self._lock:
            return self._emitted

    @property
    def dropped(self) -> int:
        """Spans pushed out of the flight recorder by newer ones."""
        with self._lock:
            return self._emitted - len(self._buffer)

    def spans(self) -> List[Span]:
        """A snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self._buffer)

    def drain(self) -> List[Span]:
        """Return the buffered spans and clear the ring."""
        with self._lock:
            spans = list(self._buffer)
            self._buffer.clear()
            return spans

    def observe(self, soc=None):
        """Trace the stack's entry points for the duration of a ``with``.

        With a board (``soc``), only that board's calls open spans, plus
        the board-less calls nested under them; see :mod:`repro.obs.observe`.
        """
        from repro.obs.observe import observe

        return observe(self, soc)
