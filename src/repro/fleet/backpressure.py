"""Backpressure for the fleet gateway: shed load instead of queueing.

Two mechanisms compose in :class:`AdmissionController`:

* a :class:`TokenBucket` caps the sustained message rate (with a burst
  allowance), so a flood of attesters degrades into explicit rejections
  rather than an ever-growing backlog;
* a bounded in-flight window caps how many admitted messages may be
  outstanding at once — the "accept queue" in front of the verifier TA
  is finite.

Both reject with :class:`~repro.errors.FleetOverloaded`, carrying the
reason (``"rate"`` vs ``"queue"``) so metrics can tell them apart. The
window is consulted before the bucket, so a single rejection never
consumes more than one admission resource.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.errors import FleetOverloaded


class TokenBucket:
    """Classic token bucket; ``try_acquire`` never blocks."""

    def __init__(self, rate_per_s: float, burst: int,
                 time_source=time.monotonic_ns) -> None:
        if rate_per_s < 0:
            raise ValueError("rate must be non-negative")
        if burst < 1:
            raise ValueError("burst must be positive")
        self._rate_per_ns = rate_per_s / 1e9
        self._burst = float(burst)
        self._now = time_source
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last_refill = self._now()

    def _refill(self) -> None:
        now = self._now()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self._burst,
                               self._tokens + elapsed * self._rate_per_ns)
            self._last_refill = now

    def try_acquire(self, tokens: int = 1) -> bool:
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class AdmissionController:
    """Gate in front of the verifier TA: rate limit + bounded in-flight."""

    def __init__(self, max_in_flight: int,
                 bucket: Optional[TokenBucket] = None) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        self._max_in_flight = max_in_flight
        self._bucket = bucket
        self._lock = threading.Lock()
        self._in_flight = 0
        self.rejected_rate = 0
        self.rejected_queue = 0

    def admit(self) -> None:
        """Admit one message or raise :class:`FleetOverloaded`.

        The in-flight window is checked first: a message the window
        cannot hold is rejected *before* the bucket is drawn from, so
        each rejection consumes at most one admission resource and a
        queue rejection never burns a rate token on top.
        """
        with self._lock:
            if self._in_flight >= self._max_in_flight:
                self.rejected_queue += 1
                raise FleetOverloaded(reason="queue")
            if self._bucket is not None and not self._bucket.try_acquire():
                self.rejected_rate += 1
                raise FleetOverloaded(reason="rate")
            self._in_flight += 1

    def release(self) -> None:
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release without a matching admit")
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "max_in_flight": self._max_in_flight,
                "rejected_rate": self.rejected_rate,
                "rejected_queue": self.rejected_queue,
            }
