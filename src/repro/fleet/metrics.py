"""Observability for the fleet gateway: counters and latency histograms.

Everything exports as one plain-dict ``snapshot()`` so the fleet
benchmark (and any future scraper) consumes gateway state without
reaching into internals. Latencies are recorded in seconds of real
``perf_counter`` time; simulated world-transition nanoseconds are
tracked as a separate counter, never mixed into the same number
(DESIGN.md, "Clock discipline").
"""

from __future__ import annotations

import random
import threading
from collections import defaultdict
from typing import Dict, List

from repro.bench.harness import percentile


class LatencyHistogram:
    """Bounded reservoir histogram with interpolated percentiles.

    ``add()`` is thread-safe and O(1): exact accumulators (count, sum,
    min, max) are always updated, while the raw samples backing the
    percentiles live in a fixed-size reservoir (Vitter's Algorithm R,
    seeded deterministically so snapshots are reproducible). A gateway
    left running for days therefore keeps exact count/mean/min/max and
    statistically representative percentiles without growing without
    bound, which is what the old unbounded-and-unlocked sample list did.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0x0B5) -> None:
        if capacity < 1:
            raise ValueError("histogram capacity must be >= 1")
        self._lock = threading.Lock()
        self._capacity = capacity
        self._random = random.Random(seed)
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, seconds: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds
            if len(self._samples) < self._capacity:
                self._samples.append(seconds)
                return
            slot = self._random.randrange(self._count)
            if slot < self._capacity:
                self._samples[slot] = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def capacity(self) -> int:
        return self._capacity

    def percentile(self, fraction: float) -> float:
        with self._lock:
            return percentile(self._samples, fraction)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if not self._count:
                return {"count": 0}
            return {
                "count": self._count,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": percentile(self._samples, 0.50),
                "p95": percentile(self._samples, 0.95),
                "p99": percentile(self._samples, 0.99),
            }


class FleetMetrics:
    """Thread-safe counters, gauges and histograms for the gateway."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = defaultdict(int)
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._in_flight = 0
        self._max_in_flight = 0

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.add(seconds)

    def enter_flight(self) -> None:
        with self._lock:
            self._in_flight += 1
            self._max_in_flight = max(self._max_in_flight, self._in_flight)

    def exit_flight(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> Dict[str, float]:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.summary() if histogram else {"count": 0}

    def snapshot(self) -> Dict[str, object]:
        """One plain dict: counters, gauges, histogram summaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "in_flight": self._in_flight,
                "max_in_flight": self._max_in_flight,
                "latency": {name: histogram.summary()
                            for name, histogram in self._histograms.items()},
            }
