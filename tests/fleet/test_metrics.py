"""Fleet metrics: counters, gauges and latency histograms."""

import threading

from repro.fleet.metrics import FleetMetrics, LatencyHistogram


def test_histogram_summary_percentiles():
    histogram = LatencyHistogram()
    for value in range(1, 101):
        histogram.add(value / 1000.0)
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == 0.001 and summary["max"] == 0.1
    assert abs(summary["p50"] - 0.0505) < 1e-9
    assert summary["p95"] > summary["p50"]
    assert summary["p99"] >= summary["p95"]


def test_empty_histogram_summary():
    assert LatencyHistogram().summary() == {"count": 0}


def test_histogram_reservoir_is_bounded():
    histogram = LatencyHistogram(capacity=64)
    for value in range(10_000):
        histogram.add(value / 1000.0)
    assert histogram.count == 10_000
    assert len(histogram._samples) == 64
    summary = histogram.summary()
    # The exact accumulators never degrade, whatever the reservoir holds.
    assert summary["count"] == 10_000
    assert summary["min"] == 0.0
    assert summary["max"] == 9.999
    assert abs(summary["mean"] - sum(range(10_000)) / 10_000 / 1000.0) < 1e-9
    # Percentiles come from a uniform reservoir of the stream: for a
    # uniform ramp the median lands near the middle of the range.
    assert 3.0 < summary["p50"] < 7.0
    assert summary["p50"] < summary["p95"] <= summary["p99"]


def test_histogram_snapshot_is_deterministic():
    def build():
        histogram = LatencyHistogram(capacity=32)
        for value in range(1000):
            histogram.add(value * 0.001)
        return histogram.summary()

    assert build() == build()


def test_histogram_concurrent_add_loses_nothing():
    histogram = LatencyHistogram(capacity=128)
    per_thread = 5000

    def worker(offset):
        for i in range(per_thread):
            histogram.add((offset * per_thread + i) * 1e-6)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    summary = histogram.summary()
    assert summary["count"] == 8 * per_thread
    assert len(histogram._samples) == 128
    assert summary["min"] == 0.0
    assert abs(summary["max"] - (8 * per_thread - 1) * 1e-6) < 1e-12


def test_histogram_rejects_bad_capacity():
    try:
        LatencyHistogram(capacity=0)
    except ValueError:
        pass
    else:
        raise AssertionError("capacity=0 must be rejected")


def test_counters_and_flight_gauge():
    metrics = FleetMetrics()
    metrics.increment("accepted")
    metrics.increment("accepted", 2)
    metrics.enter_flight()
    metrics.enter_flight()
    metrics.exit_flight()
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["accepted"] == 3
    assert snapshot["in_flight"] == 1
    assert snapshot["max_in_flight"] == 2


def test_observe_builds_named_histograms():
    metrics = FleetMetrics()
    metrics.observe("service.msg2", 0.010)
    metrics.observe("service.msg2", 0.030)
    summary = metrics.histogram("service.msg2")
    assert summary["count"] == 2
    assert abs(summary["mean"] - 0.020) < 1e-9
    assert metrics.histogram("never.seen") == {"count": 0}
    assert "service.msg2" in metrics.snapshot()["latency"]

