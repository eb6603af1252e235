"""Fleet gateway throughput: handshakes/sec and tail latency under load.

Drives the attestation gateway with the fleet load generator at
concurrency 1/4/16/64, with and without the appraisal cache, and under
deliberate overload. Every number is **live**: real wall-clock time of
this host running every handshake (all crypto, all verifier checks).
The in-process attesters share the gateway's process and GIL, so live
throughput does not scale with the concurrency; it measures what one
process serves, attesters included, not what separate attester boards
would see.

The simulated world-transition time per forwarded message is reported
separately in virtual nanoseconds (DESIGN.md, "Clock discipline").
Machine-readable series and the record of every gate land in
``bench_results/BENCH_fleet.json``.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from statistics import median

from repro.bench import format_table, host_metadata, save_report, save_trace
from repro.core.verifier import VerifierPolicy
from repro.fleet import (FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, start_fleet_gateway)
from repro.obs import TraceAnalyzer, Tracer, flame_summary

HOST, PORT_BASE = "fleet.bench", 7800

CONCURRENCIES = (1, 4, 16, 64)
HANDSHAKES_EACH = 2
BLOB_SIZE = 4 * 1024
#: Overload gate: of 8 flooding attesters, at least this many are shed.
MIN_OVERLOAD_REJECTIONS = 7


def _run_live(testbed, identity, port, concurrency, enable_cache=True,
              traced=False):
    """One fresh gateway + fleet of attesters, driven to completion.

    ``traced=True`` observes the gateway board with a dual-clock tracer
    (``Tracer.observe``) for the whole run; the program takes the same
    path either way.
    """
    secret = bytes(range(256)) * (BLOB_SIZE // 256)
    policy = VerifierPolicy()
    config = FleetConfig(workers=4, enable_cache=enable_cache)
    gateway_device = testbed.create_device()
    tracer = None
    observing = ExitStack()
    if traced:
        tracer = Tracer(sim_now=gateway_device.soc.clock.now_ns)
        observing.enter_context(tracer.observe(gateway_device.soc))
    with observing:
        gateway = start_fleet_gateway(
            testbed.network, HOST, port, gateway_device.client,
            testbed.vendor_key, identity, policy, lambda: secret, config)
        try:
            stacks = build_attester_stacks(testbed, policy, concurrency)
            profile = LoadProfile(concurrency=concurrency,
                                  handshakes_per_attester=HANDSHAKES_EACH,
                                  blob_size=BLOB_SIZE)
            report = run_load(testbed.network, HOST, port,
                              identity.public_bytes(), stacks, profile)
            records = gateway.drain_records()
            snapshot = gateway.snapshot()
        finally:
            gateway.stop()
    return report, records, snapshot, tracer


def _save_bench_json(payload: dict) -> str:
    directory = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_fleet.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _live_stats(report, records):
    lat = report.latency_percentiles()
    sim_ns = (int(median(r.sim_transition_ns for r in records))
              if records else 0)
    return {
        "live_hs_per_s": round(report.throughput_hz, 3),
        "p50_ms": round(lat["p50"] * 1000, 3),
        "p95_ms": round(lat["p95"] * 1000, 3),
        "p99_ms": round(lat["p99"] * 1000, 3),
        "sim_ns_per_msg": sim_ns,
    }


def test_fleet_throughput(testbed, verifier_identity):
    identity = verifier_identity

    # -- live sweep over concurrency ------------------------------------------
    live = {}
    for offset, concurrency in enumerate(CONCURRENCIES):
        report, records, snapshot, _ = _run_live(
            testbed, identity, PORT_BASE + offset, concurrency)
        expected = concurrency * HANDSHAKES_EACH
        assert len(report.completed) == expected, \
            [(r.error, r.attester) for r in report.failed]
        assert not report.failed and not report.rejected
        live[concurrency] = (report, records, snapshot)

    rows = []
    for concurrency in CONCURRENCIES:
        report, records, _ = live[concurrency]
        lat = report.latency_percentiles()
        sim_ms = median(r.sim_transition_ns for r in records) / 1e6
        rows.append((
            concurrency,
            f"{report.throughput_hz:.1f}",
            f"{lat['p50'] * 1000:.0f}/{lat['p95'] * 1000:.0f}/"
            f"{lat['p99'] * 1000:.0f}",
            f"{sim_ms:.3f}",
        ))
    sweep_table = format_table(
        "Fleet throughput — threaded gateway, attesters in the same "
        "process (live)",
        ["conc", "live hs/s", "live p50/95/99 ms", "sim ns->ms/msg"],
        rows,
    )

    # -- the cache hit path is measurably cheaper ------------------------------
    _, _, snapshot16 = live[16]
    hit_summary = snapshot16["latency"].get("service.msg2_hit", {"count": 0})
    miss_summary = snapshot16["latency"].get("service.msg2_miss",
                                             {"count": 0})
    assert hit_summary["count"] > 0 and miss_summary["count"] > 0

    report_nc, records_nc, _, _ = _run_live(
        testbed, identity, PORT_BASE + 10, 16, enable_cache=False)
    assert len(report_nc.completed) == 16 * HANDSHAKES_EACH
    nc_msg2 = median(r.service_s for r in records_nc if r.kind == "msg2")
    cache_rows = [
        ("msg2 verify, cache miss", f"{miss_summary['p50'] * 1000:.1f}",
         miss_summary["count"], "full ECDSA verify"),
        ("msg2 verify, cache hit", f"{hit_summary['p50'] * 1000:.1f}",
         hit_summary["count"], "appraisal memoised"),
        ("msg2 verify, cache off", f"{nc_msg2 * 1000:.1f}",
         sum(1 for r in records_nc if r.kind == "msg2"), "baseline gateway"),
    ]
    cache_table = format_table(
        "Appraisal cache — msg2 service time at concurrency 16",
        ["path", "p50 ms", "msgs", "note"], cache_rows,
    )
    cache_line = (f"cache stats at C=16: {snapshot16['cache']}")

    # -- overload sheds with FleetOverloaded ----------------------------------
    # Rate 0 with a burst of 6 tokens (one token per message, two messages
    # per handshake): a sequential phase completes two fully verified
    # handshakes on the first four tokens, then a flood of 8 attesters
    # finds at most two tokens left and is shed with FleetOverloaded.
    secret = bytes(range(256)) * (BLOB_SIZE // 256)
    overload_policy = VerifierPolicy()
    overload_gateway = start_fleet_gateway(
        testbed.network, HOST, PORT_BASE + 11,
        testbed.create_device().client, testbed.vendor_key, identity,
        overload_policy, lambda: secret,
        FleetConfig(workers=4, rate_per_s=0.0, rate_burst=6))
    try:
        calm_stacks = build_attester_stacks(testbed, overload_policy, 1)
        calm = run_load(testbed.network, HOST, PORT_BASE + 11,
                        identity.public_bytes(), calm_stacks,
                        LoadProfile(concurrency=1, handshakes_per_attester=2,
                                    blob_size=BLOB_SIZE))
        flood_stacks = build_attester_stacks(testbed, overload_policy, 8)
        flood = run_load(testbed.network, HOST, PORT_BASE + 11,
                         identity.public_bytes(), flood_stacks,
                         LoadProfile(concurrency=8, handshakes_per_attester=1,
                                     blob_size=BLOB_SIZE))
        overload_snapshot = overload_gateway.snapshot()
    finally:
        overload_gateway.stop()
    assert len(calm.completed) == 2 and not calm.rejected
    assert all(r.secret_len == BLOB_SIZE for r in calm.completed)
    assert not flood.failed
    overload_lines = [
        "overload run (rate=0, burst=6): sequential phase completed "
        f"{len(calm.completed)} verified handshakes; flood of 8 attesters: "
        f"{len(flood.completed)} completed, {len(flood.rejected)} rejected "
        "with FleetOverloaded",
        f"admission stats: {overload_snapshot['admission']}",
    ]

    # -- trace artifacts: one traced run, exported for Perfetto ---------------
    # A separate small run observed from outside; it takes the same
    # (batched) path as the untraced sweep above.
    report_tr, _, _, tracer = _run_live(
        testbed, identity, PORT_BASE + 12, 2, traced=True)
    assert len(report_tr.completed) == 2 * HANDSHAKES_EACH
    assert tracer.dropped == 0
    spans = tracer.drain()
    analyzer = TraceAnalyzer(spans)
    # The Table-IV property on live data: per-phase virtual-ns self times
    # under the request spans account for the requests' full totals.
    request_rows = analyzer.breakdown("fleet.request")
    row_sim_ns = sum(row.sim_ns for row in request_rows)
    request_sim_ns = sum(span.sim_ns
                         for span in analyzer.named("fleet.request"))
    save_trace("fleet_throughput_trace", spans,
               process_name="watz-fleet-gateway")
    save_report("fleet_throughput_phases", "\n\n".join([
        analyzer.format_breakdown(
            "fleet.request",
            "gateway per-message phases (derived from spans only)"),
        flame_summary(spans),
    ]))

    gates = {
        "cache_hit_below_miss": {
            "metric": "msg2 service p50 at C=16, cache hit vs cache miss (ms)",
            "threshold": round(miss_summary["p50"] * 1000, 3),
            "value": round(hit_summary["p50"] * 1000, 3),
            "asserted": True,
            "reason": "both are p50s of the same run's msg2 service times, "
                      "so host load hits both alike; a hit skips the ECDSA "
                      "verify",
        },
        "overload_rejections": {
            "metric": "FleetOverloaded rejections of 8 flooding attesters "
                      "(rate 0, burst 6)",
            "threshold": MIN_OVERLOAD_REJECTIONS,
            "value": len(flood.rejected),
            "asserted": True,
            "reason": "token accounting is deterministic: the calm phase "
                      "leaves at most two tokens for the flood",
        },
        "traced_request_sim_sum": {
            "metric": "sum of per-phase sim ns under fleet.request spans",
            "threshold": request_sim_ns,
            "value": row_sim_ns,
            "asserted": True,
            "reason": "SimClock ns are deterministic and every clock "
                      "advance on the observed board lands in a span "
                      "under its request",
        },
    }
    save_report("fleet_throughput", "\n".join([
        sweep_table, "", cache_table, cache_line, "", *overload_lines,
    ]))
    _save_bench_json({
        "mode": "full",
        **host_metadata(),
        "handshakes_per_attester": HANDSHAKES_EACH,
        "threaded_baseline": {
            str(concurrency): _live_stats(live[concurrency][0],
                                          live[concurrency][1])
            for concurrency in CONCURRENCIES
        },
        "gates": gates,
    })
    assert hit_summary["p50"] < miss_summary["p50"], gates
    assert len(flood.rejected) >= MIN_OVERLOAD_REJECTIONS, \
        "expected FleetOverloaded rejections"
    assert overload_snapshot["counters"]["rejected_rate"] >= \
        MIN_OVERLOAD_REJECTIONS
    assert row_sim_ns == request_sim_ns, gates
