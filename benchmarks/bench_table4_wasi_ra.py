"""Table IV: execution time of the WASI-RA API, end to end.

Measures each WASI-RA call from the hosted Wasm application's point of
view on the full platform: handshake (msg0+msg1 exchange), collect_quote
(evidence signing), send_quote (fire-and-forget), and receive_data for
0.1 MB and 1 MB secret blobs (which absorbs the verifier's msg2
verification, as the paper observes in §VI-F).

Wall-clock numbers are real crypto on this machine; the simulated network
and world-transition time runs on the virtual clock and is reported
separately, following DESIGN.md's clock discipline.

Paper values: handshake 1.34 s, collect_quote 239 ms, send_quote 1 ms,
receive_data 168 ms (0.1 MB) / 209 ms (1 MB).

The gates (threshold, value, ``asserted`` and a reason) are recorded in
``bench_results/BENCH_table4_wasi_ra.json`` before they are asserted.
"""

from __future__ import annotations

import time

from repro.bench import format_duration, format_table, save_json, save_report
from repro.core import VerifierPolicy, measure_bytes, start_verifier
from repro.workloads.attested import build_attested_app

HOST, PORT_BASE = "table4.verifier", 7400

_PAPER = {
    "handshake": 1.34,
    "collect_quote": 0.239,
    "send_quote": 0.001,
    "receive_data 0.1 MB": 0.168,
    "receive_data 1 MB": 0.209,
}


def _measure(testbed, device, identity, size, port):
    secret = bytes(range(256)) * (size // 256)
    app = build_attested_app(identity.public_bytes(), HOST, port,
                             secret_capacity=size + 4096)
    policy = VerifierPolicy()
    policy.endorse(device.attestation_public_key)
    policy.trust_measurement(measure_bytes(app).digest)
    start_verifier(testbed.network, HOST, port, device.client,
                   testbed.vendor_key, identity, policy, lambda: secret)
    # Paper §VI-F: attester 14 MB / verifier 13 MB... here 17/10 as in the
    # Genann setup; the WaTZ session takes the larger share.
    session = device.open_watz(heap_size=14 * 1024 * 1024)
    loaded = device.load_wasm(session, app)
    app_handle = loaded["app"]

    timings = {}
    sim_start = device.soc.clock.now_ns()

    started = time.perf_counter()
    ctx = device.run_wasm(session, app_handle, "ra_handshake")
    timings["handshake"] = time.perf_counter() - started

    started = time.perf_counter()
    quote = device.run_wasm(session, app_handle, "ra_collect_quote")
    timings["collect_quote"] = time.perf_counter() - started

    started = time.perf_counter()
    rc = device.run_wasm(session, app_handle, "ra_send_quote", ctx, quote)
    timings["send_quote"] = time.perf_counter() - started

    started = time.perf_counter()
    received = device.run_wasm(session, app_handle, "ra_receive_data", ctx)
    timings["receive_data"] = time.perf_counter() - started

    device.run_wasm(session, app_handle, "ra_dispose", ctx, quote)
    timings["simulated_ns"] = device.soc.clock.now_ns() - sim_start
    session.close()
    testbed.network.shutdown(HOST, port)
    results = {"ctx": ctx, "quote": quote, "rc": rc,
               "missing": len(secret) - received}
    return timings, results


#: Why the WASI-RA return-value gates hold on any host.
_RESULT_REASON = ("return values of the WASI-RA calls, independent of "
                  "host speed")


def _result_gates(small, large) -> dict:
    """The four per-call checks of both runs, each over both blob sizes."""
    runs = (small, large)
    return {
        "handshake_context": {
            "metric": "smallest ra_handshake context over both blobs "
                      "(must exceed the threshold)",
            "threshold": 0, "value": min(run["ctx"] for run in runs),
            "asserted": True, "reason": _RESULT_REASON,
        },
        "collect_quote_handle": {
            "metric": "smallest ra_collect_quote handle over both blobs "
                      "(must exceed the threshold)",
            "threshold": 0, "value": min(run["quote"] for run in runs),
            "asserted": True, "reason": _RESULT_REASON,
        },
        "send_quote_status": {
            "metric": "ra_send_quote status codes other than 0, over both "
                      "blobs",
            "threshold": 0, "value": sum(run["rc"] != 0 for run in runs),
            "asserted": True, "reason": _RESULT_REASON,
        },
        "receive_data_length": {
            "metric": "blobs whose ra_receive_data length differs from the "
                      "secret's",
            "threshold": 0, "value": sum(run["missing"] != 0 for run in runs),
            "asserted": True, "reason": _RESULT_REASON,
        },
    }


def test_table4_wasi_ra(benchmark, testbed, device, verifier_identity):
    small, small_results = benchmark.pedantic(
        lambda: _measure(testbed, device, verifier_identity,
                         100 * 1024, PORT_BASE),
        rounds=1, iterations=1)
    large, large_results = _measure(testbed, device, verifier_identity,
                                    1024 * 1024, PORT_BASE + 1)

    rows = [
        ("handshake", format_duration(_PAPER["handshake"]),
         format_duration(small["handshake"]), "msg0+msg1, both key gens"),
        ("collect_quote", format_duration(_PAPER["collect_quote"]),
         format_duration(small["collect_quote"]), "evidence signature"),
        ("send_quote", format_duration(_PAPER["send_quote"]),
         format_duration(small["send_quote"]), "fire-and-forget"),
        ("receive_data 0.1 MB", format_duration(_PAPER["receive_data 0.1 MB"]),
         format_duration(small["receive_data"]),
         "absorbs verifier's msg2 checks"),
        ("receive_data 1 MB", format_duration(_PAPER["receive_data 1 MB"]),
         format_duration(large["receive_data"]), ""),
        ("simulated platform time", "-",
         f"{small['simulated_ns'] / 1e6:.2f} ms (virtual)",
         "transitions + socket RPCs"),
    ]
    save_report("table4_wasi_ra", format_table(
        "Table IV — WASI-RA API execution time (paper vs measured)",
        ["call", "paper", "measured", "note"], rows,
    ))

    # Shape: the handshake is the most expensive call; sending the quote
    # is the cheapest (fire-and-forget — with the fast EC paths the
    # evidence signature is now sub-millisecond, so the margin over it is
    # narrower than the paper's mbedTLS-era 5x); receiving absorbs the
    # verifier's verification and grows with the blob.
    shape_reason = ("wall-clock ratios of calls in one run on one host; "
                    "each compares work of a different kind or size")
    gates = _result_gates(small_results, large_results)
    gates.update({
        "handshake_above_collect_quote": {
            "metric": "ra_handshake vs ra_collect_quote at 0.1 MB (s; must "
                      "exceed the threshold)",
            "threshold": round(small["collect_quote"], 6),
            "value": round(small["handshake"], 6),
            "asserted": True,
            "reason": shape_reason + ": two key generations and an ECDH "
                      "against one signature",
        },
        "send_quote_below_collect_quote": {
            "metric": "ra_send_quote vs ra_collect_quote at 0.1 MB (s)",
            "threshold": round(small["collect_quote"], 6),
            "value": round(small["send_quote"], 6),
            "asserted": True,
            "reason": shape_reason + ": a fire-and-forget send against a "
                      "signature",
        },
        "send_quote_below_fifth_of_receive": {
            "metric": "ra_send_quote vs a fifth of ra_receive_data at "
                      "0.1 MB (s)",
            "threshold": round(small["receive_data"] / 5, 6),
            "value": round(small["send_quote"], 6),
            "asserted": True,
            "reason": shape_reason + ": the receive absorbs the verifier's "
                      "msg2 checks and the blob's decryption",
        },
        "receive_grows_with_blob": {
            "metric": "ra_receive_data at 1 MB vs 0.1 MB (s; must exceed "
                      "the threshold)",
            "threshold": round(small["receive_data"], 6),
            "value": round(large["receive_data"], 6),
            "asserted": True,
            "reason": shape_reason + ": ten times the bytes to decrypt",
        },
    })
    save_json("BENCH_table4_wasi_ra", {"gates": gates})
    assert small_results["ctx"] > 0 and large_results["ctx"] > 0, gates
    assert small_results["quote"] > 0 and large_results["quote"] > 0, gates
    assert small_results["rc"] == 0 and large_results["rc"] == 0, gates
    assert small_results["missing"] == large_results["missing"] == 0, gates
    assert small["handshake"] > small["collect_quote"], gates
    assert small["send_quote"] < small["collect_quote"], gates
    assert small["send_quote"] < small["receive_data"] / 5, gates
    assert large["receive_data"] > small["receive_data"], gates
