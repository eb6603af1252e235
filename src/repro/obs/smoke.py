"""Trace smoke run: ``python -m repro.obs.smoke [out_dir]``.

Drives two concurrent attestation handshakes (two clients) through the
fleet gateway while a tracer observes the gateway board, checks that
summed span sim self time equals the board clock's movement (a span
opened outside the device lock would count the other client's SimClock
twice), exports the Chrome trace (wall and sim clocks), the
flame summary and the span-derived per-phase breakdown into
``bench_results/``, and validates the JSON against the Perfetto schema
gate. CI runs this and uploads the artifacts; it doubles as the smallest
end-to-end example of the observability subsystem.
"""

from __future__ import annotations

import os
import sys

from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.fleet import (FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, start_fleet_gateway)
from repro.obs.analysis import TraceAnalyzer
from repro.obs.export import (flame_summary, to_chrome_trace,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.tracer import Tracer
from repro.testbed import Testbed

HOST, PORT = "obs.smoke", 7950


def run_smoke(out_dir: str = "bench_results") -> dict:
    """One traced gateway run; returns the artifact paths."""
    testbed = Testbed()
    identity = ecdsa.keypair_from_private(0x0B5E7EE)
    policy = VerifierPolicy()
    gateway_device = testbed.create_device()
    clock = gateway_device.soc.clock
    tracer = Tracer(sim_now=clock.now_ns)
    secret = bytes(range(256))
    sim_before = clock.now_ns()
    with tracer.observe(gateway_device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, PORT, gateway_device.client,
            testbed.vendor_key, identity, policy, lambda: secret,
            FleetConfig())
        try:
            stacks = build_attester_stacks(testbed, policy, 2)
            report = run_load(testbed.network, HOST, PORT,
                              identity.public_bytes(), stacks,
                              LoadProfile(concurrency=2,
                                          handshakes_per_attester=1))
        finally:
            gateway.stop()
    if len(report.completed) != 2:
        raise RuntimeError(
            f"smoke handshakes failed: {[r.error for r in report.results]}")

    spans = tracer.drain()
    analyzer = TraceAnalyzer(spans)
    clock_delta = clock.now_ns() - sim_before
    if analyzer.total_sim_ns() != clock_delta:
        raise RuntimeError(
            f"span sim self time {analyzer.total_sim_ns()} ns != gateway "
            f"clock delta {clock_delta} ns")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for clock in ("wall", "sim"):
        path = os.path.join(out_dir, f"trace_smoke_{clock}.json")
        write_chrome_trace(path, spans, clock=clock,
                           process_name=f"watz-fleet-smoke ({clock})")
        paths[clock] = path
    validate_chrome_trace(to_chrome_trace(spans, clock="wall"))

    summary_path = os.path.join(out_dir, "trace_smoke_summary.txt")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(analyzer.format_breakdown(
            "fleet.request",
            "gateway message breakdown (derived from spans)") + "\n\n")
        handle.write(flame_summary(spans) + "\n")
    paths["summary"] = summary_path
    return paths


def main(argv) -> int:
    out_dir = argv[0] if argv else "bench_results"
    paths = run_smoke(out_dir)
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
