"""End-to-end acceptance: traced gateway handshakes add up exactly.

ISSUE 2's acceptance criterion: running a gateway-driven handshake with
tracing on yields a trace in which the per-phase virtual-ns spans sum to
the end-to-end measured total. Because every ``clock.advance`` on the
gateway board lands inside some leaf span while traced, the analyzer's
summed self time must equal the board clock's wall-to-wall movement —
no constant from the cost model is consulted anywhere on that path.
"""

import pytest

from repro.core.verifier import VerifierPolicy
from repro.fleet import (FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, start_fleet_gateway)
from repro.hw import DEFAULT_COSTS
from repro.obs import TraceAnalyzer, Tracer, to_chrome_trace, \
    validate_chrome_trace

HOST, PORT = "obs.acceptance", 7960


@pytest.fixture
def traced_gateway_run(testbed, verifier_identity):
    policy = VerifierPolicy()
    gateway_device = testbed.create_device()
    clock = gateway_device.soc.clock
    tracer = Tracer(sim_now=clock.now_ns)
    sim_before = clock.now_ns()
    with tracer.observe(gateway_device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, PORT, gateway_device.client,
            testbed.vendor_key, verifier_identity, policy,
            lambda: b"\x5e" * 32, FleetConfig())
        try:
            stacks = build_attester_stacks(testbed, policy, 1)
            report = run_load(testbed.network, HOST, PORT,
                              verifier_identity.public_bytes(), stacks,
                              LoadProfile(concurrency=1,
                                          handshakes_per_attester=2))
        finally:
            gateway.stop()
    assert len(report.completed) == 2, [r.error for r in report.results]
    sim_after = clock.now_ns()
    return tracer.drain(), sim_after - sim_before


def test_span_self_times_sum_to_end_to_end_total(traced_gateway_run):
    spans, clock_delta = traced_gateway_run
    analyzer = TraceAnalyzer(spans)
    assert clock_delta > 0
    assert analyzer.total_sim_ns() == clock_delta


def test_breakdown_recovers_the_transition_decomposition(traced_gateway_run):
    spans, _ = traced_gateway_run
    analyzer = TraceAnalyzer(spans)
    rows = {row.name: row for row in analyzer.breakdown("fleet.request")}
    # Two handshakes x two messages, each paying one full world
    # round-trip: the Fig. 3b decomposition emerges from the spans.
    assert rows["hw.optee_driver"].sim_ns == \
        4 * DEFAULT_COSTS.optee_driver_ns
    assert rows["hw.session_dispatch"].sim_ns == \
        4 * DEFAULT_COSTS.session_dispatch_ns
    assert rows["hw.smc.enter"].sim_ns + rows["hw.smc.exit"].sim_ns == \
        8 * DEFAULT_COSTS.smc_ns
    assert rows["hw.return_path"].sim_ns == 4 * DEFAULT_COSTS.return_path_ns
    # Protocol phases appear under the request spans on the secure side.
    assert "core.protocol.msg0" in rows
    assert "core.protocol.msg2" in rows


def test_crypto_phases_show_up_via_the_tracing_recorder(traced_gateway_run):
    spans, _ = traced_gateway_run
    names = {span.name for span in spans}
    assert any(name.startswith("crypto.") for name in names)


def test_gateway_trace_exports_and_validates(traced_gateway_run):
    spans, _ = traced_gateway_run
    for clock in ("wall", "sim"):
        validate_chrome_trace(to_chrome_trace(spans, clock=clock))


def test_fleet_request_spans_carry_conn_and_kind(traced_gateway_run):
    spans, _ = traced_gateway_run
    requests = [span for span in spans if span.name == "fleet.request"]
    assert len(requests) == 4  # 2 handshakes x (msg0 + msg2)
    # One connection per handshake, each carrying its msg0 and msg2.
    assert sorted(span.attrs["conn"] for span in requests) == [1, 1, 2, 2]
    assert {span.attrs.get("kind") for span in requests} == {"msg0", "msg2"}
