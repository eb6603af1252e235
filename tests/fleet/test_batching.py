"""Overlapping msg2s on the gateway.

The gateway does not batch signature checks in the normal world: each
msg2 of a concurrent burst is verified on its own by the verifier TA,
so its whole verify cost must land in its own service time.
"""

from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.fleet import (LoadProfile, build_attester_stacks, run_load,
                         start_fleet_gateway)
from repro.obs import Tracer
from repro.testbed import Testbed

HOST = "fleet.verifier"
SECRET = b"batched fleet secret" * 8
IDENTITY = ecdsa.keypair_from_private(0xBA7C4 + 99)


def test_batch_share_lands_in_service_time():
    # A burst of msg2s that once shared one batched check: each one's TA
    # time must surface in its own fleet.request span and in the
    # service-time histograms, not vanish.
    testbed = Testbed(first_serial=10)
    device = testbed.create_device()
    policy = VerifierPolicy()
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, 7812, device.client, testbed.vendor_key,
            IDENTITY, policy, lambda: SECRET)
        try:
            stacks = build_attester_stacks(testbed, policy, 4)
            report = run_load(testbed.network, HOST, 7812,
                              IDENTITY.public_bytes(), stacks,
                              LoadProfile(concurrency=4,
                                          handshakes_per_attester=1))
        finally:
            gateway.stop()
    assert len(report.completed) == 4
    msg2 = [span for span in tracer.spans()
            if span.name == "fleet.request" and span.attrs["kind"] == "msg2"]
    assert len(msg2) == 4
    assert len({span.attrs["conn"] for span in msg2}) == 4
    assert all(span.wall_s > 0.0 and span.sim_ns > 0 for span in msg2)
    histogram = gateway.metrics.histogram("service.msg2")
    assert histogram["count"] == 4
    assert histogram["min"] > 0.0
