"""Overlapping msg2s on a multi-lane gateway.

The gateway no longer batches signature checks in the normal world: each
msg2 of a concurrent burst is verified on its own by its lane's verifier
TA, so its whole verify cost must land in its own service time.
"""

from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.fleet import (FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, start_fleet_gateway)
from repro.testbed import Testbed

HOST = "fleet.verifier"
SECRET = b"batched fleet secret" * 8
IDENTITY = ecdsa.keypair_from_private(0xBA7C4 + 99)


def test_batch_share_lands_in_service_time():
    # A burst of msg2s that once shared one batched check: each one's TA
    # time must surface in its record's service_s and in the service-time
    # histograms, not vanish.
    testbed = Testbed(first_serial=10)
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7812, device.client, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET, FleetConfig(workers=4))
    try:
        stacks = build_attester_stacks(testbed, policy, 4)
        report = run_load(testbed.network, HOST, 7812,
                          IDENTITY.public_bytes(), stacks,
                          LoadProfile(concurrency=4,
                                      handshakes_per_attester=1))
        assert len(report.completed) == 4
        msg2 = [r for r in gateway.drain_records() if r.kind == "msg2"]
        assert len(msg2) == 4
        assert all(record.service_s > 0.0 for record in msg2)
        histogram = gateway.metrics.histogram("service.msg2")
        assert histogram["count"] == 4
        assert histogram["min"] > 0.0
    finally:
        gateway.stop()
