"""One fleet, one policy, heterogeneous attesters.

One gateway — armed with one appraisal engine — serves TrustZone boards
and SGX/TDX-shaped devices attesting the same Wasm module in the same
run. The revocation killswitch then denies subsequent handshakes *and*
outstanding ticket resumptions fleet-wide, with the denial's stable
reason code in the audit counts.
"""

from repro.appraisal import AppraisalEngine, AppraisalPolicy
from repro.appraisal.envelope import TEE_SGX, TEE_TDX, TEE_TRUSTZONE
from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.fleet import (
    FleetConfig,
    LoadProfile,
    build_mixed_stacks,
    run_load,
    run_one_handshake_multi,
    start_fleet_gateway,
)
from repro.testbed import Testbed

HOST = "fleet.verifier"
SECRET = b"mixed fleet secret blob " * 4
IDENTITY = ecdsa.keypair_from_private(0xB00B1E5 + 606)


def _start(testbed, engine, port):
    device = testbed.create_device()
    return start_fleet_gateway(
        testbed.network, HOST, port, device.client, testbed.vendor_key,
        IDENTITY, VerifierPolicy(), lambda: SECRET,
        FleetConfig(), engine=engine,
    )


def test_mixed_population_attests_under_one_policy():
    testbed = Testbed()
    appraisal = AppraisalPolicy()
    engine = AppraisalEngine(appraisal)
    gateway = _start(testbed, engine, 7930)
    try:
        stacks = build_mixed_stacks(
            testbed, appraisal,
            [TEE_TRUSTZONE, TEE_SGX, TEE_TDX, TEE_SGX])
        report = run_load(testbed.network, HOST, 7930,
                          IDENTITY.public_bytes(), stacks,
                          LoadProfile(concurrency=4,
                                      handshakes_per_attester=2))
        assert len(report.completed) == 8, \
            [(r.attester, r.error) for r in report.results]
        assert all(r.secret_len == len(SECRET) for r in report.completed)
        snapshot = gateway.snapshot()
        assert snapshot["audit"] == {"ok": 8}
        assert snapshot["counters"]["handshakes_completed"] == 8
        # All three backends really crossed the wire as envelopes, and
        # every message was a msg0 or a msg2.
        latency = snapshot["latency"]
        assert latency["service.msg0"]["count"] == 8
        assert latency["service.msg2"]["count"] == 8
        assert "service.other" not in latency
    finally:
        gateway.stop()


def test_untrusted_mixed_stacks_are_denied_with_reasons():
    testbed = Testbed()
    appraisal = AppraisalPolicy()
    engine = AppraisalEngine(appraisal)
    gateway = _start(testbed, engine, 7931)
    try:
        trusted = build_mixed_stacks(testbed, appraisal, [TEE_SGX])
        rogue = build_mixed_stacks(testbed, appraisal, [TEE_TDX],
                                   trusted=False)[0]
        rogue.index = 1
        ok = run_one_handshake_multi(testbed.network, HOST, 7931,
                                     IDENTITY.public_bytes(), trusted[0])
        assert ok.ok, ok.error
        denied = run_one_handshake_multi(testbed.network, HOST, 7931,
                                         IDENTITY.public_bytes(), rogue)
        assert not denied.ok and denied.error == "PolicyDenied"
        audit = gateway.snapshot()["audit"]
        # The TDX slot was never accepted at all for the rogue claim.
        assert audit["ok"] == 1
        assert audit["tee-not-accepted"] == 1
    finally:
        gateway.stop()


def test_killswitch_denies_handshakes_and_ticket_resumptions():
    testbed = Testbed()
    appraisal = AppraisalPolicy()
    engine = AppraisalEngine(appraisal)
    gateway = _start(testbed, engine, 7932)
    try:
        sgx, tz = build_mixed_stacks(testbed, appraisal,
                                     [TEE_SGX, TEE_TRUSTZONE])
        for attempt in range(2):
            result = run_one_handshake_multi(
                testbed.network, HOST, 7932, IDENTITY.public_bytes(),
                sgx, attempt)
            assert result.ok, result.error
        assert gateway.snapshot()["cache"]["hits"] == 1

        gateway.revoke_measurement(sgx.claim)

        # The outstanding ticket does not resume...
        resumed = run_one_handshake_multi(testbed.network, HOST, 7932,
                                          IDENTITY.public_bytes(), sgx, 2)
        assert not resumed.ok and resumed.error == "PolicyDenied"
        # ...and a fresh handshake from the *other* backend presenting
        # the same (revoked) logical measurement is denied too.
        fresh = run_one_handshake_multi(testbed.network, HOST, 7932,
                                        IDENTITY.public_bytes(), tz, 0)
        assert not fresh.ok and fresh.error == "PolicyDenied"

        snapshot = gateway.snapshot()
        assert snapshot["audit"]["ok"] == 2
        assert snapshot["audit"]["measurement-revoked"] == 2
        assert snapshot["counters"]["revocations"] == 1
        # No further hits: the epoch bump stranded the ticket.
        assert snapshot["cache"]["hits"] == 1
    finally:
        gateway.stop()



def test_threaded_gateway_serves_the_same_mixed_population():
    # A two-attester population on the threaded gateway: the engine's
    # snapshot/audit/killswitch surface end to end in one run.
    testbed = Testbed(first_serial=10)
    appraisal = AppraisalPolicy()
    engine = AppraisalEngine(appraisal)
    gateway = _start(testbed, engine, 7933)
    try:
        stacks = build_mixed_stacks(testbed, appraisal,
                                    [TEE_SGX, TEE_TDX])
        report = run_load(testbed.network, HOST, 7933,
                          IDENTITY.public_bytes(), stacks,
                          LoadProfile(concurrency=2,
                                      handshakes_per_attester=1))
        assert len(report.completed) == 2, \
            [(r.attester, r.error) for r in report.results]
        assert gateway.snapshot()["audit"] == {"ok": 2}
        gateway.revoke_measurement(stacks[0].claim)
        denied = run_one_handshake_multi(testbed.network, HOST, 7933,
                                         IDENTITY.public_bytes(),
                                         stacks[0], 1)
        assert not denied.ok and denied.error == "PolicyDenied"
        assert gateway.snapshot()["audit"]["measurement-revoked"] == 1
    finally:
        gateway.stop()
