#!/usr/bin/env python3
"""One Wasm module, one fleet, three kinds of TEE (DESIGN.md §12).

A single attestation gateway — armed with one declarative appraisal
policy — serves TrustZone boards alongside SGX- and TDX-shaped devices,
all attesting the same Wasm application. The demo then fires the
revocation killswitch and shows the fleet-wide effect:
the outstanding resumption ticket is stranded, fresh handshakes are
denied with a stable reason code, and every verdict sits in the
tamper-evident audit chain.
"""

from repro.appraisal import AppraisalEngine, AppraisalPolicy
from repro.appraisal.envelope import TEE_SGX, TEE_TDX, TEE_TRUSTZONE, tee_name
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
PORT = 7980
SECRET = b"mixed-fleet application secret blob"


def main() -> None:
    testbed = Testbed()
    identity = ecdsa.keypair_from_private(0x5EED + 12)

    # One declarative policy for the whole fleet; the engine wraps it
    # with the compiled evaluator, the audit chain and the killswitch.
    appraisal = AppraisalPolicy()
    engine = AppraisalEngine(appraisal)
    gateway_device = testbed.create_device()
    gateway = start_fleet_gateway(
        testbed.network, HOST, PORT, gateway_device.client,
        testbed.vendor_key, identity, VerifierPolicy(), lambda: SECRET,
        FleetConfig(), engine=engine)

    try:
        # Heterogeneous attesters for the *same* Wasm module:
        # build_mixed_stacks provisions the policy per backend
        # (measurement + endorsement, plus boot chain / MRSIGNER where
        # the backend has one).
        population = [TEE_TRUSTZONE, TEE_SGX, TEE_TDX, TEE_SGX]
        stacks = build_mixed_stacks(testbed, appraisal, population)
        print("population:",
              ", ".join(tee_name(s.tee_type) for s in stacks))

        report = run_load(testbed.network, HOST, PORT,
                          identity.public_bytes(), stacks,
                          LoadProfile(concurrency=4,
                                      handshakes_per_attester=2))
        assert len(report.completed) == len(stacks) * 2
        print(f"handshakes: {len(report.completed)}/{len(report.results)}"
              f" ok, {report.throughput_hz:.1f}/s")
        print("audit:", gateway.snapshot()["audit"])

        # --- the killswitch -------------------------------------------------
        sgx = stacks[1]
        print(f"\nrevoking the fleet's application measurement"
              f" (first seen from {tee_name(sgx.tee_type)})…")
        gateway.revoke_measurement(sgx.claim)

        # The SGX device's resumption ticket is stranded (the epoch
        # bump moved the policy fingerprint and with it the cache
        # scope), and a fresh TrustZone handshake presenting the same
        # logical measurement is denied outright.
        for stack, label in [(sgx, "ticket resumption"),
                             (stacks[0], "fresh handshake")]:
            result = run_one_handshake_multi(
                testbed.network, HOST, PORT, identity.public_bytes(),
                stack, attempt=3)
            verdict = "denied" if not result.ok else "ACCEPTED?!"
            print(f"  {tee_name(stack.tee_type):9} {label}: {verdict}"
                  f" ({result.error})")
            assert not result.ok and result.error == "PolicyDenied"

        snapshot = gateway.snapshot()
        print("audit after the killswitch:", snapshot["audit"])
        assert snapshot["audit"]["measurement-revoked"] == 2
    finally:
        gateway.stop()
    print("\ndone: one policy, three TEE shapes, one audited killswitch.")


if __name__ == "__main__":
    main()
