"""The execution engine must be invisible to the cost model.

Mirror of tests/crypto/test_cost_invariance.py for the Wasm engine: AOT
compilation and its optimisations (typed planes, hoisted bounds checks,
mask elimination) change *wall clock* only. A full on-device attestation
— Wasm module measured, loaded, executed, evidence exchanged over the
simulated network — must produce byte-identical RA transcripts and
identical SimClock totals whether the module runs on the AOT engine (the
default) or on the interpreter.
"""

from __future__ import annotations

from repro.core import VerifierPolicy, measure_bytes, start_verifier
from repro.crypto import ecdsa
from repro.testbed import Testbed
from repro.wasm.codecache import DEFAULT_CACHE
from repro.workloads.attested import build_attested_app

_SECRET = b"the attested payload" * 10
_VERIFIER_PRIVATE = 0x5EC2E7 + 7
_HOST, _PORT = "opt-invariance.local", 7190


def _attested_run(engine="aot"):
    """Full on-device attestation; returns (SimClock ns, RA transcript)."""
    DEFAULT_CACHE.clear()  # identical cold-cache conditions for both runs
    testbed = Testbed(deterministic_rng=True)
    transcript = []
    original_connect = testbed.network.connect

    def recording_connect(host, port):
        connection = original_connect(host, port)
        original_send, original_receive = connection.send, connection.receive

        def send(data):
            transcript.append(("send", bytes(data)))
            original_send(data)

        def receive():
            data = original_receive()
            transcript.append(("recv", bytes(data)))
            return data

        connection.send = send
        connection.receive = receive
        return connection

    testbed.network.connect = recording_connect

    device = testbed.create_device()
    identity = ecdsa.keypair_from_private(_VERIFIER_PRIVATE)
    app = build_attested_app(identity.public_bytes(), _HOST, _PORT,
                             secret_capacity=1 << 12)
    policy = VerifierPolicy()
    policy.endorse(device.attestation_public_key)
    policy.trust_measurement(measure_bytes(app).digest)
    start_verifier(testbed.network, _HOST, _PORT, device.client,
                   testbed.vendor_key, identity, policy, lambda: _SECRET)
    session = device.open_watz(heap_size=17 * 1024 * 1024, engine=engine)
    loaded = device.load_wasm(session, app)
    assert device.run_wasm(session, loaded["app"], "attest") == len(_SECRET)
    return device.soc.clock.now_ns(), transcript


def test_simclock_and_ra_transcript_identical_on_both_engines():
    aot_ns, aot_transcript = _attested_run()
    interp_ns, interp_transcript = _attested_run("interpreter")

    # The wire bytes of msg0..msg3 must not depend on which engine ran
    # the Wasm that drove the exchange.
    assert aot_transcript == interp_transcript
    assert aot_transcript, "the attestation must actually exchange data"
    # Every simulated charge (world transitions, shared-memory copies,
    # crypto phases, WASI dispatches) is identical: the engine changed no
    # observable cost.
    assert aot_ns == interp_ns
