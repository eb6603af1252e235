"""Table II: the remote-attestation protocol — structure and round trip.

Table II in the paper is the protocol definition; the reproduction prints
the realised message layout (field sizes) and benchmarks a full protocol
round trip, which every other RA result builds on.

The gate (threshold, value, ``asserted`` and a reason) is recorded in
``bench_results/BENCH_table2_protocol.json`` before it is asserted.
"""

from __future__ import annotations

import os

from repro.bench import format_table, save_json, save_report
from repro.core import protocol
from repro.core.attester import Attester
from repro.core.evidence import EVIDENCE_BODY_SIZE, EVIDENCE_SIZE
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa

_DEVICE = ecdsa.keypair_from_private(1234567 + 2)
_IDENTITY = ecdsa.keypair_from_private(7654321)
_CLAIM = measure_bytes(b"benchmark app").digest


def _roundtrip() -> bytes:
    attester = Attester(os.urandom)
    policy = VerifierPolicy()
    policy.endorse(_DEVICE.public_bytes())
    policy.trust_measurement(_CLAIM)
    verifier = Verifier(_IDENTITY, policy, os.urandom)
    session = attester.start_session(_IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, _CLAIM, _DEVICE.public_bytes(),
                           lambda body: ecdsa.sign(_DEVICE.private, body))
    msg3 = verifier.handle_msg2(verifier_session, msg2, b"secret blob")
    return attester.handle_msg3(session, msg3)


def test_table2_protocol_roundtrip(benchmark):
    blob = benchmark.pedantic(_roundtrip, rounds=5, iterations=1)
    gates = {
        "roundtrip_delivers_the_secret": {
            "metric": "msg3 secrets that differ from the sealed blob",
            "threshold": 0,
            "value": int(blob != b"secret blob"),
            "asserted": True,
            "reason": "a protocol outcome, independent of host speed",
        },
    }

    rows = [
        ("msg0", "G_a", 1 + 65),
        ("msg1", "G_v || V || SIGN_V(G_v||G_a) || MAC", 1 + 65 + 65 + 64 + 16),
        ("msg2", "G_a || evidence || SIGN_A || MAC",
         1 + 65 + EVIDENCE_SIZE + 16),
        ("  evidence", "anchor || version || claim || boot || A",
         EVIDENCE_BODY_SIZE),
        ("msg3", "iv || AES-GCM_Ke(blob)", 1 + 12 + len(b"secret blob") + 16),
    ]
    save_report("table2_protocol", format_table(
        "Table II — realised message layout (bytes, incl. 1-byte tag)",
        ["message", "contents", "size"], rows,
    ))
    save_json("BENCH_table2_protocol", {
        "layout_bytes": {message.strip(): size
                         for message, _contents, size in rows},
        "gates": gates,
    })
    assert blob == b"secret blob", gates
