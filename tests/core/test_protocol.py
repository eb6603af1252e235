"""Wire formats and the attester/verifier state machines (Table II)."""

import os

import pytest

from repro.core import protocol
from repro.core.attester import Attester
from repro.core.evidence import SignedEvidence
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
from repro.errors import (
    AuthenticationError,
    EndorsementError,
    MeasurementMismatch,
    ProtocolError,
)
from repro.obs import TraceAnalyzer, Tracer

DEVICE = ecdsa.keypair_from_private(1111)
IDENTITY = ecdsa.keypair_from_private(2222)
CLAIM = measure_bytes(b"trusted app").digest


def _sign(body: bytes) -> bytes:
    return ecdsa.sign(DEVICE.private, body)


def _policy(**kwargs):
    policy = VerifierPolicy(**kwargs)
    policy.endorse(DEVICE.public_bytes())
    policy.trust_measurement(CLAIM)
    return policy


def _actors(policy=None):
    attester = Attester(os.urandom)
    verifier = Verifier(IDENTITY, policy or _policy(), os.urandom)
    return attester, verifier


def _run_protocol(attester, verifier, claim=CLAIM, secret=b"blob"):
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, claim, DEVICE.public_bytes(), _sign)
    msg3 = verifier.handle_msg2(verifier_session, msg2, secret)
    return attester.handle_msg3(session, msg3), session, verifier_session


def test_full_roundtrip_delivers_secret():
    attester, verifier = _actors()
    blob, _, _ = _run_protocol(attester, verifier, secret=b"s3cret" * 100)
    assert blob == b"s3cret" * 100


def test_msg0_encoding():
    attester, _ = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    msg0 = attester.make_msg0(session)
    assert msg0[0] == protocol.MSG0
    assert protocol.decode_msg0(msg0) == session.g_a


def test_anchor_binds_both_session_keys():
    a = protocol.compute_anchor(b"A" * 65, b"B" * 65)
    assert a != protocol.compute_anchor(b"B" * 65, b"A" * 65)
    assert len(a) == 32


def test_misordered_message_rejected():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    with pytest.raises(ProtocolError):
        protocol.decode_msg1(attester.make_msg0(session))


def test_attester_rejects_rogue_verifier_identity():
    attester, verifier = _actors()
    rogue = ecdsa.keypair_from_private(3333)
    session = attester.start_session(rogue.public_bytes())
    _, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    with pytest.raises(AuthenticationError, match="hard-coded"):
        attester.handle_msg1(session, msg1)


def test_attester_rejects_tampered_msg1_mac():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    _, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    tampered = bytearray(msg1)
    tampered[-1] ^= 1
    with pytest.raises(AuthenticationError):
        attester.handle_msg1(session, bytes(tampered))


def test_attester_rejects_swapped_session_key_signature():
    """Replay: a msg1 from a *different* session must not verify."""
    attester, verifier = _actors()
    session_one = attester.start_session(IDENTITY.public_bytes())
    _, msg1_one = verifier.handle_msg0(attester.make_msg0(session_one))
    session_two = attester.start_session(IDENTITY.public_bytes())
    verifier.handle_msg0(attester.make_msg0(session_two))
    with pytest.raises(AuthenticationError):
        attester.handle_msg1(session_two, msg1_one)


def test_verifier_rejects_unendorsed_device():
    policy = VerifierPolicy()
    policy.trust_measurement(CLAIM)
    attester, verifier = _actors(policy)
    with pytest.raises(EndorsementError, match="endorsed"):
        _run_protocol(attester, verifier)


def test_verifier_rejects_unknown_measurement():
    attester, verifier = _actors()
    with pytest.raises(MeasurementMismatch):
        _run_protocol(attester, verifier,
                      claim=measure_bytes(b"evil app").digest)


def test_verifier_rejects_tampered_msg2_mac():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = bytearray(
        attester.attest(session, CLAIM, DEVICE.public_bytes(), _sign))
    msg2[-1] ^= 1
    with pytest.raises(AuthenticationError):
        verifier.handle_msg2(verifier_session, bytes(msg2), b"s")


def test_verifier_rejects_cross_session_evidence_replay():
    """The anchor check: evidence from session A fails in session B."""
    attester, verifier = _actors()
    _, session_a, _ = _run_protocol(attester, verifier)
    evidence_a = attester.collect_evidence(
        session_a.anchor, CLAIM, DEVICE.public_bytes(), _sign)

    session_b = attester.start_session(IDENTITY.public_bytes())
    verifier_session_b, msg1 = verifier.handle_msg0(
        attester.make_msg0(session_b))
    attester.handle_msg1(session_b, msg1)
    with pytest.raises(ProtocolError, match="anchor"):
        attester.make_msg2(session_b, evidence_a)  # attester-side guard
    # Bypass the attester-side guard to test the verifier's check.
    from repro.crypto.cmac import AesCmac

    content = session_b.g_a + evidence_a.encode()
    mac = AesCmac(session_b.keys.mac_key).mac(content)
    forged = protocol.encode_msg2(session_b.g_a, evidence_a, mac)
    with pytest.raises(ProtocolError, match="anchor|replay|masquerading"):
        verifier.handle_msg2(verifier_session_b, forged, b"s")


def test_verifier_rejects_old_runtime_version():
    policy = _policy(minimum_version=(9, 0))
    attester, verifier = _actors(policy)
    with pytest.raises(EndorsementError, match="version"):
        _run_protocol(attester, verifier)


def test_msg3_tamper_detected():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, CLAIM, DEVICE.public_bytes(), _sign)
    msg3 = bytearray(verifier.handle_msg2(verifier_session, msg2, b"secret"))
    msg3[-2] ^= 0x10
    with pytest.raises(AuthenticationError):
        attester.handle_msg3(session, bytes(msg3))


def test_fresh_session_keys_per_attempt():
    attester, _ = _actors()
    one = attester.start_session(IDENTITY.public_bytes())
    two = attester.start_session(IDENTITY.public_bytes())
    assert one.g_a != two.g_a  # freshness requirement (paper §IV)


def test_forward_secrecy_keys_differ_per_session():
    attester, verifier = _actors()
    _, session_one, _ = _run_protocol(attester, verifier)
    _, session_two, _ = _run_protocol(attester, verifier)
    assert session_one.keys.enc_key != session_two.keys.enc_key


#: The cells the paper's Table III fills in (and the bench re-records).
_TABLE3_CELLS = {
    ("attester", "msg0", "memory"), ("attester", "msg0", "keygen"),
    ("attester", "msg1", "memory"), ("attester", "msg1", "keygen"),
    ("attester", "msg1", "symmetric"), ("attester", "msg1", "asymmetric"),
    ("attester", "msg2", "memory"), ("attester", "msg2", "symmetric"),
    ("attester", "msg2", "asymmetric"),
    ("verifier", "msg0", "memory"), ("verifier", "msg0", "keygen"),
    ("verifier", "msg1", "memory"), ("verifier", "msg1", "symmetric"),
    ("verifier", "msg1", "asymmetric"),
    ("verifier", "msg2", "memory"), ("verifier", "msg2", "symmetric"),
    ("verifier", "msg2", "asymmetric"),
}


def test_cost_recorder_categories():
    """Table III's cells, observed from outside: the engines hold no
    instrumentation, spans around their primitives fill the matrix."""
    attester, verifier = _actors()
    tracer = Tracer()
    with tracer.observe():
        _run_protocol(attester, verifier)
    costs = TraceAnalyzer(tracer.spans()).protocol_costs()
    assert {cell for cell in costs if cell[1] != "msg3"} == _TABLE3_CELLS
    assert {cell for cell in costs if cell[1] == "msg3"} == {
        ("attester", "msg3", "symmetric"), ("verifier", "msg3", "symmetric")}
    assert all(seconds > 0 for seconds in costs.values())
    # Asymmetric work dominates symmetric (Table III's headline).
    assert costs[("attester", "msg1", "asymmetric")] > \
        costs[("attester", "msg1", "symmetric")]


def test_protocol_message_sizes_fixed():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    msg0 = attester.make_msg0(session)
    verifier_session, msg1 = verifier.handle_msg0(msg0)
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, CLAIM, DEVICE.public_bytes(), _sign)
    from repro.core.evidence import EVIDENCE_SIZE

    assert len(msg0) == 66
    assert len(msg1) == 1 + 65 + 65 + 64 + 16
    # Evidence: 8B header + anchor + claim + boot claim + key + signature.
    assert EVIDENCE_SIZE == 8 + 32 + 32 + 32 + 65 + 64
    assert len(msg2) == 1 + 65 + EVIDENCE_SIZE + 16


def test_msg2_roundtrips_with_a_resumption_ticket():
    attester, verifier = _actors()
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    attester.resumption_key = b"\xA5" * protocol.RESUMPTION_KEY_SIZE
    msg2 = attester.attest(session, CLAIM, DEVICE.public_bytes(), _sign)
    assert len(msg2) == 1 + 65 + protocol.EVIDENCE_SIZE \
        + protocol.TICKET_SIZE + 16
    decoded = protocol.decode_msg2(msg2)
    assert len(decoded.ticket) == protocol.TICKET_SIZE
    # The ticket sits inside the session-MAC'd content: stripping it (or
    # the whole trailing block) breaks the MAC, so it cannot be removed
    # or spliced in transit.
    assert decoded.content.endswith(decoded.ticket)
    stripped = msg2[: 1 + 65 + protocol.EVIDENCE_SIZE] + msg2[-16:]
    with pytest.raises(AuthenticationError):
        verifier.handle_msg2(verifier_session, stripped, b"secret")


def test_msg3_resume_variant_carries_the_key_to_the_attester():
    from repro.fleet.cache import AppraisalCache

    attester = Attester(os.urandom)
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=AppraisalCache())
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, CLAIM, DEVICE.public_bytes(), _sign)
    msg3 = verifier.handle_msg2(verifier_session, msg2, b"fleet secret")
    assert msg3[0] == protocol.MSG3_RESUME
    # The key rides inside the AES-GCM envelope; the attester strips it
    # and the application still receives exactly the secret.
    assert attester.handle_msg3(session, msg3) == b"fleet secret"
    assert len(attester.resumption_key) == protocol.RESUMPTION_KEY_SIZE
