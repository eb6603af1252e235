"""The multi-TEE handshake end to end, one backend at a time.

Each backend runs the full msg0/1/2/3 exchange against a real verifier
armed with an appraisal engine; negotiation failures (undeclared or
switched backends, engine-less verifiers, unbound anchors) are exercised
from both sides of the wire.
"""

import os

import pytest

from repro.appraisal import AppraisalEngine, AppraisalPolicy, synthetic
from repro.appraisal.codecs.trustzone import TrustZoneView
from repro.appraisal.envelope import (
    TEE_SGX,
    TEE_TDX,
    TEE_TRUSTZONE,
    encode_envelope,
)
from repro.appraisal.policy import Reason
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
from repro.errors import (
    EnvelopeError,
    PolicyDenied,
    ProtocolError,
    SignatureError,
)

IDENTITY = ecdsa.keypair_from_private(424242)
DEVICE = ecdsa.keypair_from_private(434343)
CLAIM = measure_bytes(b"multi-tee app").digest
SECRET = b"the provisioned secret blob!"
BOOT = b"\x0B" * 32


class TrustZoneDevice:
    """A native WaTZ board presenting its evidence through the envelope."""

    tee_type = TEE_TRUSTZONE

    def __init__(self, attester):
        self._attester = attester

    @property
    def attestation_public_key(self):
        return DEVICE.public_bytes()

    def collect_evidence(self, anchor):
        signed = self._attester.collect_evidence(
            anchor, CLAIM, DEVICE.public_bytes(),
            lambda body: ecdsa.sign(DEVICE.private, body),
            boot_claim=BOOT)
        return TrustZoneView(signed)


def _provisioned_policy(device):
    policy = AppraisalPolicy()
    tee = policy.accept_tee(device.tee_type)
    tee.endorse(device.attestation_public_key)
    if device.tee_type == TEE_TRUSTZONE:
        tee.trust_measurement(CLAIM)
        tee.trust_boot_measurement(BOOT)
    elif device.tee_type == TEE_SGX:
        tee.trust_measurement(device.mrenclave)
        tee.trust_signer(device.mrsigner)
    else:
        tee.trust_measurement(device.mrtd)
    return policy


def _device(tee_type, attester):
    if tee_type == TEE_TRUSTZONE:
        return TrustZoneDevice(attester)
    if tee_type == TEE_SGX:
        return synthetic.sgx_enclave(0, CLAIM)
    return synthetic.tdx_domain(0, CLAIM)


def _handshake(attester, verifier, device):
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, device.tee_type))
    attester.handle_msg1(session, msg1)
    view = device.collect_evidence(session.anchor)
    msg3 = verifier.handle_msg2(
        vsession, attester.make_msg2_multi(session, view), SECRET)
    return attester.handle_msg3(session, msg3)


@pytest.mark.parametrize("tee_type", [TEE_TRUSTZONE, TEE_SGX, TEE_TDX],
                         ids=["trustzone", "sgx", "tdx"])
def test_full_handshake_provisions_the_secret(tee_type):
    attester = Attester(os.urandom)
    device = _device(tee_type, attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    assert _handshake(attester, verifier, device) == SECRET
    entries = engine.audit.entries()
    assert len(entries) == 1
    assert entries[0].accepted and entries[0].reason == Reason.OK
    assert entries[0].tee_type == tee_type


@pytest.mark.parametrize("variant", ["envelope", "table2"])
def test_one_policy_fingerprint_per_msg2(variant, monkeypatch):
    """With the appraisal cache armed, a msg2 hashes the engine's policy
    once: the cache scope, the evaluator's staleness check and the audit
    row share that fingerprint."""
    from repro.fleet.cache import AppraisalCache

    attester = Attester(os.urandom)
    device = TrustZoneDevice(attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    legacy = VerifierPolicy()
    legacy.endorse(DEVICE.public_bytes())
    legacy.trust_measurement(CLAIM)
    legacy.trust_boot_measurement(BOOT)
    verifier = Verifier(IDENTITY, legacy, os.urandom,
                        appraisal_cache=AppraisalCache(), engine=engine)
    fingerprint = AppraisalPolicy.fingerprint
    hashed = []

    def counting(policy):
        hashed.append(policy)
        return fingerprint(policy)

    monkeypatch.setattr(AppraisalPolicy, "fingerprint", counting)
    if variant == "envelope":
        assert _handshake(attester, verifier, device) == SECRET
    else:
        session = attester.start_session(IDENTITY.public_bytes())
        vsession, msg1 = verifier.handle_msg0(attester.make_msg0(session))
        attester.handle_msg1(session, msg1)
        signed = attester.collect_evidence(
            session.anchor, CLAIM, DEVICE.public_bytes(),
            lambda body: ecdsa.sign(DEVICE.private, body), boot_claim=BOOT)
        msg3 = verifier.handle_msg2(
            vsession, attester.make_msg2(session, signed), SECRET)
        assert attester.handle_msg3(session, msg3) == SECRET
    assert hashed == [engine.policy]
    (entry,) = engine.audit.entries()
    assert entry.accepted and entry.fingerprint == fingerprint(engine.policy)


def test_unknown_backend_is_refused_at_msg0():
    engine = AppraisalEngine(AppraisalPolicy())
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    attester = Attester(os.urandom)
    session = attester.start_session(IDENTITY.public_bytes())
    msg0 = attester.make_msg0_multi(session, 0x7F)
    with pytest.raises(EnvelopeError, match="no codec registered"):
        verifier.handle_msg0(msg0)
    (entry,) = engine.audit.entries()
    assert entry.reason == Reason.TEE_NOT_ACCEPTED and not entry.accepted


def test_multi_handshake_needs_an_engine():
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom)
    attester = Attester(os.urandom)
    session = attester.start_session(IDENTITY.public_bytes())
    with pytest.raises(ProtocolError, match="appraisal engine"):
        verifier.handle_msg0(attester.make_msg0_multi(session, TEE_SGX))


def test_msg1_echo_must_match_the_declared_backend():
    attester = Attester(os.urandom)
    device = _device(TEE_SGX, attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    _, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, TEE_SGX))
    session.tee_type = TEE_TDX  # a confused (or tampered-with) client
    with pytest.raises(ProtocolError, match="did not declare"):
        attester.handle_msg1(session, msg1)


def test_attester_refuses_to_send_a_switched_backend():
    attester = Attester(os.urandom)
    sgx_device = _device(TEE_SGX, attester)
    engine = AppraisalEngine(_provisioned_policy(sgx_device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    _, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, TEE_SGX))
    attester.handle_msg1(session, msg1)
    tdx_view = _device(TEE_TDX, attester).collect_evidence(session.anchor)
    with pytest.raises(ProtocolError, match="backend differs"):
        attester.make_msg2_multi(session, tdx_view)


def test_verifier_rejects_a_switched_backend():
    # A malicious client that skips the attester-side guard: negotiate
    # SGX, then deliver a (valid, trusted) TDX envelope.
    attester = Attester(os.urandom)
    sgx_device = _device(TEE_SGX, attester)
    tdx_device = _device(TEE_TDX, attester)
    policy = _provisioned_policy(sgx_device)
    tdx = policy.accept_tee(TEE_TDX)
    tdx.trust_measurement(tdx_device.mrtd)
    tdx.endorse(tdx_device.attestation_public_key)
    engine = AppraisalEngine(policy)
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, TEE_SGX))
    attester.handle_msg1(session, msg1)
    tdx_view = tdx_device.collect_evidence(session.anchor)
    session.tee_type = TEE_TDX  # defeat the client-side guard
    msg2 = attester.make_msg2_multi(session, tdx_view)
    with pytest.raises(ProtocolError, match="differs from the negotiated"):
        verifier.handle_msg2(vsession, msg2, SECRET)
    assert engine.audit.entries()[-1].reason == Reason.TEE_NOT_ACCEPTED


def test_msg2_multi_without_negotiation_is_refused():
    # Legacy msg0 (no tee_type) followed by a multi msg2.
    attester = Attester(os.urandom)
    device = _device(TEE_SGX, attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    view = device.collect_evidence(session.anchor)
    session.tee_type = TEE_SGX  # client pretends it negotiated
    msg2 = attester.make_msg2_multi(session, view)
    with pytest.raises(ProtocolError, match="did not negotiate"):
        verifier.handle_msg2(vsession, msg2, SECRET)


def test_evidence_must_be_anchored_to_the_session():
    attester = Attester(os.urandom)
    device = _device(TEE_SGX, attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, TEE_SGX))
    attester.handle_msg1(session, msg1)
    stale = device.collect_evidence(b"\x5A" * 32)  # some other session
    with pytest.raises(ProtocolError, match="anchor"):
        attester.make_msg2_multi(session, stale)


def test_forged_signature_is_rejected_and_audited():
    attester = Attester(os.urandom)
    device = _device(TEE_SGX, attester)
    engine = AppraisalEngine(_provisioned_policy(device))
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, TEE_SGX))
    attester.handle_msg1(session, msg1)
    view = device.collect_evidence(session.anchor)
    forged = bytearray(view.signature)
    forged[0] ^= 0x01
    import dataclasses

    bad = dataclasses.replace(view, signature=bytes(forged))
    msg2 = attester.make_msg2_multi(session, bad)
    with pytest.raises(SignatureError):
        verifier.handle_msg2(vsession, msg2, SECRET)
    assert engine.audit.entries()[-1].reason == Reason.SIGNATURE_INVALID


def test_policy_denial_carries_the_reason_code():
    attester = Attester(os.urandom)
    device = _device(TEE_SGX, attester)
    policy = _provisioned_policy(device)
    policy.accept_tee(TEE_SGX).minimum_svn = 99
    engine = AppraisalEngine(policy)
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    with pytest.raises(PolicyDenied) as excinfo:
        _handshake(attester, verifier, device)
    assert excinfo.value.reason_code == Reason.SVN_BELOW_MINIMUM
    assert engine.audit.entries()[-1].reason == Reason.SVN_BELOW_MINIMUM


def test_malformed_envelope_is_audited_before_raising():
    engine = AppraisalEngine(AppraisalPolicy())
    with pytest.raises(EnvelopeError):
        engine.decode(b"garbage that is not an envelope at all")
    (entry,) = engine.audit.entries()
    assert entry.reason == Reason.ENVELOPE_MALFORMED
    assert entry.tee_type == 0x00  # unidentifiable backend

    with pytest.raises(EnvelopeError):
        engine.decode(encode_envelope(TEE_SGX, b"short body"))
    assert engine.audit.entries()[-1].tee_type == TEE_SGX
