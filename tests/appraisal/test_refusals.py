"""One refusal of each kind through each msg2 variant, audit rows pinned.

Table II's clear and encrypted msg2 and the multi-TEE envelope msg2 all
run the verifier's one appraisal pipeline. Each case drives one refusal
end to end against an engine-armed verifier and pins what an operator
sees: the exception (type and exact message) and every audit row the
engine wrote (``tee_type``, ``accepted``, ``reason``, ``detail``) — or
that it wrote none.
"""

import dataclasses
import os
import re
import time

import pytest

from repro.appraisal import AppraisalEngine, AppraisalPolicy, synthetic
from repro.appraisal.envelope import TEE_SGX, TEE_TDX, TEE_TRUSTZONE
from repro.core import protocol
from repro.core.attester import Attester
from repro.core.evidence import SignedEvidence
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
from repro.crypto.cmac import AesCmac
from repro.errors import (
    EndorsementError,
    EnvelopeError,
    MeasurementMismatch,
    PolicyDenied,
    ProtocolError,
    SignatureError,
)

IDENTITY = ecdsa.keypair_from_private(838383)
DEVICE = ecdsa.keypair_from_private(848484)
CLAIM = measure_bytes(b"refusal app").digest
BOOT = b"\x0B" * 32
SECRET = b"refusal secret"
REVOKED = f"measurement {CLAIM.hex()[:16]}... is revoked"


def _legacy_policy():
    policy = VerifierPolicy()
    policy.endorse(DEVICE.public_bytes())
    policy.trust_measurement(CLAIM)
    policy.trust_boot_measurement(BOOT)
    return policy


def _table2_refusal(encrypt, mutate=None, claim=CLAIM, boot=BOOT,
                    forge=False, revoke=None):
    policy = _legacy_policy()
    if mutate:
        mutate(policy)
    engine = AppraisalEngine(
        AppraisalPolicy.from_verifier_policy(_legacy_policy()))
    if revoke == "measurement":
        engine.revoke_measurement(CLAIM)
    elif revoke == "identity":
        engine.revoke_identity(DEVICE.public_bytes())
    verifier = Verifier(IDENTITY, policy, os.urandom, engine=engine)
    attester = Attester(os.urandom)
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    signed = attester.collect_evidence(
        session.anchor, claim, DEVICE.public_bytes(),
        lambda body: ecdsa.sign(DEVICE.private, body), boot_claim=boot)
    if forge:
        signature = bytearray(signed.signature)
        signature[0] ^= 0x01
        signed = SignedEvidence(signed.evidence, bytes(signature))
    msg2 = attester.make_msg2(session, signed, encrypt_evidence=encrypt)
    return engine, lambda: verifier.handle_msg2(vsession, msg2, SECRET)


TABLE2 = [
    ("unendorsed-key", dict(mutate=lambda p: p.endorsements.clear()),
     EndorsementError, "device attestation key is not endorsed",
     [(TEE_TRUSTZONE, False, "identity-unknown",
       "device attestation key is not endorsed")]),
    ("version-below-minimum",
     dict(mutate=lambda p: setattr(p, "minimum_version", (9, 9))),
     EndorsementError,
     "runtime version (1, 0) is below the accepted minimum (9, 9)",
     [(TEE_TRUSTZONE, False, "version-below-minimum",
       "runtime version (1, 0) is below the accepted minimum (9, 9)")]),
    ("unknown-measurement", dict(claim=b"\xEE" * 32), MeasurementMismatch,
     "code measurement eeeeeeeeeeeeeeee... matches no reference value",
     [(TEE_TRUSTZONE, False, "measurement-unknown",
       "code measurement eeeeeeeeeeeeeeee... matches no reference value")]),
    ("untrusted-boot", dict(boot=b"\xEF" * 32), MeasurementMismatch,
     "boot-chain measurement matches no trusted value "
     "(possibly hijacked secure boot)",
     [(TEE_TRUSTZONE, False, "boot-unknown",
       "boot-chain measurement matches no trusted value "
       "(possibly hijacked secure boot)")]),
    ("revoked-measurement", dict(revoke="measurement"), PolicyDenied,
     REVOKED + " [measurement-revoked]",
     [(TEE_TRUSTZONE, False, "measurement-revoked",
       REVOKED + " [measurement-revoked]")]),
    ("revoked-identity", dict(revoke="identity"), PolicyDenied,
     "attestation identity is revoked [identity-revoked]",
     [(TEE_TRUSTZONE, False, "identity-revoked",
       "attestation identity is revoked [identity-revoked]")]),
    ("forged-signature", dict(forge=True), SignatureError,
     "signature does not verify",
     [(TEE_TRUSTZONE, False, "signature-invalid",
       "signature does not verify")]),
]


def _envelope_refusal(kind):
    enclave = synthetic.sgx_enclave(0, CLAIM)
    domain = synthetic.tdx_domain(0, CLAIM)
    policy = AppraisalPolicy()
    sgx = policy.accept_tee(TEE_SGX)
    sgx.trust_measurement(enclave.mrenclave)
    sgx.endorse(enclave.attestation_public_key)
    sgx.trust_signer(enclave.mrsigner)
    if kind == "switched-backend":
        tdx = policy.accept_tee(TEE_TDX)
        tdx.trust_measurement(domain.mrtd)
        tdx.endorse(domain.attestation_public_key)
    elif kind == "svn-below-minimum":
        sgx.minimum_svn = 99
    elif kind == "policy-expired":
        policy.not_after_ns = time.monotonic_ns() - 1
    engine = AppraisalEngine(policy)
    if kind == "revoked-measurement":
        engine.revoke_measurement(enclave.mrenclave)
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        engine=engine)
    attester = Attester(os.urandom)
    session = attester.start_session(IDENTITY.public_bytes())
    if kind == "unknown-backend":
        msg0 = attester.make_msg0_multi(session, 0x7F)
        return engine, lambda: verifier.handle_msg0(msg0)
    if kind == "un-negotiated":
        msg0 = attester.make_msg0(session)
    else:
        msg0 = attester.make_msg0_multi(session, TEE_SGX)
    vsession, msg1 = verifier.handle_msg0(msg0)
    attester.handle_msg1(session, msg1)
    view = enclave.collect_evidence(session.anchor)
    if kind == "malformed-envelope":
        envelope = b"not an envelope at all"
        content = (session.g_a + len(envelope).to_bytes(4, "little")
                   + envelope)
        msg2 = protocol.encode_msg2_multi(
            session.g_a, envelope,
            AesCmac(session.keys.mac_key).mac(content))
        return engine, lambda: verifier.handle_msg2(vsession, msg2, SECRET)
    if kind == "un-negotiated":
        session.tee_type = TEE_SGX  # the client pretends it negotiated
    elif kind == "switched-backend":
        view = domain.collect_evidence(session.anchor)
        session.tee_type = TEE_TDX  # defeat the client-side guard
    elif kind == "forged-signature":
        signature = bytearray(view.signature)
        signature[0] ^= 0x01
        view = dataclasses.replace(view, signature=bytes(signature))
    msg2 = attester.make_msg2_multi(session, view)
    return engine, lambda: verifier.handle_msg2(vsession, msg2, SECRET)


ENVELOPE = [
    ("unknown-backend", EnvelopeError,
     "no codec registered for tee_type 0x7f",
     [(0x7F, False, "tee-not-accepted",
       "no codec registered for tee_type 0x7f")]),
    ("malformed-envelope", EnvelopeError, "bad envelope magic",
     [(0x00, False, "envelope-malformed", "bad envelope magic")]),
    ("un-negotiated", ProtocolError,
     "multi-TEE msg2 on a handshake that did not negotiate an evidence "
     "backend",
     []),
    ("switched-backend", ProtocolError,
     "msg2 evidence backend differs from the negotiated one",
     [(TEE_TDX, False, "tee-not-accepted",
       "evidence backend differs from the negotiated one")]),
    ("forged-signature", SignatureError, "signature does not verify",
     [(TEE_SGX, False, "signature-invalid", "signature does not verify")]),
    ("svn-below-minimum", PolicyDenied,
     "svn 1 is below the accepted minimum 99 [svn-below-minimum]",
     [(TEE_SGX, False, "svn-below-minimum",
       "svn 1 is below the accepted minimum 99")]),
    ("revoked-measurement", PolicyDenied, REVOKED + " [measurement-revoked]",
     [(TEE_SGX, False, "measurement-revoked", REVOKED)]),
    # The pipeline evaluates the policy at the verifier's monotonic
    # clock, so an expired policy refuses the handshake.
    ("policy-expired", PolicyDenied,
     "appraisal policy has expired [policy-expired]",
     [(TEE_SGX, False, "policy-expired", "appraisal policy has expired")]),
]


def _rows(engine):
    return [(entry.tee_type, entry.accepted, entry.reason, entry.detail)
            for entry in engine.audit.entries()]


@pytest.mark.parametrize("encrypt", [False, True], ids=["clear", "encrypted"])
@pytest.mark.parametrize("name,kwargs,exc_type,message,rows", TABLE2,
                         ids=[case[0] for case in TABLE2])
def test_table2_refusals(encrypt, name, kwargs, exc_type, message, rows):
    engine, run = _table2_refusal(encrypt, **kwargs)
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as excinfo:
        run()
    assert type(excinfo.value) is exc_type
    assert _rows(engine) == rows


@pytest.mark.parametrize("kind,exc_type,message,rows", ENVELOPE,
                         ids=[case[0] for case in ENVELOPE])
def test_envelope_refusals(kind, exc_type, message, rows):
    engine, run = _envelope_refusal(kind)
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as excinfo:
        run()
    assert type(excinfo.value) is exc_type
    assert _rows(engine) == rows
