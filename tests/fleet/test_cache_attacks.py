"""Cross-backend and stale-policy attacks on the appraisal cache.

PR 6 widened the cache to multi-TEE evidence; this file pins the two
properties that widening must add: the cache key binds the evidence
*backend* (``tee_type`` and the backend's extra appraised state), and
the scope the verifier passes includes the declarative policy's
fingerprint — so the revocation killswitch's epoch bump strands every
outstanding resumption ticket, on the full handshake path *and* the
resumption path.
"""

import os

import pytest

from repro.appraisal import AppraisalEngine, AppraisalPolicy, synthetic
from repro.appraisal.codecs.trustzone import TrustZoneView
from repro.appraisal.envelope import TEE_SGX, TEE_TRUSTZONE
from repro.core import measure_bytes, protocol
from repro.core.attester import Attester
from repro.core.evidence import Evidence, SignedEvidence
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
from repro.crypto.cmac import AesCmac
from repro.errors import PolicyDenied
from repro.fleet.cache import AppraisalCache

DEVICE = ecdsa.keypair_from_private(717171)
IDENTITY = ecdsa.keypair_from_private(727272)
CLAIM = measure_bytes(b"cross-tee app").digest
KEY = b"\xA5" * protocol.RESUMPTION_KEY_SIZE
SECRET = b"cache attack secret blob"
SCOPE = b"\x5C" * 32


def _tz_view(anchor=b"\x01" * 32, boot=b"\x00" * 32):
    evidence = Evidence(anchor=anchor, claim=CLAIM,
                        attestation_public_key=DEVICE.public_bytes(),
                        boot_claim=boot)
    return TrustZoneView(SignedEvidence(evidence=evidence,
                                        signature=b"\x07" * 64))


def _sgx_view(anchor=b"\x01" * 32, **kwargs):
    return synthetic.sgx_enclave(3, CLAIM, **kwargs).collect_evidence(anchor)


def _ticket(view, key=KEY):
    return AesCmac(key).mac(view.envelope())


# -- the key binds the backend ------------------------------------------------


def test_same_claim_different_backend_is_a_different_entry():
    # An SGX enclave and a TrustZone board attesting the same module
    # share the primary measurement; their cache entries must not.
    cache = AppraisalCache()
    cache.store(SCOPE, _sgx_view(), KEY)
    tz = _tz_view()
    assert cache.redeem(SCOPE, tz, tz.envelope(), _ticket(tz)) is None
    assert cache.misses == 1 and cache.hits == 0


def test_ticket_minted_under_one_backend_never_crosses():
    # Even with a colliding key *construction*, the ticket MAC covers the
    # envelope header — tee_type included — so a captured SGX ticket is
    # useless with evidence claiming another backend.
    cache = AppraisalCache()
    sgx = _sgx_view()
    cache.store(SCOPE, sgx, KEY)
    assert cache.redeem(SCOPE, sgx, sgx.envelope(), _ticket(sgx)) == KEY
    forged = AesCmac(KEY).mac(_tz_view().envelope())
    assert cache.redeem(SCOPE, sgx, sgx.envelope(), forged) is None
    assert cache.bad_tickets == 1


def test_legacy_and_envelope_tickets_are_domain_separated():
    # The verifier checks a Table II ticket against the bare evidence body
    # (seed behaviour, unchanged) and an envelope ticket against the
    # envelope. Both variants key the same cache entry for the same
    # TrustZone board, yet a ticket made for one never redeems on the
    # other, even under the live resumption key.
    policy = VerifierPolicy()
    policy.endorse(DEVICE.public_bytes())
    policy.trust_measurement(CLAIM)
    engine = AppraisalEngine(AppraisalPolicy.from_verifier_policy(policy))
    cache = AppraisalCache()
    verifier = Verifier(IDENTITY, policy, os.urandom,
                        appraisal_cache=cache, engine=engine)
    attester = Attester(os.urandom)

    def handshake(envelope, ticket_over_envelope):
        session = attester.start_session(IDENTITY.public_bytes())
        msg0 = attester.make_msg0_multi(session, TEE_TRUSTZONE) \
            if envelope else attester.make_msg0(session)
        vsession, msg1 = verifier.handle_msg0(msg0)
        attester.handle_msg1(session, msg1)
        signed = attester.collect_evidence(
            session.anchor, CLAIM, DEVICE.public_bytes(),
            lambda body: ecdsa.sign(DEVICE.private, body))
        view = TrustZoneView(signed)
        ticket = b""
        if attester.resumption_key is not None:
            ticket = AesCmac(attester.resumption_key).mac(
                view.envelope() if ticket_over_envelope
                else signed.evidence.encode())
        mac_key = AesCmac(session.keys.mac_key)
        if envelope:
            wrapped = view.envelope()
            content = (session.g_a + len(wrapped).to_bytes(4, "little")
                       + wrapped + ticket)
            msg2 = protocol.encode_msg2_multi(
                session.g_a, wrapped, mac_key.mac(content), ticket)
        else:
            content = session.g_a + signed.encode() + ticket
            msg2 = protocol.encode_msg2(session.g_a, signed,
                                        mac_key.mac(content), ticket)
        msg3 = verifier.handle_msg2(vsession, msg2, SECRET)
        assert attester.handle_msg3(session, msg3) == SECRET

    handshake(envelope=False, ticket_over_envelope=False)  # full verify
    handshake(envelope=True, ticket_over_envelope=False)
    handshake(envelope=False, ticket_over_envelope=True)
    assert cache.hits == 0 and cache.bad_tickets == 2
    # Each variant's own ticket does redeem the shared entry.
    handshake(envelope=True, ticket_over_envelope=True)
    handshake(envelope=False, ticket_over_envelope=False)
    assert cache.hits == 2 and cache.bad_tickets == 2


def test_sgx_config_change_misses_the_old_entry():
    # cache_extra carries MRSIGNER/SVN/debug: a debug relaunch of the
    # same enclave code is a different cache entry (and ticket body).
    cache = AppraisalCache()
    cache.store(SCOPE, _sgx_view(), KEY)
    debug = _sgx_view(debug=True)
    assert cache.redeem(SCOPE, debug, debug.envelope(),
                        _ticket(debug)) is None
    assert cache.misses == 1


# -- the scope binds the declarative policy -----------------------------------


def test_scope_bytes_invalidate_like_a_policy_change():
    cache = AppraisalCache()
    sgx = _sgx_view()
    cache.store(b"\x01" * 32, sgx, KEY)
    assert cache.redeem(b"\x02" * 32, sgx, sgx.envelope(),
                        _ticket(sgx)) is None
    assert cache.invalidations == 1


def _multi_actors(cache):
    attester = Attester(os.urandom)
    enclave = synthetic.sgx_enclave(9, CLAIM)
    policy = AppraisalPolicy()
    tee = policy.accept_tee(TEE_SGX)
    tee.trust_measurement(enclave.mrenclave)
    tee.endorse(enclave.attestation_public_key)
    tee.trust_signer(enclave.mrsigner)
    engine = AppraisalEngine(policy)
    verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                        appraisal_cache=cache, engine=engine)
    return attester, verifier, enclave, engine


def _multi_handshake(attester, verifier, enclave):
    session = attester.start_session(IDENTITY.public_bytes())
    vsession, msg1 = verifier.handle_msg0(
        attester.make_msg0_multi(session, enclave.tee_type))
    attester.handle_msg1(session, msg1)
    view = enclave.collect_evidence(session.anchor)
    msg3 = verifier.handle_msg2(
        vsession, attester.make_msg2_multi(session, view), SECRET)
    return attester.handle_msg3(session, msg3)


def test_revocation_epoch_strands_outstanding_tickets():
    cache = AppraisalCache()
    attester, verifier, enclave, engine = _multi_actors(cache)
    assert _multi_handshake(attester, verifier, enclave) == SECRET
    assert _multi_handshake(attester, verifier, enclave) == SECRET
    assert cache.hits == 1  # the second ride was a ticket

    engine.revoke_measurement(enclave.mrenclave)
    with pytest.raises(PolicyDenied) as excinfo:
        _multi_handshake(attester, verifier, enclave)
    assert excinfo.value.reason_code == "measurement-revoked"
    # The epoch bump moved the combined scope: the ticket redeemed
    # nothing (invalidation), the denial came from the policy run.
    assert cache.hits == 1
    assert cache.invalidations >= 1

    # Un-revoking restores the accept set but NOT the old scope: the
    # stranded tickets stay dead and the device must re-verify in full.
    engine.policy.revoked_measurements.clear()
    assert _multi_handshake(attester, verifier, enclave) == SECRET
    assert cache.hits == 1 and cache.misses >= 2


def test_cache_hit_still_runs_the_declarative_policy():
    # The cache stands in for the ECDSA verify only. A policy that
    # tightens *without* changing the legacy scope would be caught by
    # the fingerprint; here we pin the stronger property: even on a
    # same-scope hit the evaluator runs (audit shows one verdict per
    # handshake, hit or miss).
    cache = AppraisalCache()
    attester, verifier, enclave, engine = _multi_actors(cache)
    assert _multi_handshake(attester, verifier, enclave) == SECRET
    assert _multi_handshake(attester, verifier, enclave) == SECRET
    assert cache.hits == 1
    assert len(engine.audit.entries()) == 2
    assert all(e.accepted for e in engine.audit.entries())
