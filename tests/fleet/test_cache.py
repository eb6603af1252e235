"""The appraisal cache: ticket redemption, TTL, capacity, invalidation.

Plus the verifier integration: a cache hit — authorised by a valid
resumption ticket — skips exactly the msg2 asymmetric verify (Table III's
dominant cost) while every session-bound check still runs. Crucially, a
warm cache never weakens device authentication: a msg2 fabricated from
public values (endorsed key, trusted claims, attacker's own session MAC
and anchor) with a forged signature is still rejected, because without
the resumption key no valid ticket can be produced and the full ECDSA
verify runs.
"""

import os

import pytest

from repro.appraisal.codecs.trustzone import TrustZoneView
from repro.core import measure_bytes, protocol
from repro.core.attester import Attester
from repro.core.evidence import Evidence, SignedEvidence
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
from repro.crypto.cmac import AesCmac
from repro.errors import AuthenticationError, SignatureError
from repro.fleet.cache import AppraisalCache
from repro.obs import TraceAnalyzer, Tracer

DEVICE = ecdsa.keypair_from_private(515151)
IDENTITY = ecdsa.keypair_from_private(616161)
CLAIM = measure_bytes(b"cached app").digest
KEY = b"\xA5" * protocol.RESUMPTION_KEY_SIZE


def _sign(body):
    return ecdsa.sign(DEVICE.private, body)


def _policy():
    policy = VerifierPolicy()
    policy.endorse(DEVICE.public_bytes())
    policy.trust_measurement(CLAIM)
    return policy


def _evidence(anchor=b"\x01" * 32, claim=CLAIM,
              key=DEVICE.public_bytes(), boot=b"\x00" * 32):
    return TrustZoneView(SignedEvidence(
        Evidence(anchor=anchor, claim=claim, attestation_public_key=key,
                 boot_claim=boot),
        signature=b"\x07" * ecdsa.SIGNATURE_SIZE))


def _ticket(resumption_key, evidence):
    return AesCmac(resumption_key).mac(evidence.encode())


def _redeem(cache, policy, evidence, ticket):
    return cache.redeem(policy.fingerprint(), evidence, evidence.encode(),
                        ticket)


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_s(self, seconds):
        self.ns += int(seconds * 1e9)


# -- unit behaviour ----------------------------------------------------------------


def test_miss_then_store_then_redeem():
    cache = AppraisalCache()
    policy = _policy()
    evidence = _evidence()
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) is None
    cache.store(policy.fingerprint(), evidence, KEY)
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) == KEY
    assert cache.hits == 1 and cache.misses == 1


def test_redeem_requires_a_valid_ticket():
    # An entry alone is worthless: an attacker who knows every public
    # field of the evidence still cannot redeem without the key.
    cache = AppraisalCache()
    policy = _policy()
    evidence = _evidence()
    cache.store(policy.fingerprint(), evidence, KEY)
    assert _redeem(cache, policy, evidence, b"") is None
    wrong = _ticket(b"\x5A" * protocol.RESUMPTION_KEY_SIZE, evidence)
    assert _redeem(cache, policy, evidence, wrong) is None
    assert cache.hits == 0 and cache.misses == 2
    assert cache.bad_tickets == 1  # only the wrong guess, not the absence


def test_ticket_is_bound_to_the_evidence_body():
    # A captured ticket covers the old session's anchor; presenting it
    # with evidence for a new anchor must not redeem.
    cache = AppraisalCache()
    policy = _policy()
    old = _evidence(anchor=b"\x01" * 32)
    cache.store(policy.fingerprint(), old, KEY)
    captured = _ticket(KEY, old)
    fresh = _evidence(anchor=b"\x99" * 32)
    assert _redeem(cache, policy, fresh, captured) is None
    assert cache.bad_tickets == 1
    # The same key over the fresh body does redeem (anchor is per-session
    # and deliberately not part of the cache key).
    assert _redeem(cache, policy, fresh, _ticket(KEY, fresh)) == KEY


def test_key_binds_device_claim_and_boot():
    cache = AppraisalCache()
    policy = _policy()
    cache.store(policy.fingerprint(), _evidence(), KEY)
    other_key = ecdsa.keypair_from_private(999).public_bytes()
    for changed in (_evidence(key=other_key), _evidence(claim=b"\x42" * 32),
                    _evidence(boot=b"\x42" * 32)):
        assert _redeem(cache, policy, changed, _ticket(KEY, changed)) is None


def test_ttl_expires_from_store_time_even_when_redeemed():
    clock = FakeClock()
    cache = AppraisalCache(ttl_s=10.0, time_source=clock)
    policy = _policy()
    evidence = _evidence()
    cache.store(policy.fingerprint(), evidence, KEY)
    clock.advance_s(6)
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) == KEY
    clock.advance_s(6)
    # 12 s since the store: the redemption at 6 s must not have extended
    # the TTL — the device must re-prove key possession.
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) is None
    assert cache.expirations == 1


def test_capacity_evicts_in_store_order():
    # Order is pure store time (matching the TTL-from-store semantics):
    # a redemption does not protect an entry from capacity eviction.
    cache = AppraisalCache(capacity=2)
    policy = _policy()
    first = _evidence(boot=b"\x01" * 32)
    second = _evidence(boot=b"\x02" * 32)
    third = _evidence(boot=b"\x03" * 32)
    cache.store(policy.fingerprint(), first, KEY)
    cache.store(policy.fingerprint(), second, KEY)
    assert _redeem(cache, policy, first, _ticket(KEY, first)) == KEY
    # evicts first, the oldest store
    cache.store(policy.fingerprint(), third, KEY)
    assert len(cache) == 2
    assert _redeem(cache, policy, first, _ticket(KEY, first)) is None
    assert _redeem(cache, policy, second, _ticket(KEY, second)) == KEY
    assert _redeem(cache, policy, third, _ticket(KEY, third)) == KEY


def test_restore_resets_the_store_order():
    cache = AppraisalCache(capacity=2)
    policy = _policy()
    first = _evidence(boot=b"\x01" * 32)
    second = _evidence(boot=b"\x02" * 32)
    third = _evidence(boot=b"\x03" * 32)
    cache.store(policy.fingerprint(), first, KEY)
    cache.store(policy.fingerprint(), second, KEY)
    # re-verified: first is newest again
    cache.store(policy.fingerprint(), first, KEY)
    cache.store(policy.fingerprint(), third, KEY)  # evicts second
    assert _redeem(cache, policy, first, _ticket(KEY, first)) == KEY
    assert _redeem(cache, policy, second, _ticket(KEY, second)) is None


def test_policy_change_invalidates_everything():
    cache = AppraisalCache()
    policy = _policy()
    evidence = _evidence()
    cache.store(policy.fingerprint(), evidence, KEY)
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) == KEY
    policy.trust_measurement(b"\x55" * 32)  # any policy edit
    assert _redeem(cache, policy, evidence, _ticket(KEY, evidence)) is None
    assert cache.invalidations == 1
    assert policy.fingerprint() != _policy().fingerprint()


def test_store_rejects_a_malformed_key():
    with pytest.raises(ValueError):
        AppraisalCache().store(_policy().fingerprint(), _evidence(),
                               b"short")


def test_snapshot_counters():
    cache = AppraisalCache()
    policy = _policy()
    evidence = _evidence()
    _redeem(cache, policy, evidence, b"")
    cache.store(policy.fingerprint(), evidence, KEY)
    _redeem(cache, policy, evidence, _ticket(KEY, evidence))
    snapshot = cache.snapshot()
    assert snapshot["entries"] == 1
    assert snapshot["hits"] == 1
    assert snapshot["misses"] == 1
    assert snapshot["hit_rate"] == 0.5
    assert snapshot["bad_tickets"] == 0


# -- verifier integration ----------------------------------------------------------


def _attest_once(cache, attester=None):
    """One handshake; returns whether msg2's appraisal ran an ECDSA
    verify (Table III's verifier msg2 asymmetric cell, from spans)."""
    attester = attester or Attester(os.urandom)
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=cache)
    tracer = Tracer()
    with tracer.observe():
        session = attester.start_session(IDENTITY.public_bytes())
        verifier_session, msg1 = verifier.handle_msg0(
            attester.make_msg0(session))
        attester.handle_msg1(session, msg1)
        signed = attester.collect_evidence(session.anchor, CLAIM,
                                           DEVICE.public_bytes(), _sign)
        msg3 = verifier.handle_msg2(verifier_session,
                                    attester.make_msg2(session, signed),
                                    b"the secret")
    assert attester.handle_msg3(session, msg3) == b"the secret"
    costs = TraceAnalyzer(tracer.spans()).protocol_costs()
    return ("verifier", "msg2", "asymmetric") in costs


def _start_attack_session(cache):
    """An attacker's own handshake state: fresh ECDH, valid msg1."""
    attacker = Attester(os.urandom)
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=cache)
    session = attacker.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attacker.make_msg0(session))
    attacker.handle_msg1(session, msg1)
    return attacker, verifier, session, verifier_session


def test_resumption_ticket_skips_the_asymmetric_verify():
    cache = AppraisalCache()
    attester = Attester(os.urandom)
    assert _attest_once(cache, attester)  # cold: the full verify runs
    assert attester.resumption_key is not None
    assert cache.misses == 1 and cache.hits == 0

    # Same attester: it carries a ticket, and the redeemed ticket skips
    # the ECDSA verify entirely.
    assert not _attest_once(cache, attester)
    assert cache.hits == 1


def test_warm_cache_without_a_ticket_still_verifies_the_signature():
    cache = AppraisalCache()
    _attest_once(cache)  # warm the entry for DEVICE's triple
    fresh = Attester(os.urandom)  # no resumption key, no ticket
    # Same device triple, warm cache — but a bare msg2 pays full ECDSA.
    assert _attest_once(cache, fresh)
    assert cache.hits == 0 and cache.misses == 2


def test_forged_signature_with_warm_cache_is_rejected():
    # The REVIEW.md attack: after a genuine device warms the cache, a
    # network attacker runs their own ECDH session (valid MAC and anchor)
    # and fabricates msg2 with the victim's endorsed key, the trusted
    # claims and a forged signature. Without the resumption key there is
    # no valid ticket, the full verify runs, and the forgery dies there.
    cache = AppraisalCache()
    _attest_once(cache)
    attacker, verifier, session, verifier_session = \
        _start_attack_session(cache)
    forged = SignedEvidence(
        Evidence(anchor=session.anchor, claim=CLAIM,
                 attestation_public_key=DEVICE.public_bytes()),
        signature=b"\x01" * ecdsa.SIGNATURE_SIZE,
    )
    with pytest.raises(SignatureError):
        verifier.handle_msg2(verifier_session,
                             attacker.make_msg2(session, forged), b"secret")
    assert cache.hits == 0


def test_forged_signature_with_guessed_ticket_is_rejected():
    cache = AppraisalCache()
    _attest_once(cache)
    attacker, verifier, session, verifier_session = \
        _start_attack_session(cache)
    attacker.resumption_key = os.urandom(protocol.RESUMPTION_KEY_SIZE)
    forged = SignedEvidence(
        Evidence(anchor=session.anchor, claim=CLAIM,
                 attestation_public_key=DEVICE.public_bytes()),
        signature=b"\x01" * ecdsa.SIGNATURE_SIZE,
    )
    with pytest.raises(SignatureError):
        verifier.handle_msg2(verifier_session,
                             attacker.make_msg2(session, forged), b"secret")
    assert cache.hits == 0 and cache.bad_tickets == 1


def test_forged_signature_with_captured_ticket_is_rejected():
    # The ticket travels in clear inside msg2, so assume the attacker
    # captured the genuine device's ticket. It MACs the *old* evidence
    # body (old anchor); over the attacker's evidence it cannot verify.
    cache = AppraisalCache()
    genuine = Attester(os.urandom)
    _attest_once(cache, attester=genuine)
    victim_session = genuine.start_session(IDENTITY.public_bytes())
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=cache)
    verifier_session, msg1 = verifier.handle_msg0(
        genuine.make_msg0(victim_session))
    genuine.handle_msg1(victim_session, msg1)
    signed = genuine.collect_evidence(victim_session.anchor, CLAIM,
                                      DEVICE.public_bytes(), _sign)
    captured = protocol.decode_msg2(
        genuine.make_msg2(victim_session, signed)).ticket
    assert captured  # the genuine re-attestation does carry a ticket

    attacker, verifier2, session, verifier_session2 = \
        _start_attack_session(cache)
    forged = SignedEvidence(
        Evidence(anchor=session.anchor, claim=CLAIM,
                 attestation_public_key=DEVICE.public_bytes()),
        signature=b"\x01" * ecdsa.SIGNATURE_SIZE,
    )
    content = session.g_a + forged.encode() + captured
    mac = AesCmac(session.keys.mac_key).mac(content)
    msg2 = protocol.encode_msg2(session.g_a, forged, mac, captured)
    with pytest.raises(SignatureError):
        verifier2.handle_msg2(verifier_session2, msg2, b"secret")
    assert cache.hits == 0 and cache.bad_tickets == 1


def test_cache_hit_still_enforces_session_mac():
    cache = AppraisalCache()
    attester = Attester(os.urandom)
    _attest_once(cache, attester)  # prime the cache + the ticket key
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=cache)
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    signed = attester.collect_evidence(session.anchor, CLAIM,
                                       DEVICE.public_bytes(), _sign)
    msg2 = bytearray(attester.make_msg2(session, signed))
    msg2[-1] ^= 0xFF  # corrupt the MAC trailer
    with pytest.raises(AuthenticationError):
        verifier.handle_msg2(verifier_session, bytes(msg2), b"secret")


def test_failed_appraisal_is_never_stored():
    cache = AppraisalCache()
    attester = Attester(os.urandom)
    verifier = Verifier(IDENTITY, _policy(), os.urandom,
                        appraisal_cache=cache)
    session = attester.start_session(IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    rogue_claim = measure_bytes(b"tampered app").digest
    signed = attester.collect_evidence(session.anchor, rogue_claim,
                                       DEVICE.public_bytes(), _sign)
    with pytest.raises(Exception):
        verifier.handle_msg2(verifier_session,
                             attester.make_msg2(session, signed), b"secret")
    assert len(cache) == 0
