"""The verifier side of the WaTZ remote-attestation protocol.

The verifier holds a long-lived ECDSA identity ``V``, a set of
*endorsements* (public attestation keys of known devices) and a set of
*reference values* (trusted Wasm code measurements). It performs all the
checks of paper §IV(d): MAC, session-key consistency, anchor binding,
endorsement lookup, evidence signature, claim comparison — and only then
releases the secret blob, encrypted under the session key.

Every msg2 variant runs those checks through one pipeline. A variant's
decode step authenticates its message (MAC, session key) and hands over
an evidence view, its resumption ticket, the bytes that ticket MACs, and
its appraisal steps before and after the signature:

* Table II's clear msg2 and the §IV encrypted msg2 yield a
  ``TrustZoneView``; their steps are the seed's checks against the
  :class:`VerifierPolicy` (plus the killswitch when an engine is armed),
  and their ticket MACs the bare evidence body — the seed's bytes;
* the multi-TEE msg2 yields whatever view its envelope's codec decodes;
  its one step, after the signature, is the engine's declarative policy,
  and its ticket MACs the whole envelope, whose header carries the
  ``tee_type`` — so a ticket never redeems on the other variant, even
  for the same TrustZone evidence.

:meth:`Verifier.handle_msg2` then checks the anchor, runs the
pre-signature step, lets a valid ticket stand in for the signature or
verifies it, runs the post-signature step, writes one audit row, stores
the resumption key and seals msg3, all under one fingerprint of the
engine's policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Set, Tuple

from repro.appraisal.policy import Reason
from repro.crypto import ec, ecdh, ecdsa
from repro.crypto.cmac import AesCmac
from repro.crypto.gcm import AesGcm
from repro.crypto.hashing import constant_time_equal, sha256
from repro.crypto.kdf import SessionKeys, derive_session_keys
from repro.core import protocol
from repro.core.evidence import WATZ_VERSION, SignedEvidence
from repro.errors import EnvelopeError, PolicyDenied, ProtocolError


@dataclass
class VerifierPolicy:
    """What the verifier accepts."""

    endorsements: Set[bytes] = field(default_factory=set)
    reference_values: Set[bytes] = field(default_factory=set)
    # Runtimes older than this are rejected (rollback discussion, §VII).
    minimum_version: Tuple[int, int] = WATZ_VERSION
    # Measured-boot appraisal (§VII extension): when non-empty, the
    # evidence's boot claim must match one of these accumulated values.
    trusted_boot_measurements: Set[bytes] = field(default_factory=set)

    def endorse(self, attestation_public_key: bytes) -> None:
        self.endorsements.add(bytes(attestation_public_key))

    def trust_measurement(self, claim: bytes) -> None:
        self.reference_values.add(bytes(claim))

    def trust_boot_measurement(self, accumulated: bytes) -> None:
        self.trusted_boot_measurements.add(bytes(accumulated))

    def fingerprint(self) -> bytes:
        """A digest of everything the appraisal outcome depends on."""
        return sha256(b"".join(sorted(self.endorsements)) + b"|refs|"
                      + b"".join(sorted(self.reference_values)) + b"|boot|"
                      + b"".join(sorted(self.trusted_boot_measurements))
                      + b"|ver|" + bytes(self.minimum_version))


@dataclass
class VerifierSession:
    """Mutable state of one verification."""

    session_keypair: ecdh.SessionKeyPair
    g_a: bytes
    keys: SessionKeys
    #: Evidence backend negotiated in a multi-TEE msg0 (``None`` for the
    #: legacy single-TEE handshake).
    tee_type: Optional[int] = None

    @property
    def g_v(self) -> bytes:
        return self.session_keypair.public_bytes()


def _no_step(view) -> None:
    """An appraisal step a variant does not have."""


class Verifier:
    """Protocol engine for the relying party."""

    def __init__(self, identity: ecdsa.KeyPair, policy: VerifierPolicy,
                 random_source: Callable[[int], bytes],
                 appraisal_cache=None, engine=None) -> None:
        self.identity = identity
        self.policy = policy
        self._random = random_source
        # Optional repro.fleet.cache.AppraisalCache: memoises successful
        # appraisals so re-attestations by a known-genuine device skip the
        # expensive ECDSA verify (the asymmetric-crypto dominance of
        # Table III is what makes this worthwhile at fleet scale).
        self.appraisal_cache = appraisal_cache
        # Optional repro.appraisal.AppraisalEngine: enables the multi-TEE
        # envelope handshake, audits every appraisal decision (legacy
        # path included), and arms the revocation killswitch. ``None``
        # keeps the verifier exactly the seed single-TEE engine.
        self.engine = engine

    @property
    def identity_bytes(self) -> bytes:
        return self.identity.public_bytes()

    def _cache_scope(self, fingerprint: Optional[bytes]) -> bytes:
        """What the appraisal cache's entries and tickets are valid under.

        The legacy policy's fingerprint, combined — when an engine is
        armed — with the declarative policy's ``fingerprint``, revocation
        epoch included: any revocation moves the scope, the cache clears,
        and outstanding resumption tickets die with the entries that
        anchored them.
        """
        if fingerprint is None:
            return self.policy.fingerprint()
        return sha256(self.policy.fingerprint() + fingerprint)

    # -- msg0 -> msg1 --------------------------------------------------------------

    def handle_msg0(self, data: bytes) -> Tuple[VerifierSession, bytes]:
        """Process msg0 and produce msg1 (paper §IV(b)).

        A multi-TEE msg0 also declares the attester's evidence backend:
        the verifier accepts it iff a codec is registered, and echoes the
        tag inside msg1's MAC'd content so the negotiation cannot be
        tampered with downstream.
        """
        tee_type = None
        if data and data[0] == protocol.MSG0_MULTI:
            engine = self._require_engine()
            tee_type, g_a = protocol.decode_msg0_multi(data)
            if tee_type not in engine.registry:
                detail = f"no codec registered for tee_type {tee_type:#04x}"
                engine.record(tee_type, False, Reason.TEE_NOT_ACCEPTED,
                              detail)
                raise EnvelopeError(detail)
        else:
            g_a = protocol.decode_msg0(data)
        keypair = ecdh.generate(self._random)
        shared = ecdh.shared_secret(keypair.private, ec.decode_point(g_a))
        session = VerifierSession(keypair, g_a, derive_session_keys(shared),
                                  tee_type)
        return session, self._make_msg1(session)

    def _make_msg1(self, session: VerifierSession) -> bytes:
        """Sign both session keys, MAC the content and encode msg1.

        A method of its own, so that an observer can tell msg1's work
        from msg0's (Table III's verifier columns).
        """
        signature = ecdsa.sign(self.identity.private,
                               session.g_v + session.g_a)
        tee_type = session.tee_type
        tag = b"" if tee_type is None else bytes([tee_type])
        content = tag + session.g_v + self.identity_bytes + signature
        mac = AesCmac(session.keys.mac_key).mac(content)
        if tee_type is None:
            return protocol.encode_msg1(session.g_v, self.identity_bytes,
                                        signature, mac)
        return protocol.encode_msg1_multi(tee_type, session.g_v,
                                          self.identity_bytes, signature, mac)

    # -- msg2 -> msg3 --------------------------------------------------------------

    def handle_msg2(self, session: VerifierSession, data: bytes,
                    secret_blob: bytes) -> bytes:
        """Appraise the evidence; on success, seal the secret blob (msg3).

        Accepts every msg2 variant; see the module docstring for the
        pipeline they share.
        """
        open_msg2 = self._open_envelope_msg2 \
            if data and data[0] == protocol.MSG2_MULTI \
            else self._open_trustzone_msg2
        view, ticket, ticket_body, pre_signature, post_signature = \
            open_msg2(session, data)

        expected_anchor = protocol.compute_anchor(session.g_a, session.g_v)
        if not constant_time_equal(view.anchor, expected_anchor):
            raise ProtocolError(
                "evidence anchor is not bound to this session "
                "(masquerading or replay)"
            )

        # One declarative-policy fingerprint per msg2, when an engine is
        # armed: the cache scope, the evaluator and the audit row share it.
        fingerprint = None if self.engine is None \
            else self.engine.fingerprint()
        cache = self.appraisal_cache
        resumption_key = None
        try:
            pre_signature(view)
            # Hardware genuineness: the attestation key signed the
            # evidence. The appraisal cache may stand in for the
            # asymmetric verify, but only against proof of continuity:
            # the msg2 ticket must be a valid CMAC over this evidence
            # under the resumption key a prior *fully verified* handshake
            # sealed into its msg3. Evidence fields, MAC and anchor are
            # all computable by an attacker from their own key exchange,
            # so a bare msg2 — however well-formed — never skips the
            # signature check. Every other check still runs.
            if cache is not None:
                scope = self._cache_scope(fingerprint)
                resumption_key = cache.redeem(scope, view, ticket_body,
                                              ticket)
            if resumption_key is None:
                view.verify_signature()
            post_signature(view, fingerprint)
        except Exception as exc:
            # Appraisal steps tag what they raise with a reason code; an
            # untagged failure is the signature's. A policy verdict's
            # denial keeps the verdict's own detail.
            self._audit(fingerprint, view.tee_type, False,
                        getattr(exc, "reason_code", Reason.SIGNATURE_INVALID),
                        getattr(exc, "detail", str(exc)))
            raise
        self._audit(fingerprint, view.tee_type, True, Reason.OK)

        # All checks passed: only now is the appraisal memoised, so a
        # failed appraisal is never cached. The freshly drawn resumption
        # key travels to the attester inside msg3's AES-GCM envelope —
        # only the session peer whose signature just verified can read it.
        if cache is not None and resumption_key is None:
            resumption_key = self._random(protocol.RESUMPTION_KEY_SIZE)
            cache.store(scope, view, resumption_key)

        # Provision the secret blob (paper §IV(d)).
        return self._seal_msg3(session, secret_blob, resumption_key)

    def _open_trustzone_msg2(self, session: VerifierSession, data: bytes):
        """Table II's clear msg2 or the §IV encrypted-evidence msg2."""
        # The TrustZone codec imports repro.core.evidence, so it is
        # imported here rather than at module top to keep package import
        # acyclic (sys.modules makes the repeat import a dict lookup).
        from repro.appraisal.codecs import trustzone

        if data and data[0] == protocol.MSG2_ENC:
            sealed = protocol.decode_msg2_encrypted(data)
            AesCmac(session.keys.mac_key).verify(sealed.content, sealed.mac)
            body = AesGcm(session.keys.enc_key).open(sealed.iv,
                                                     sealed.sealed_evidence)
            g_a, signed, ticket = sealed.g_a, SignedEvidence.decode(body), b""
        else:
            message = protocol.decode_msg2(data)
            AesCmac(session.keys.mac_key).verify(message.content, message.mac)
            g_a, signed, ticket = (message.g_a, message.signed_evidence,
                                   message.ticket)
        _check_session_key(session, g_a)
        evidence = signed.evidence

        def pre_signature(view) -> None:
            # The revocation killswitch (engine-armed deployments only)
            # outranks every accept rule, the cache's included.
            if self.engine is not None:
                self._check_revocations(view)
            trustzone.appraise_pre_signature(self.policy, evidence)

        def post_signature(view, fingerprint) -> None:
            trustzone.appraise_post_signature(self.policy, evidence)

        return (trustzone.TrustZoneView(signed), ticket, evidence.encode(),
                pre_signature, post_signature)

    def _open_envelope_msg2(self, session: VerifierSession, data: bytes):
        """The multi-TEE msg2: an envelope decoded by the engine's codecs."""
        engine = self._require_engine()
        message = protocol.decode_msg2_multi(data)
        AesCmac(session.keys.mac_key).verify(message.content, message.mac)
        _check_session_key(session, message.g_a)
        if session.tee_type is None:
            raise ProtocolError(
                "multi-TEE msg2 on a handshake that did not negotiate "
                "an evidence backend")
        view = engine.decode(message.envelope)
        if view.tee_type != session.tee_type:
            detail = "evidence backend differs from the negotiated one"
            engine.record(view.tee_type, False, Reason.TEE_NOT_ACCEPTED,
                          detail)
            raise ProtocolError("msg2 " + detail)
        return view, message.ticket, message.envelope, _no_step, \
            self._appraise_envelope

    def _appraise_envelope(self, view, fingerprint: bytes) -> None:
        # The declarative policy runs even on a cache hit: the cache only
        # stands in for the asymmetric verify, never for appraisal.
        self.engine.evaluator(fingerprint).evaluate(
            view, now_ns=time.monotonic_ns()).raise_if_denied()

    def _check_revocations(self, view) -> None:
        """The killswitch half of the declarative policy, for Table II."""
        policy = self.engine.policy
        claim = bytes(view.claim)
        if claim in policy.revoked_measurements:
            raise PolicyDenied(
                f"measurement {claim.hex()[:16]}... is revoked",
                reason=Reason.MEASUREMENT_REVOKED)
        if bytes(view.identity) in policy.revoked_identities:
            raise PolicyDenied("attestation identity is revoked",
                               reason=Reason.IDENTITY_REVOKED)

    def _audit(self, fingerprint: Optional[bytes], tee_type: int,
               accepted: bool, reason: str, detail: str = "") -> None:
        if self.engine is not None:
            self.engine.record(tee_type, accepted, reason, detail,
                               fingerprint)

    def _seal_msg3(self, session: VerifierSession, secret_blob: bytes,
                   resumption_key: Optional[bytes]) -> bytes:
        iv = self._random(12)
        chunks = (secret_blob,) if resumption_key is None \
            else (resumption_key, secret_blob)
        return protocol.seal_msg3(AesGcm(session.keys.enc_key), iv, chunks,
                                  resume=resumption_key is not None)

    def _require_engine(self):
        if self.engine is None:
            raise ProtocolError(
                "multi-TEE handshake needs an appraisal engine")
        return self.engine


def _check_session_key(session: VerifierSession, g_a: bytes) -> None:
    # G_a must match msg0's: otherwise someone spliced sessions.
    if not constant_time_equal(g_a, session.g_a):
        raise ProtocolError("msg2 session key differs from msg0")
