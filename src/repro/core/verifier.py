"""The verifier side of the WaTZ remote-attestation protocol.

The verifier holds a long-lived ECDSA identity ``V``, a set of
*endorsements* (public attestation keys of known devices) and a set of
*reference values* (trusted Wasm code measurements). It performs all the
checks of paper §IV(d): MAC, session-key consistency, anchor binding,
endorsement lookup, evidence signature, claim comparison — and only then
releases the secret blob, encrypted under the session key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Set, Tuple

# NOTE: the TrustZone codec imports repro.core.evidence, so its appraisal
# helpers are imported lazily inside handle_msg2 to keep package import
# acyclic (sys.modules makes the repeat import a dict lookup).
from repro.appraisal.policy import Reason
from repro.crypto import ec, ecdh, ecdsa
from repro.crypto.cmac import AesCmac
from repro.crypto.gcm import AesGcm
from repro.crypto.hashing import constant_time_equal, sha256
from repro.crypto.kdf import SessionKeys, derive_session_keys
from repro.core import protocol
from repro.core.evidence import TEE_TYPE_TRUSTZONE, WATZ_VERSION
from repro.errors import (
    EndorsementError,
    EnvelopeError,
    MeasurementMismatch,
    PolicyDenied,
    ProtocolError,
)


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


class Verifier:
    """Protocol engine for the relying party."""

    def __init__(self, identity: ecdsa.KeyPair, policy: VerifierPolicy,
                 random_source: Callable[[int], bytes],
                 recorder: Optional[protocol.CostRecorder] = None,
                 appraisal_cache=None, engine=None) -> None:
        self.identity = identity
        self.policy = policy
        self._random = random_source
        self.recorder = recorder or protocol.NullRecorder()
        # Optional repro.fleet.cache.AppraisalCache: memoises successful
        # appraisals so re-attestations by a known-genuine device skip the
        # expensive ECDSA verify (the asymmetric-crypto dominance of
        # Table III is what makes this worthwhile at fleet scale).
        self.appraisal_cache = appraisal_cache
        # Optional repro.appraisal.AppraisalEngine: enables the multi-TEE
        # envelope handshake (msg0/1/2_multi), audits every appraisal
        # decision (legacy path included), and arms the revocation
        # killswitch. ``None`` keeps the verifier exactly the seed
        # single-TEE engine.
        self.engine = engine

    @property
    def identity_bytes(self) -> bytes:
        return self.identity.public_bytes()

    def _policy_scope(self):
        """What the appraisal cache's fingerprint must cover.

        Without an engine this is the legacy ``VerifierPolicy`` (the
        cache fingerprints it itself — seed behaviour, unchanged). With
        an engine, cached appraisals also depend on the declarative
        policy — including its revocation epoch — so the scope becomes a
        single combined digest: any revocation bumps it, the gateway's
        cache clears, and outstanding resumption tickets die with the
        entries that anchored them.
        """
        if self.engine is None:
            return self.policy
        from repro.fleet.cache import policy_fingerprint

        return sha256(policy_fingerprint(self.policy)
                      + self.engine.fingerprint())

    # -- msg0 -> msg1 --------------------------------------------------------------

    def handle_msg0(self, data: bytes) -> Tuple[VerifierSession, bytes]:
        """Process msg0 and produce msg1 (paper §IV(b))."""
        with self.recorder.phase("msg0", protocol.MEMORY):
            g_a = protocol.decode_msg0(data)
        with self.recorder.phase("msg0", protocol.KEYGEN):
            keypair = ecdh.generate(self._random)
            shared = ecdh.shared_secret(keypair.private, ec.decode_point(g_a))
            keys = derive_session_keys(shared)
        session = VerifierSession(keypair, g_a, keys)

        with self.recorder.phase("msg1", protocol.ASYMMETRIC):
            signature = ecdsa.sign(self.identity.private,
                                   session.g_v + g_a)
        with self.recorder.phase("msg1", protocol.SYMMETRIC):
            content = session.g_v + self.identity_bytes + signature
            mac = AesCmac(keys.mac_key).mac(content)
        with self.recorder.phase("msg1", protocol.MEMORY):
            message = protocol.encode_msg1(session.g_v, self.identity_bytes,
                                           signature, mac)
        return session, message

    # -- msg2 -> msg3 --------------------------------------------------------------

    def handle_msg2(self, session: VerifierSession, data: bytes,
                    secret_blob: bytes) -> bytes:
        """Appraise the evidence; on success, seal the secret blob (msg3).

        Accepts both the clear-evidence msg2 of Table II and the
        encrypted-evidence variant (§IV extension).
        """
        from repro.appraisal.codecs.trustzone import (
            appraise_post_signature,
            appraise_pre_signature,
            reason_of,
        )

        if data and data[0] == protocol.MSG2_ENC:
            with self.recorder.phase("msg2", protocol.MEMORY):
                sealed_message = protocol.decode_msg2_encrypted(data)
            with self.recorder.phase("msg2", protocol.SYMMETRIC):
                AesCmac(session.keys.mac_key).verify(
                    sealed_message.content, sealed_message.mac)
                body = AesGcm(session.keys.enc_key).open(
                    sealed_message.iv, sealed_message.sealed_evidence)
            from repro.core.evidence import SignedEvidence

            message = protocol.Msg2(
                sealed_message.g_a, SignedEvidence.decode(body), b"")
        else:
            with self.recorder.phase("msg2", protocol.MEMORY):
                message = protocol.decode_msg2(data)
            with self.recorder.phase("msg2", protocol.SYMMETRIC):
                AesCmac(session.keys.mac_key).verify(message.content,
                                                     message.mac)

        # G_a must match msg0's: otherwise someone spliced sessions.
        if not constant_time_equal(message.g_a, session.g_a):
            raise ProtocolError("msg2 session key differs from msg0")

        evidence = message.signed_evidence.evidence
        expected_anchor = protocol.compute_anchor(session.g_a, session.g_v)
        if not constant_time_equal(evidence.anchor, expected_anchor):
            raise ProtocolError(
                "evidence anchor is not bound to this session "
                "(masquerading or replay)"
            )

        try:
            # Revocation killswitch (engine-armed deployments only): kill
            # rules outrank every accept rule, including the cache.
            if self.engine is not None:
                self._check_revocations(evidence)

            # Version + endorsement — the checks the seed ran inline here,
            # now shared with the TrustZone codec (same exceptions, same
            # messages, same order).
            appraise_pre_signature(self.policy, evidence)

            # Hardware genuineness: the kernel-held key signed the
            # evidence. The appraisal cache may stand in for the
            # asymmetric verify, but only against proof of continuity:
            # the msg2 ticket must be a valid CMAC over this evidence
            # body under the resumption key a prior *fully verified*
            # handshake sealed into its msg3. Evidence fields, MAC and
            # anchor are all computable by an attacker from their own key
            # exchange, so a bare msg2 — however well-formed — never
            # skips the signature check. Every session-specific check
            # (MAC, anchor, endorsement, reference values) above and
            # below still runs unconditionally.
            cache = self.appraisal_cache
            resumption_key = None
            if cache is not None:
                with self.recorder.phase("msg2", protocol.SYMMETRIC):
                    resumption_key = cache.redeem(self._policy_scope(),
                                                  evidence, message.ticket)
            cache_hit = resumption_key is not None
            if not cache_hit:
                with self.recorder.phase("msg2", protocol.ASYMMETRIC):
                    message.signed_evidence.verify_signature()

            # Software trustworthiness (claim) and measured boot (§VII
            # extension) — also shared with the codec now.
            appraise_post_signature(self.policy, evidence)
        except Exception as exc:
            if self.engine is not None:
                self.engine.record(TEE_TYPE_TRUSTZONE, False,
                                   reason_of(exc), str(exc))
            raise
        if self.engine is not None:
            self.engine.record(TEE_TYPE_TRUSTZONE, True, Reason.OK)

        # All checks passed: only now is the appraisal memoised, so a
        # failed appraisal (unknown measurement, bad boot claim) is never
        # cached. The freshly drawn resumption key travels to the
        # attester inside msg3's AES-GCM envelope — only the session peer
        # whose signature just verified can read it.
        if cache is not None and not cache_hit:
            resumption_key = self._random(protocol.RESUMPTION_KEY_SIZE)
            cache.store(self._policy_scope(), evidence, resumption_key)

        # All checks passed: provision the secret blob (paper §IV(d)).
        return self._seal_msg3(session, secret_blob, resumption_key)

    def _check_revocations(self, view) -> None:
        """The killswitch half of the declarative policy, on either path."""
        policy = self.engine.policy
        claim = bytes(view.claim)
        if claim in policy.revoked_measurements:
            raise PolicyDenied(
                f"measurement {claim.hex()[:16]}... is revoked",
                reason=Reason.MEASUREMENT_REVOKED)
        if bytes(view.identity) in policy.revoked_identities:
            raise PolicyDenied("attestation identity is revoked",
                               reason=Reason.IDENTITY_REVOKED)

    def _seal_msg3(self, session: VerifierSession, secret_blob: bytes,
                   resumption_key: Optional[bytes]) -> bytes:
        with self.recorder.phase("msg3", protocol.MEMORY):
            iv = self._random(12)
        with self.recorder.phase("msg3", protocol.SYMMETRIC):
            chunks = (secret_blob,) if resumption_key is None \
                else (resumption_key, secret_blob)
            message = protocol.seal_msg3(AesGcm(session.keys.enc_key), iv,
                                         chunks,
                                         resume=resumption_key is not None)
        return message

    # -- multi-TEE envelope handshake (repro.appraisal) ----------------------------

    def handle_msg0_multi(self, data: bytes) -> Tuple[VerifierSession, bytes]:
        """Process a multi-TEE msg0: negotiate the evidence backend.

        The attester declares its ``tee_type``; the verifier accepts it
        iff a codec is registered, and echoes the tag inside msg1's MAC'd
        content so the negotiation cannot be tampered with downstream.
        """
        engine = self._require_engine()
        with self.recorder.phase("msg0", protocol.MEMORY):
            tee_type, g_a = protocol.decode_msg0_multi(data)
        if tee_type not in engine.registry:
            engine.record(tee_type, False, Reason.TEE_NOT_ACCEPTED,
                          f"no codec registered for tee_type {tee_type:#04x}")
            raise EnvelopeError(
                f"no codec registered for tee_type {tee_type:#04x}")
        with self.recorder.phase("msg0", protocol.KEYGEN):
            keypair = ecdh.generate(self._random)
            shared = ecdh.shared_secret(keypair.private, ec.decode_point(g_a))
            keys = derive_session_keys(shared)
        session = VerifierSession(keypair, g_a, keys, tee_type=tee_type)

        with self.recorder.phase("msg1", protocol.ASYMMETRIC):
            signature = ecdsa.sign(self.identity.private,
                                   session.g_v + g_a)
        with self.recorder.phase("msg1", protocol.SYMMETRIC):
            content = (bytes([tee_type]) + session.g_v + self.identity_bytes
                       + signature)
            mac = AesCmac(keys.mac_key).mac(content)
        with self.recorder.phase("msg1", protocol.MEMORY):
            message = protocol.encode_msg1_multi(
                tee_type, session.g_v, self.identity_bytes, signature, mac)
        return session, message

    def handle_msg2_multi(self, session: VerifierSession, data: bytes,
                          secret_blob: bytes) -> bytes:
        """Appraise an enveloped evidence body through the policy engine.

        Session checks (MAC, key consistency, anchor binding) mirror the
        legacy path; decoding goes through the codec registry and the
        accept/deny decision through the compiled declarative policy. On
        deny, a :class:`~repro.errors.PolicyDenied` carries the stable
        reason code and the decision is already in the audit log.
        """
        engine = self._require_engine()
        with self.recorder.phase("msg2", protocol.MEMORY):
            message = protocol.decode_msg2_multi(data)
        with self.recorder.phase("msg2", protocol.SYMMETRIC):
            AesCmac(session.keys.mac_key).verify(message.content, message.mac)

        if not constant_time_equal(message.g_a, session.g_a):
            raise ProtocolError("msg2 session key differs from msg0")
        if session.tee_type is None:
            raise ProtocolError(
                "multi-TEE msg2 on a handshake that did not negotiate "
                "an evidence backend")

        view = engine.decode(message.envelope)
        if view.tee_type != session.tee_type:
            engine.record(view.tee_type, False, Reason.TEE_NOT_ACCEPTED,
                          "evidence backend differs from the negotiated one")
            raise ProtocolError(
                "msg2 evidence backend differs from the negotiated one")

        expected_anchor = protocol.compute_anchor(session.g_a, session.g_v)
        if not constant_time_equal(view.anchor, expected_anchor):
            raise ProtocolError(
                "evidence anchor is not bound to this session "
                "(masquerading or replay)"
            )

        scope = self._policy_scope()
        cache = self.appraisal_cache
        resumption_key = None
        if cache is not None:
            with self.recorder.phase("msg2", protocol.SYMMETRIC):
                resumption_key = cache.redeem(scope, view, message.ticket)
        cache_hit = resumption_key is not None
        if not cache_hit:
            with self.recorder.phase("msg2", protocol.ASYMMETRIC):
                try:
                    view.verify_signature()
                except Exception as exc:
                    engine.record(view.tee_type, False,
                                  Reason.SIGNATURE_INVALID, str(exc))
                    raise

        # The declarative policy runs even on a cache hit: the cache only
        # stands in for the asymmetric verify, never for appraisal.
        engine.appraise(view).raise_if_denied()

        if cache is not None and not cache_hit:
            resumption_key = self._random(protocol.RESUMPTION_KEY_SIZE)
            cache.store(scope, view, resumption_key)

        return self._seal_msg3(session, secret_blob, resumption_key)

    def _require_engine(self):
        if self.engine is None:
            raise ProtocolError(
                "multi-TEE handshake needs an appraisal engine")
        return self.engine
