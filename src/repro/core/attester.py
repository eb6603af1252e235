"""The attester side of the WaTZ remote-attestation protocol.

Runs inside the WaTZ runtime TA on behalf of a hosted Wasm application
(reached through WASI-RA). Implements the client half of Table II,
including every check the paper specifies in §IV:

* the verifier's identity key ``V`` must equal the key hard-coded in the
  (measured) Wasm application;
* the signature over both public session keys must verify — mismatched
  session keys reveal masquerading or replay;
* the MAC of msg1 must verify under the freshly derived ``K_m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto import ec, ecdh, ecdsa
from repro.crypto.cmac import AesCmac
from repro.crypto.gcm import AesGcm
from repro.crypto.kdf import SessionKeys, derive_session_keys
from repro.core import protocol
from repro.core.evidence import Evidence, SignedEvidence
from repro.errors import AuthenticationError, ProtocolError

EvidenceSigner = Callable[[bytes], bytes]


@dataclass
class AttesterSession:
    """Mutable state of one attestation attempt."""

    session_keypair: ecdh.SessionKeyPair
    expected_verifier_key: bytes
    g_v: Optional[bytes] = None
    keys: Optional[SessionKeys] = None
    anchor: Optional[bytes] = None
    #: Evidence backend declared in a multi-TEE msg0 (``None`` for the
    #: legacy single-TEE handshake).
    tee_type: Optional[int] = None

    @property
    def g_a(self) -> bytes:
        return self.session_keypair.public_bytes()


class Attester:
    """Protocol engine; stateless apart from per-session objects.

    The one piece of cross-session state is ``resumption_key``: the
    secret a fully verified appraisal hands back inside msg3 (fleet
    extension, :mod:`repro.fleet.cache`). Subsequent msg2s carry a CMAC
    ticket under it so the verifier can skip the ECDSA re-verify. An
    attester only ever talks to the verifier whose identity key is
    hard-coded in its measured application, so one key suffices.
    """

    def __init__(self, random_source: Callable[[int], bytes]) -> None:
        self._random = random_source
        self.resumption_key: Optional[bytes] = None

    # -- msg0 ------------------------------------------------------------------

    def start_session(self, expected_verifier_key: bytes) -> AttesterSession:
        """Generate the ephemeral session key pair (freshness, §IV)."""
        return AttesterSession(ecdh.generate(self._random),
                               expected_verifier_key)

    def make_msg0(self, session: AttesterSession) -> bytes:
        return protocol.encode_msg0(session.g_a)

    def make_msg0_multi(self, session: AttesterSession,
                        tee_type: int) -> bytes:
        """Open a multi-TEE handshake, declaring the evidence backend."""
        session.tee_type = tee_type
        return protocol.encode_msg0_multi(tee_type, session.g_a)

    # -- msg1 ------------------------------------------------------------------

    def handle_msg1(self, session: AttesterSession, data: bytes) -> None:
        """All attester-side checks of paper §IV(c).

        Accepts both the legacy msg1 and the multi-TEE variant; the
        latter must echo the ``tee_type`` this session declared in its
        msg0 (the echo sits inside the MAC'd content, so once the MAC is
        checked the negotiation is tamper-proof).
        """
        if data and data[0] == protocol.MSG1_MULTI:
            message = protocol.decode_msg1_multi(data)
            if message.tee_type != session.tee_type:
                raise ProtocolError(
                    "msg1 echoes a tee_type this session did not declare")
        else:
            message = protocol.decode_msg1(data)

        # The verifier identity must match the key hard-coded in the Wasm
        # application; because that key is part of the code measurement, an
        # attacker cannot redirect the application to a rogue service.
        if message.verifier_key != session.expected_verifier_key:
            raise AuthenticationError(
                "verifier identity does not match the hard-coded key"
            )

        shared = ecdh.shared_secret(session.session_keypair.private,
                                    ec.decode_point(message.g_v))
        session.keys = derive_session_keys(shared)
        AesCmac(session.keys.mac_key).verify(message.content, message.mac)
        # Different session keys in the signature reveal masquerading or
        # replay.
        ecdsa.verify(ec.decode_point(message.verifier_key),
                     message.g_v + session.g_a, message.signature)

        session.g_v = message.g_v
        session.anchor = protocol.compute_anchor(session.g_a, message.g_v)

    # -- msg2 ------------------------------------------------------------------

    def collect_evidence(self, anchor: bytes, claim: bytes,
                         attestation_public_key: bytes,
                         sign_evidence: EvidenceSigner,
                         version: tuple = None,
                         boot_claim: bytes = None) -> SignedEvidence:
        """Issue signed evidence for an anchor (WASI-RA ``collect_quote``).

        Deliberately decoupled from the network protocol so applications
        can carry the evidence over other transports (paper §V).
        ``sign_evidence`` is the kernel attestation service entry point;
        the private key never appears here.
        """
        kwargs = {}
        if version:
            kwargs["version"] = version
        if boot_claim is not None:
            kwargs["boot_claim"] = boot_claim
        evidence = Evidence(
            anchor=anchor,
            claim=claim,
            attestation_public_key=attestation_public_key,
            **kwargs,
        )
        return SignedEvidence(evidence, sign_evidence(evidence.encode()))

    def make_msg2(self, session: AttesterSession,
                  signed_evidence: SignedEvidence,
                  encrypt_evidence: bool = False) -> bytes:
        """Wrap evidence into msg2, MACed under the session key.

        ``encrypt_evidence`` enables the §IV extension: the evidence is
        sealed under K_e so a passive observer learns neither the code
        measurement nor the device identity.
        """
        if session.anchor is None or session.keys is None:
            raise ProtocolError("msg1 has not been processed yet")
        if signed_evidence.evidence.anchor != session.anchor:
            raise ProtocolError("evidence anchor does not match this session")
        if encrypt_evidence:
            iv = self._random(12)
            sealed = AesGcm(session.keys.enc_key).seal(
                iv, signed_evidence.encode())
            mac = AesCmac(session.keys.mac_key).mac(session.g_a + iv + sealed)
            return protocol.encode_msg2_encrypted(session.g_a, iv, sealed,
                                                  mac)
        ticket = b""
        if self.resumption_key is not None:
            # Prove continuity with the prior fully verified handshake:
            # CMAC the *fresh* evidence body (which contains this
            # session's anchor) under the resumption key, so a captured
            # ticket cannot be transplanted into another session.
            ticket = AesCmac(self.resumption_key).mac(
                signed_evidence.evidence.encode())
        content = session.g_a + signed_evidence.encode() + ticket
        mac = AesCmac(session.keys.mac_key).mac(content)
        return protocol.encode_msg2(session.g_a, signed_evidence, mac,
                                    ticket)

    def make_msg2_multi(self, session: AttesterSession, view) -> bytes:
        """Wrap an evidence *view* (any codec) into a multi-TEE msg2.

        ``view`` is a decoded-evidence object from
        :mod:`repro.appraisal.codecs` — native TrustZone evidence wrapped
        in a ``TrustZoneView``, or a synthetic SGX/TDX quote. The
        resumption ticket MACs the full envelope bytes, tag header
        included, so a ticket earned under one backend can never be
        redeemed under another.
        """
        if session.anchor is None or session.keys is None:
            raise ProtocolError("msg1 has not been processed yet")
        if view.anchor != session.anchor:
            raise ProtocolError("evidence anchor does not match this session")
        if session.tee_type is not None and view.tee_type != session.tee_type:
            raise ProtocolError(
                "evidence backend differs from the negotiated one")
        envelope = view.envelope()
        ticket = b""
        if self.resumption_key is not None:
            ticket = AesCmac(self.resumption_key).mac(envelope)
        content = (session.g_a + len(envelope).to_bytes(4, "little")
                   + envelope + ticket)
        mac = AesCmac(session.keys.mac_key).mac(content)
        return protocol.encode_msg2_multi(session.g_a, envelope, mac, ticket)

    def attest(self, session: AttesterSession, claim: bytes,
               attestation_public_key: bytes,
               sign_evidence: EvidenceSigner) -> bytes:
        """Convenience: collect evidence for the session and build msg2."""
        if session.anchor is None:
            raise ProtocolError("msg1 has not been processed yet")
        signed = self.collect_evidence(
            session.anchor, claim, attestation_public_key, sign_evidence
        )
        return self.make_msg2(session, signed)

    # -- msg3 ------------------------------------------------------------------

    def handle_msg3(self, session: AttesterSession, data: bytes) -> bytes:
        """Decrypt the secret blob with the session encryption key.

        The resume variant (fleet extension) prefixes the sealed payload
        with a resumption key; it is retained for future msg2 tickets
        and only the remaining bytes are the application secret.
        """
        if session.keys is None:
            raise ProtocolError("session keys are not established")
        plaintext = protocol.open_msg3(AesGcm(session.keys.enc_key), data)
        if data[0] == protocol.MSG3_RESUME:
            if len(plaintext) < protocol.RESUMPTION_KEY_SIZE:
                raise ProtocolError("resume msg3 too short for a key")
            self.resumption_key = plaintext[:protocol.RESUMPTION_KEY_SIZE]
            plaintext = plaintext[protocol.RESUMPTION_KEY_SIZE:]
        return plaintext
