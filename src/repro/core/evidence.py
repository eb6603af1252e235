"""Attestation evidence: structure, serialisation, verification.

Paper §IV, "Proof of trust": evidence contains (i) an *anchor* binding it
to the transport session, (ii) the WaTZ *version* so relying parties can
exclude outdated runtimes, (iii) the *claim* — the Wasm bytecode hash,
(iv) the device's public attestation key (the endorsement handle), and
(v) a digital signature over all of the above, produced by the kernel
attestation service.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto import ec, ecdsa
from repro.crypto.hashing import SHA256_SIZE
from repro.errors import CryptoError, EvidenceError

WATZ_VERSION = (1, 0)

ANCHOR_SIZE = SHA256_SIZE
CLAIM_SIZE = SHA256_SIZE
BOOT_CLAIM_SIZE = SHA256_SIZE
PUBKEY_SIZE = 65

#: The boot claim when the platform does not provide measured boot.
NO_BOOT_CLAIM = b"\x00" * BOOT_CLAIM_SIZE

_HEADER = struct.Struct("<4sHH")
_MAGIC = b"WTZE"

#: Serialised size of the unsigned evidence body.
EVIDENCE_BODY_SIZE = (_HEADER.size + ANCHOR_SIZE + CLAIM_SIZE
                      + BOOT_CLAIM_SIZE + PUBKEY_SIZE)
#: Serialised size including the signature.
EVIDENCE_SIZE = EVIDENCE_BODY_SIZE + ecdsa.SIGNATURE_SIZE


@dataclass(frozen=True)
class Evidence:
    """Unsigned evidence content.

    ``boot_claim`` is the measured-boot extension of §VII: the PCR-style
    accumulation of the boot-stage measurements, letting verifiers also
    appraise the startup components. A platform without measured boot
    carries :data:`NO_BOOT_CLAIM`.
    """

    anchor: bytes
    claim: bytes
    attestation_public_key: bytes
    version: tuple = WATZ_VERSION
    boot_claim: bytes = NO_BOOT_CLAIM

    def __post_init__(self) -> None:
        if len(self.anchor) != ANCHOR_SIZE:
            raise EvidenceError("anchor must be a SHA-256 digest")
        if len(self.claim) != CLAIM_SIZE:
            raise EvidenceError("claim must be a SHA-256 digest")
        if len(self.boot_claim) != BOOT_CLAIM_SIZE:
            raise EvidenceError("boot claim must be a SHA-256 digest")
        if len(self.attestation_public_key) != PUBKEY_SIZE:
            raise EvidenceError("attestation key must be an uncompressed point")

    def encode(self) -> bytes:
        """Serialise the evidence body (the signed blob)."""
        return (
            _HEADER.pack(_MAGIC, self.version[0], self.version[1])
            + self.anchor
            + self.claim
            + self.boot_claim
            + self.attestation_public_key
        )

    @classmethod
    def decode(cls, data: bytes) -> "Evidence":
        if len(data) != EVIDENCE_BODY_SIZE:
            raise EvidenceError(
                f"evidence body must be {EVIDENCE_BODY_SIZE} bytes"
            )
        magic, major, minor = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise EvidenceError("bad evidence magic")
        offset = _HEADER.size
        anchor = data[offset : offset + ANCHOR_SIZE]
        offset += ANCHOR_SIZE
        claim = data[offset : offset + CLAIM_SIZE]
        offset += CLAIM_SIZE
        boot_claim = data[offset : offset + BOOT_CLAIM_SIZE]
        offset += BOOT_CLAIM_SIZE
        public_key = data[offset : offset + PUBKEY_SIZE]
        return cls(anchor=anchor, claim=claim,
                   attestation_public_key=public_key,
                   version=(major, minor), boot_claim=boot_claim)


@dataclass(frozen=True)
class SignedEvidence:
    """Evidence plus the attestation-service signature."""

    evidence: Evidence
    signature: bytes

    def encode(self) -> bytes:
        return self.evidence.encode() + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "SignedEvidence":
        if len(data) != EVIDENCE_SIZE:
            raise EvidenceError(f"signed evidence must be {EVIDENCE_SIZE} bytes")
        return cls(
            evidence=Evidence.decode(data[:EVIDENCE_BODY_SIZE]),
            signature=data[EVIDENCE_BODY_SIZE:],
        )

    def verify_signature(self) -> None:
        """Check the self-contained signature (endorsement check is separate).

        The key used is the one *inside* the evidence; a verifier must
        additionally confirm that key is endorsed, otherwise any attacker
        could mint self-consistent evidence with a fresh key.
        """
        try:
            public = ec.decode_point(self.evidence.attestation_public_key)
        except CryptoError as exc:
            raise EvidenceError(f"malformed evidence key: {exc}") from exc
        ecdsa.verify(public, self.evidence.encode(), self.signature)
