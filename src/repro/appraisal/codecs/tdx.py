"""A TDX-style evidence codec: MRTD plus four runtime measurement registers.

Models the quote shape of an Intel TDX trust domain: the build-time
measurement of the domain (MRTD) and four RTMRs — runtime-extendable
registers the guest folds boot-stage and application measurements into,
the TDX analogue of the measured-boot accumulation WaTZ's §VII extension
adds to TrustZone evidence. Register fields are 48 bytes wide, matching
TDX's SHA-384 register size; the simulation treats them as opaque
digests. The body is signed with the repo's P-256 ECDSA under an
attestation key carried in the body.

::

    body := magic "TDXQ" || u8 version || u8 reserved(0) || u16 reserved(0)
            || anchor[32] || mrtd[48] || rtmr0..rtmr3[48 each]
            || attestation_public_key[65] || signature[64]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.appraisal.envelope import TEE_TDX, encode_envelope
from repro.crypto import ec, ecdsa
from repro.crypto.hashing import SHA256_SIZE
from repro.errors import CryptoError, EnvelopeError, EvidenceError

TDX_QUOTE_VERSION = 1

ANCHOR_SIZE = SHA256_SIZE
#: TDX measurement registers are SHA-384 wide.
REGISTER_SIZE = 48
RTMR_COUNT = 4
PUBKEY_SIZE = 65

_MAGIC = b"TDXQ"
_HEADER = struct.Struct("<4sBBH")

TDX_SIGNED_SIZE = (_HEADER.size + ANCHOR_SIZE
                   + (1 + RTMR_COUNT) * REGISTER_SIZE + PUBKEY_SIZE)
TDX_BODY_SIZE = TDX_SIGNED_SIZE + ecdsa.SIGNATURE_SIZE


@dataclass(frozen=True)
class TdxEvidence:
    """Decoded TDX-style quote, already carrying its signature."""

    anchor: bytes
    mrtd: bytes
    rtmrs: Tuple[bytes, ...]
    attestation_public_key: bytes
    signature: bytes
    version: Tuple[int, int] = (TDX_QUOTE_VERSION, 0)

    tee_type = TEE_TDX

    def __post_init__(self) -> None:
        if len(self.anchor) != ANCHOR_SIZE:
            raise EvidenceError("tdx anchor must be a SHA-256 digest")
        if len(self.mrtd) != REGISTER_SIZE:
            raise EvidenceError("mrtd must be a 48-byte register value")
        if len(self.rtmrs) != RTMR_COUNT or \
                any(len(r) != REGISTER_SIZE for r in self.rtmrs):
            raise EvidenceError(
                f"tdx evidence needs {RTMR_COUNT} 48-byte RTMRs")
        if len(self.attestation_public_key) != PUBKEY_SIZE:
            raise EvidenceError(
                "tdx attestation key must be an uncompressed point")
        if len(self.signature) != ecdsa.SIGNATURE_SIZE:
            raise EvidenceError("tdx quote signature has the wrong size")

    # -- uniform appraisal view -------------------------------------------------

    @property
    def claim(self) -> bytes:
        """The primary code measurement the policy appraises."""
        return self.mrtd

    @property
    def identity(self) -> bytes:
        return self.attestation_public_key

    @property
    def cache_extra(self) -> bytes:
        return b"".join(self.rtmrs)

    # No SVN ladder / debug flag / signer measurement in this shape.
    svn = None
    debug = False
    signer = None

    def signed_body(self) -> bytes:
        return (
            _HEADER.pack(_MAGIC, TDX_QUOTE_VERSION, 0, 0)
            + self.anchor + self.mrtd + b"".join(self.rtmrs)
            + self.attestation_public_key
        )

    def encode(self) -> bytes:
        return self.signed_body() + self.signature

    def envelope(self) -> bytes:
        return encode_envelope(TEE_TDX, self.encode())

    def verify_signature(self) -> None:
        try:
            public = ec.decode_point(self.attestation_public_key)
        except CryptoError as exc:
            raise EvidenceError(f"malformed tdx quote key: {exc}") from exc
        ecdsa.verify(public, self.signed_body(), self.signature)


def build(anchor: bytes, mrtd: bytes, rtmrs, attestation_public_key: bytes,
          sign: Callable[[bytes], bytes]) -> TdxEvidence:
    """Assemble and sign a quote (``sign`` holds the private key)."""
    unsigned = TdxEvidence(anchor=anchor, mrtd=mrtd, rtmrs=tuple(rtmrs),
                           attestation_public_key=attestation_public_key,
                           signature=b"\x00" * ecdsa.SIGNATURE_SIZE)
    return TdxEvidence(anchor=anchor, mrtd=mrtd, rtmrs=tuple(rtmrs),
                       attestation_public_key=attestation_public_key,
                       signature=sign(unsigned.signed_body()))


class TdxCodec:
    """Envelope codec for the TDX-style quote body."""

    tee_type = TEE_TDX
    name = "tdx"
    body_size = TDX_BODY_SIZE

    def decode(self, body: bytes) -> TdxEvidence:
        if len(body) != TDX_BODY_SIZE:
            raise EnvelopeError(
                f"tdx quote body must be {TDX_BODY_SIZE} bytes, "
                f"got {len(body)}")
        magic, version, reserved8, reserved16 = _HEADER.unpack_from(body)
        if magic != _MAGIC:
            raise EnvelopeError("bad tdx quote magic")
        if version != TDX_QUOTE_VERSION:
            raise EnvelopeError(f"unsupported tdx quote version {version}")
        if reserved8 != 0 or reserved16 != 0:
            raise EnvelopeError("non-canonical tdx quote: reserved bits set")
        offset = _HEADER.size
        anchor = body[offset:offset + ANCHOR_SIZE]
        offset += ANCHOR_SIZE
        mrtd = body[offset:offset + REGISTER_SIZE]
        offset += REGISTER_SIZE
        rtmrs = []
        for _ in range(RTMR_COUNT):
            rtmrs.append(bytes(body[offset:offset + REGISTER_SIZE]))
            offset += REGISTER_SIZE
        public_key = body[offset:offset + PUBKEY_SIZE]
        offset += PUBKEY_SIZE
        return TdxEvidence(anchor=bytes(anchor), mrtd=bytes(mrtd),
                           rtmrs=tuple(rtmrs),
                           attestation_public_key=bytes(public_key),
                           signature=bytes(body[offset:]))

    def encode(self, view: TdxEvidence) -> bytes:
        return view.encode()
