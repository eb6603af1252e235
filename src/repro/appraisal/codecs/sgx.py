"""An SGX-style evidence codec: MRENCLAVE/MRSIGNER pair, SVN, debug flag.

Models the quote shape a Twine-style SGX Wasm runtime would present
(PAPERS.md, "Twine"): the enclave's code measurement (MRENCLAVE), the
signer-key measurement (MRSIGNER), the ISV security-version number the
policy's minimum-SVN rule appraises, and the debug-launch flag a
production policy must reject. The body is a fixed-layout little-endian
struct signed with the repo's P-256 ECDSA (:mod:`repro.crypto`) under an
attestation key carried in the body — the same endorsement discipline as
the native TrustZone format.

::

    body := magic "SGXQ" || u8 version || u8 debug || u16 isv_svn
            || u16 reserved(0) || anchor[32] || mrenclave[32]
            || mrsigner[32] || attestation_public_key[65]
            || signature[64 over everything before it]

Decoding is strict: exact size, magic, supported version, canonical
``debug`` (0/1) and zero reserved bits — anything else is a typed
:class:`~repro.errors.EnvelopeError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.appraisal.envelope import TEE_SGX, encode_envelope
from repro.crypto import ec, ecdsa
from repro.crypto.hashing import SHA256_SIZE
from repro.errors import CryptoError, EnvelopeError, EvidenceError

SGX_QUOTE_VERSION = 1

ANCHOR_SIZE = SHA256_SIZE
MEASUREMENT_SIZE = SHA256_SIZE
PUBKEY_SIZE = 65

_MAGIC = b"SGXQ"
_HEADER = struct.Struct("<4sBBHH")

SGX_SIGNED_SIZE = (_HEADER.size + ANCHOR_SIZE + 2 * MEASUREMENT_SIZE
                   + PUBKEY_SIZE)
SGX_BODY_SIZE = SGX_SIGNED_SIZE + ecdsa.SIGNATURE_SIZE


@dataclass(frozen=True)
class SgxEvidence:
    """Decoded SGX-style quote, already carrying its signature."""

    anchor: bytes
    mrenclave: bytes
    mrsigner: bytes
    isv_svn: int
    debug: bool
    attestation_public_key: bytes
    signature: bytes
    version: Tuple[int, int] = (SGX_QUOTE_VERSION, 0)

    tee_type = TEE_SGX

    def __post_init__(self) -> None:
        if len(self.anchor) != ANCHOR_SIZE:
            raise EvidenceError("sgx anchor must be a SHA-256 digest")
        if len(self.mrenclave) != MEASUREMENT_SIZE:
            raise EvidenceError("mrenclave must be a SHA-256 digest")
        if len(self.mrsigner) != MEASUREMENT_SIZE:
            raise EvidenceError("mrsigner must be a SHA-256 digest")
        if not 0 <= self.isv_svn <= 0xFFFF:
            raise EvidenceError("isv_svn must fit in 16 bits")
        if len(self.attestation_public_key) != PUBKEY_SIZE:
            raise EvidenceError(
                "sgx attestation key must be an uncompressed point")
        if len(self.signature) != ecdsa.SIGNATURE_SIZE:
            raise EvidenceError("sgx quote signature has the wrong size")

    # -- uniform appraisal view -------------------------------------------------

    @property
    def claim(self) -> bytes:
        """The primary code measurement the policy appraises."""
        return self.mrenclave

    @property
    def identity(self) -> bytes:
        return self.attestation_public_key

    @property
    def signer(self) -> bytes:
        return self.mrsigner

    @property
    def svn(self) -> int:
        return self.isv_svn

    @property
    def cache_extra(self) -> bytes:
        return (self.mrsigner + struct.pack("<H", self.isv_svn)
                + bytes([1 if self.debug else 0]))

    def signed_body(self) -> bytes:
        return (
            _HEADER.pack(_MAGIC, SGX_QUOTE_VERSION,
                         1 if self.debug else 0, self.isv_svn, 0)
            + self.anchor + self.mrenclave + self.mrsigner
            + self.attestation_public_key
        )

    def encode(self) -> bytes:
        return self.signed_body() + self.signature

    def envelope(self) -> bytes:
        return encode_envelope(TEE_SGX, self.encode())

    def verify_signature(self) -> None:
        try:
            public = ec.decode_point(self.attestation_public_key)
        except CryptoError as exc:
            raise EvidenceError(f"malformed sgx quote key: {exc}") from exc
        ecdsa.verify(public, self.signed_body(), self.signature)


def build(anchor: bytes, mrenclave: bytes, mrsigner: bytes, isv_svn: int,
          debug: bool, attestation_public_key: bytes,
          sign: Callable[[bytes], bytes]) -> SgxEvidence:
    """Assemble and sign a quote (``sign`` holds the private key)."""
    unsigned = SgxEvidence(anchor=anchor, mrenclave=mrenclave,
                           mrsigner=mrsigner, isv_svn=isv_svn, debug=debug,
                           attestation_public_key=attestation_public_key,
                           signature=b"\x00" * ecdsa.SIGNATURE_SIZE)
    return SgxEvidence(anchor=anchor, mrenclave=mrenclave,
                       mrsigner=mrsigner, isv_svn=isv_svn, debug=debug,
                       attestation_public_key=attestation_public_key,
                       signature=sign(unsigned.signed_body()))


class SgxCodec:
    """Envelope codec for the SGX-style quote body."""

    tee_type = TEE_SGX
    name = "sgx"
    body_size = SGX_BODY_SIZE

    def decode(self, body: bytes) -> SgxEvidence:
        if len(body) != SGX_BODY_SIZE:
            raise EnvelopeError(
                f"sgx quote body must be {SGX_BODY_SIZE} bytes, "
                f"got {len(body)}")
        magic, version, debug, isv_svn, reserved = _HEADER.unpack_from(body)
        if magic != _MAGIC:
            raise EnvelopeError("bad sgx quote magic")
        if version != SGX_QUOTE_VERSION:
            raise EnvelopeError(f"unsupported sgx quote version {version}")
        if debug not in (0, 1):
            raise EnvelopeError(
                f"non-canonical sgx debug flag {debug:#04x}")
        if reserved != 0:
            raise EnvelopeError("non-canonical sgx quote: reserved bits set")
        offset = _HEADER.size
        anchor = body[offset:offset + ANCHOR_SIZE]
        offset += ANCHOR_SIZE
        mrenclave = body[offset:offset + MEASUREMENT_SIZE]
        offset += MEASUREMENT_SIZE
        mrsigner = body[offset:offset + MEASUREMENT_SIZE]
        offset += MEASUREMENT_SIZE
        public_key = body[offset:offset + PUBKEY_SIZE]
        offset += PUBKEY_SIZE
        return SgxEvidence(anchor=bytes(anchor), mrenclave=bytes(mrenclave),
                           mrsigner=bytes(mrsigner), isv_svn=isv_svn,
                           debug=bool(debug),
                           attestation_public_key=bytes(public_key),
                           signature=bytes(body[offset:]))

    def encode(self, view: SgxEvidence) -> bytes:
        return view.encode()
