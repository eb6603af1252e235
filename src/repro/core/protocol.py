"""Wire formats of the WaTZ remote-attestation protocol (paper Table II).

::

    msg0 := G_a
    msg1 := content1 || MAC_Km(content1)
            content1 := G_v || V || SIGN_V(G_v || G_a)
    msg2 := content2 || MAC_Km(content2)
            content2 := G_a || evidence || SIGN_A(evidence)
            evidence := (anchor || A || ...),  anchor := HASH(G_a || G_v)
    msg3 := iv || AES-GCM_Ke(data)

Each message carries a one-byte type tag so misordered messages are
detected explicitly rather than by parse failure. Nothing here is
instrumented: Table III's per-message cost breakdown is read off spans
that ``repro.obs`` wraps around these codecs and the crypto primitives
from outside (``TraceAnalyzer.protocol_costs``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto import ecdsa
from repro.crypto.cmac import MAC_SIZE
from repro.crypto.gcm import IV_SIZE, TAG_SIZE, AesGcm
from repro.crypto.hashing import sha256
from repro.core.evidence import EVIDENCE_SIZE, SignedEvidence
from repro.errors import ProtocolError

POINT_SIZE = 65

MSG0 = 0x00
MSG1 = 0x01
MSG2 = 0x02
MSG3 = 0x03
#: §IV extension: msg2 with the evidence protected by AES-GCM under K_e
#: ("if the secrecy of this structure is a concern").
MSG2_ENC = 0x12
#: Fleet extension: msg3 whose sealed payload is prefixed with a
#: resumption key (see :mod:`repro.fleet.cache`). The key rides inside
#: the AES-GCM envelope, so only the attester that completed this
#: session's key exchange — and whose evidence signature was fully
#: verified — ever learns it.
MSG3_RESUME = 0x13
#: Multi-TEE extension (:mod:`repro.appraisal`): the attester opens by
#: declaring its evidence shape (``tee_type`` tag); the verifier echoes
#: the accepted tag inside msg1's MAC'd content, and msg2 carries a
#: self-describing evidence *envelope* instead of the bare TrustZone
#: structure. Distinct tags keep the legacy transcript byte-identical:
#: a legacy attester never sees — and never emits — these.
MSG0_MULTI = 0x20
MSG1_MULTI = 0x21
MSG2_MULTI = 0x22

#: Secret handed out after a fully verified appraisal; presenting a CMAC
#: under it (the msg2 *ticket*) is what authorises the verifier to skip
#: the ECDSA re-verify on re-attestation.
RESUMPTION_KEY_SIZE = 16
#: The msg2 resumption ticket is one AES-CMAC tag.
TICKET_SIZE = MAC_SIZE

_MSG0_SIZE = 1 + POINT_SIZE
_CONTENT1_SIZE = POINT_SIZE + POINT_SIZE + ecdsa.SIGNATURE_SIZE
_MSG1_SIZE = 1 + _CONTENT1_SIZE + MAC_SIZE
# EVIDENCE_SIZE already includes SIGN_A(evidence).
_CONTENT2_SIZE = POINT_SIZE + EVIDENCE_SIZE
_MSG2_SIZE = 1 + _CONTENT2_SIZE + MAC_SIZE
_MSG2_TICKET_SIZE = _MSG2_SIZE + TICKET_SIZE


def compute_anchor(g_a: bytes, g_v: bytes) -> bytes:
    """The session anchor: HASH(G_a || G_v) (paper §IV, msg2)."""
    return sha256(g_a + g_v)


# --- encodings ---------------------------------------------------------------


def encode_msg0(g_a: bytes) -> bytes:
    return bytes([MSG0]) + g_a


def decode_msg0(data: bytes) -> bytes:
    if len(data) != _MSG0_SIZE or data[0] != MSG0:
        raise ProtocolError("malformed msg0")
    return data[1:]


def encode_msg1(g_v: bytes, verifier_key: bytes, signature: bytes,
                mac: bytes) -> bytes:
    return bytes([MSG1]) + g_v + verifier_key + signature + mac


@dataclass(frozen=True)
class Msg1:
    g_v: bytes
    verifier_key: bytes
    signature: bytes
    mac: bytes

    @property
    def content(self) -> bytes:
        return self.g_v + self.verifier_key + self.signature


def decode_msg1(data: bytes) -> Msg1:
    if len(data) != _MSG1_SIZE or data[0] != MSG1:
        raise ProtocolError("malformed msg1")
    offset = 1
    g_v = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    verifier_key = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    signature = data[offset : offset + ecdsa.SIGNATURE_SIZE]
    offset += ecdsa.SIGNATURE_SIZE
    return Msg1(g_v, verifier_key, signature, data[offset:])


def encode_msg2(g_a: bytes, signed_evidence: SignedEvidence,
                mac: bytes, ticket: bytes = b"") -> bytes:
    """``ticket`` (optional) is the resumption CMAC; it sits inside the
    session-MAC'd content, so it cannot be stripped or spliced."""
    return bytes([MSG2]) + g_a + signed_evidence.encode() + ticket + mac


_SEALED_EVIDENCE_SIZE = EVIDENCE_SIZE + 16  # GCM tag
_MSG2_ENC_SIZE = 1 + POINT_SIZE + IV_SIZE + _SEALED_EVIDENCE_SIZE + MAC_SIZE


def encode_msg2_encrypted(g_a: bytes, iv: bytes, sealed_evidence: bytes,
                          mac: bytes) -> bytes:
    return bytes([MSG2_ENC]) + g_a + iv + sealed_evidence + mac


@dataclass(frozen=True)
class Msg2Encrypted:
    g_a: bytes
    iv: bytes
    sealed_evidence: bytes
    mac: bytes

    @property
    def content(self) -> bytes:
        return self.g_a + self.iv + self.sealed_evidence


def decode_msg2_encrypted(data: bytes) -> "Msg2Encrypted":
    if len(data) != _MSG2_ENC_SIZE or data[0] != MSG2_ENC:
        raise ProtocolError("malformed encrypted msg2")
    offset = 1
    g_a = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    iv = data[offset : offset + IV_SIZE]
    offset += IV_SIZE
    sealed = data[offset : offset + _SEALED_EVIDENCE_SIZE]
    offset += _SEALED_EVIDENCE_SIZE
    return Msg2Encrypted(g_a, iv, sealed, data[offset:])


@dataclass(frozen=True)
class Msg2:
    g_a: bytes
    signed_evidence: SignedEvidence
    mac: bytes
    #: Resumption ticket: CMAC over the evidence body under the key a
    #: prior *fully verified* appraisal handed out (empty when absent).
    ticket: bytes = b""

    @property
    def content(self) -> bytes:
        return self.g_a + self.signed_evidence.encode() + self.ticket


def decode_msg2(data: bytes) -> Msg2:
    if len(data) not in (_MSG2_SIZE, _MSG2_TICKET_SIZE) or data[0] != MSG2:
        raise ProtocolError("malformed msg2")
    offset = 1
    g_a = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    evidence = SignedEvidence.decode(data[offset : offset + EVIDENCE_SIZE])
    offset += EVIDENCE_SIZE
    ticket = b""
    if len(data) == _MSG2_TICKET_SIZE:
        ticket = data[offset : offset + TICKET_SIZE]
        offset += TICKET_SIZE
    mac = data[offset:]
    return Msg2(g_a, evidence, mac, ticket)


# --- multi-TEE envelope variants (repro.appraisal) ---------------------------
#
# msg0_multi := tag || u8 tee_type || G_a
# msg1_multi := tag || u8 tee_type || content1 || MAC_Km(tee_type || content1)
# msg2_multi := tag || content2m || MAC_Km(content2m)
#               content2m := G_a || u32 env_len || envelope || [ticket]
#
# The negotiated ``tee_type`` rides *inside* msg1's MAC'd bytes, so a
# man-in-the-middle cannot downgrade or redirect the negotiation once the
# session keys exist; the envelope's own header carries the tag inside
# msg2's MAC'd content (and inside the ticket CMAC) for the same reason.

_MSG0_MULTI_SIZE = 2 + POINT_SIZE
_MSG1_MULTI_SIZE = 2 + _CONTENT1_SIZE + MAC_SIZE


def encode_msg0_multi(tee_type: int, g_a: bytes) -> bytes:
    return bytes([MSG0_MULTI, tee_type]) + g_a


def decode_msg0_multi(data: bytes) -> Tuple[int, bytes]:
    if len(data) != _MSG0_MULTI_SIZE or data[0] != MSG0_MULTI:
        raise ProtocolError("malformed multi-TEE msg0")
    return data[1], data[2:]


def encode_msg1_multi(tee_type: int, g_v: bytes, verifier_key: bytes,
                      signature: bytes, mac: bytes) -> bytes:
    return (bytes([MSG1_MULTI, tee_type]) + g_v + verifier_key + signature
            + mac)


@dataclass(frozen=True)
class Msg1Multi:
    tee_type: int
    g_v: bytes
    verifier_key: bytes
    signature: bytes
    mac: bytes

    @property
    def content(self) -> bytes:
        """The MAC'd bytes — the negotiated tag is covered."""
        return (bytes([self.tee_type]) + self.g_v + self.verifier_key
                + self.signature)


def decode_msg1_multi(data: bytes) -> Msg1Multi:
    if len(data) != _MSG1_MULTI_SIZE or data[0] != MSG1_MULTI:
        raise ProtocolError("malformed multi-TEE msg1")
    offset = 1
    tee_type = data[offset]
    offset += 1
    g_v = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    verifier_key = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    signature = data[offset : offset + ecdsa.SIGNATURE_SIZE]
    offset += ecdsa.SIGNATURE_SIZE
    return Msg1Multi(tee_type, g_v, verifier_key, signature, data[offset:])


def encode_msg2_multi(g_a: bytes, envelope: bytes, mac: bytes,
                      ticket: bytes = b"") -> bytes:
    return (bytes([MSG2_MULTI]) + g_a + struct.pack("<I", len(envelope))
            + envelope + ticket + mac)


@dataclass(frozen=True)
class Msg2Multi:
    g_a: bytes
    envelope: bytes
    mac: bytes
    #: CMAC over the *envelope* bytes (tag header included) under the
    #: resumption key — see :mod:`repro.fleet.cache`.
    ticket: bytes = b""

    @property
    def content(self) -> bytes:
            return (self.g_a + struct.pack("<I", len(self.envelope))
                + self.envelope + self.ticket)


def decode_msg2_multi(data: bytes) -> Msg2Multi:
    fixed = 1 + POINT_SIZE + 4
    if len(data) < fixed + MAC_SIZE or data[0] != MSG2_MULTI:
        raise ProtocolError("malformed multi-TEE msg2")
    offset = 1
    g_a = data[offset : offset + POINT_SIZE]
    offset += POINT_SIZE
    (env_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + env_len + MAC_SIZE:
        raise ProtocolError("multi-TEE msg2 truncates its envelope")
    envelope = data[offset : offset + env_len]
    offset += env_len
    trailer = len(data) - offset - MAC_SIZE
    if trailer == 0:
        ticket = b""
    elif trailer == TICKET_SIZE:
        ticket = data[offset : offset + TICKET_SIZE]
        offset += TICKET_SIZE
    else:
        raise ProtocolError("multi-TEE msg2 carries a malformed ticket")
    return Msg2Multi(bytes(g_a), bytes(envelope), bytes(data[offset:]),
                     bytes(ticket))


def encode_msg3(iv: bytes, sealed: bytes, resume: bool = False) -> bytes:
    """``resume`` tags msg3 whose sealed payload carries a leading
    resumption key (:data:`RESUMPTION_KEY_SIZE` bytes) before the secret."""
    return bytes([MSG3_RESUME if resume else MSG3]) + iv + sealed


def decode_msg3(data: bytes) -> Tuple[bytes, bytes]:
    if len(data) < 1 + IV_SIZE or data[0] not in (MSG3, MSG3_RESUME):
        raise ProtocolError("malformed msg3")
    return data[1 : 1 + IV_SIZE], data[1 + IV_SIZE :]


#: Chunk size of the streaming msg3 pipeline. 128 KiB keeps every
#: intermediate buffer cache-sized while amortising per-chunk dispatch
#: overhead to noise; the optee shared-memory charge uses the same
#: granularity (``repro.optee.gp_api.SHARED_COPY_CHUNK``).
MSG3_CHUNK_SIZE = 128 * 1024


def seal_msg3(gcm: AesGcm, iv: bytes, chunks: Sequence[bytes],
              resume: bool = False) -> bytes:
    """Streamed counterpart of :func:`encode_msg3` + ``AesGcm.seal``.

    Every payload chunk is encrypted directly into the wire buffer — tag
    byte, IV, ciphertext, and tag are produced in one pass with no
    full-payload intermediate (the resume variant previously concatenated
    key and secret before sealing a copy).
    """
    stream = gcm.stream_seal(iv)
    total = sum(len(chunk) for chunk in chunks)
    message = bytearray(1 + IV_SIZE + total + TAG_SIZE)
    message[0] = MSG3_RESUME if resume else MSG3
    message[1 : 1 + IV_SIZE] = iv
    view = memoryview(message)
    offset = 1 + IV_SIZE
    for chunk in chunks:
        offset += stream.update_into(chunk, view[offset:])
    view[offset:] = stream.final()
    return bytes(message)


def open_msg3(gcm: AesGcm, data: bytes,
              chunk_size: int = MSG3_CHUNK_SIZE) -> bytes:
    """Streamed counterpart of :func:`decode_msg3` + ``AesGcm.open``.

    The sealed payload reaches the cipher as memoryview chunks (no
    ciphertext copy); plaintext is only materialised — once — after the
    tag verifies.
    """
    if len(data) < 1 + IV_SIZE or data[0] not in (MSG3, MSG3_RESUME):
        raise ProtocolError("malformed msg3")
    view = memoryview(data)
    iv = bytes(view[1 : 1 + IV_SIZE])
    stream = gcm.stream_open(iv)
    for offset in range(1 + IV_SIZE, len(data), chunk_size):
        stream.update(view[offset : offset + chunk_size])
    return stream.final()

