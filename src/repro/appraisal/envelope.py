"""The self-describing multi-TEE evidence envelope and the codec registry.

WaTZ's wire protocol carries exactly one evidence shape — the TrustZone
claims structure of :mod:`repro.core.evidence`. Serving a heterogeneous
fleet (Twine-style SGX enclaves, TDX-style domains and TrustZone boards
attesting the *same* Wasm module) needs a container that says what it is:

::

    envelope := magic "WTEV" || u8 version || u8 tee_type
                || u16 reserved(0) || u32 body_len || body

The header is fixed and versioned; the body is opaque to the envelope and
owned by the codec registered for ``tee_type``. Decoding is strict —
short headers, bad magic, unsupported versions, non-zero reserved bits,
and any body-length mismatch raise :class:`~repro.errors.EnvelopeError`
(a :class:`~repro.errors.EvidenceError`), never a bare ``struct.error``.

A :class:`CodecRegistry` maps ``tee_type`` tags to codec objects. Each
codec exposes:

* ``tee_type`` / ``name`` — the tag it claims and a human label;
* ``decode(body) -> view`` / ``encode(view) -> body`` — strict, typed
  parsing of the backend-specific body.

Every decoded *view* presents the uniform appraisal surface the policy
engine and the appraisal cache consume: ``tee_type``, ``anchor``,
``claim`` (the primary code measurement), ``identity`` (the signing
key), ``cache_extra`` (backend state beyond the claim — boot chain,
MRSIGNER/SVN/debug, RTMRs), ``svn``, ``debug``, ``signer``, ``version``,
``verify_signature()`` (the backend's key/signature check, on
:mod:`repro.crypto`), plus ``encode()`` (the codec body) and
``envelope()`` (the full wire envelope — the byte string resumption
tickets MAC over, so a ticket minted under one backend can never verify
under another: the header's ``tee_type`` is inside the MAC'd bytes).
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.errors import EnvelopeError

ENVELOPE_MAGIC = b"WTEV"
ENVELOPE_VERSION = 1

_ENV_HEADER = struct.Struct("<4sBBHI")
ENVELOPE_HEADER_SIZE = _ENV_HEADER.size

#: Registered evidence-shape tags.
TEE_TRUSTZONE = 0x01
TEE_SGX = 0x02
TEE_TDX = 0x03

TEE_NAMES = {
    TEE_TRUSTZONE: "trustzone",
    TEE_SGX: "sgx",
    TEE_TDX: "tdx",
}


def tee_name(tee_type: int) -> str:
    return TEE_NAMES.get(tee_type, f"tee_{tee_type:#04x}")


def encode_envelope(tee_type: int, body: bytes) -> bytes:
    """Wrap a codec body in the versioned self-describing header."""
    if not 0 <= tee_type <= 0xFF:
        raise EnvelopeError(f"tee_type {tee_type} does not fit the tag byte")
    return _ENV_HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, tee_type,
                            0, len(body)) + body


def decode_envelope(data: bytes) -> Tuple[int, bytes]:
    """Strictly parse an envelope into ``(tee_type, body)``."""
    if len(data) < ENVELOPE_HEADER_SIZE:
        raise EnvelopeError(
            f"envelope shorter than its {ENVELOPE_HEADER_SIZE}-byte header"
        )
    magic, version, tee_type, reserved, body_len = _ENV_HEADER.unpack_from(
        data, 0)
    if magic != ENVELOPE_MAGIC:
        raise EnvelopeError("bad envelope magic")
    if version != ENVELOPE_VERSION:
        raise EnvelopeError(f"unsupported envelope version {version}")
    if reserved != 0:
        raise EnvelopeError("non-canonical envelope: reserved bits set")
    body = data[ENVELOPE_HEADER_SIZE:]
    if len(body) != body_len:
        raise EnvelopeError(
            f"envelope declares {body_len} body bytes, carries {len(body)}"
        )
    return tee_type, bytes(body)


class CodecRegistry:
    """Pluggable ``tee_type -> codec`` table.

    Registration is explicit (no import-time magic): construct a registry
    with the codecs a deployment accepts, or take
    :func:`default_registry` for all three built-ins. Lookup of an
    unregistered tag raises :class:`~repro.errors.EnvelopeError` so the
    protocol layer reports it as malformed/unacceptable evidence rather
    than a programming error.
    """

    def __init__(self, codecs=()) -> None:
        self._codecs: Dict[int, object] = {}
        for codec in codecs:
            self.register(codec)

    def register(self, codec) -> None:
        tag = codec.tee_type
        if tag in self._codecs:
            raise ValueError(
                f"a codec for tee_type {tag:#04x} "
                f"({self._codecs[tag].name}) is already registered")
        self._codecs[tag] = codec

    def get(self, tee_type: int):
        codec = self._codecs.get(tee_type)
        if codec is None:
            raise EnvelopeError(
                f"no codec registered for tee_type {tee_type:#04x}")
        return codec

    def tee_types(self) -> Tuple[int, ...]:
        return tuple(sorted(self._codecs))

    def codecs(self) -> Tuple[object, ...]:
        return tuple(self._codecs[tag] for tag in sorted(self._codecs))

    def __contains__(self, tee_type: int) -> bool:
        return tee_type in self._codecs

    def decode(self, data: bytes):
        """Envelope bytes -> typed evidence view (via the body's codec)."""
        tee_type, body = decode_envelope(data)
        return self.get(tee_type).decode(body)

    def encode(self, view) -> bytes:
        """Typed evidence view -> full envelope bytes."""
        codec = self.get(view.tee_type)
        return encode_envelope(view.tee_type, codec.encode(view))


def default_registry() -> CodecRegistry:
    """A registry holding the three built-in codecs."""
    from repro.appraisal.codecs.sgx import SgxCodec
    from repro.appraisal.codecs.tdx import TdxCodec
    from repro.appraisal.codecs.trustzone import TrustZoneCodec

    return CodecRegistry((TrustZoneCodec(), SgxCodec(), TdxCodec()))
