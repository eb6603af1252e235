"""The self-describing evidence envelope and the codec registry."""

import pytest

from repro.appraisal.envelope import (
    ENVELOPE_HEADER_SIZE,
    ENVELOPE_MAGIC,
    TEE_SGX,
    TEE_TDX,
    TEE_TRUSTZONE,
    CodecRegistry,
    decode_envelope,
    default_registry,
    encode_envelope,
    tee_name,
)
from repro.errors import EnvelopeError, EvidenceError


def test_round_trip():
    body = b"some opaque codec body"
    data = encode_envelope(TEE_SGX, body)
    assert data[:4] == ENVELOPE_MAGIC
    assert decode_envelope(data) == (TEE_SGX, body)


def test_empty_body_round_trips():
    assert decode_envelope(encode_envelope(TEE_TDX, b"")) == (TEE_TDX, b"")


def test_tee_type_must_fit_the_tag_byte():
    with pytest.raises(EnvelopeError):
        encode_envelope(0x100, b"")
    with pytest.raises(EnvelopeError):
        encode_envelope(-1, b"")


def test_short_header_rejected():
    good = encode_envelope(TEE_SGX, b"x")
    for cut in range(ENVELOPE_HEADER_SIZE):
        with pytest.raises(EnvelopeError):
            decode_envelope(good[:cut])


def test_bad_magic_rejected():
    data = bytearray(encode_envelope(TEE_SGX, b"x"))
    data[0] ^= 0xFF
    with pytest.raises(EnvelopeError, match="magic"):
        decode_envelope(bytes(data))


def test_unsupported_version_rejected():
    data = bytearray(encode_envelope(TEE_SGX, b"x"))
    data[4] = 9
    with pytest.raises(EnvelopeError, match="version"):
        decode_envelope(bytes(data))


def test_reserved_bits_rejected():
    data = bytearray(encode_envelope(TEE_SGX, b"x"))
    data[6] = 1
    with pytest.raises(EnvelopeError, match="reserved"):
        decode_envelope(bytes(data))


def test_body_length_mismatch_rejected():
    data = encode_envelope(TEE_SGX, b"abcd")
    with pytest.raises(EnvelopeError, match="body"):
        decode_envelope(data + b"Z")  # trailing garbage
    with pytest.raises(EnvelopeError, match="body"):
        decode_envelope(data[:-1])  # truncated body


def test_envelope_error_is_a_typed_evidence_error():
    # The protocol layer catches EvidenceError; envelopes slot under it.
    assert issubclass(EnvelopeError, EvidenceError)


def test_default_registry_has_all_three_backends():
    registry = default_registry()
    assert registry.tee_types() == (TEE_TRUSTZONE, TEE_SGX, TEE_TDX)
    assert [codec.name for codec in registry.codecs()] == \
        ["trustzone", "sgx", "tdx"]
    assert TEE_SGX in registry and 0x7F not in registry


def test_registry_rejects_duplicate_registration():
    registry = default_registry()
    with pytest.raises(ValueError, match="already registered"):
        registry.register(registry.get(TEE_SGX).__class__())


def test_registry_lookup_of_unknown_tag_is_typed():
    with pytest.raises(EnvelopeError, match="no codec registered"):
        CodecRegistry().get(TEE_SGX)


def test_registry_decode_dispatches_to_the_right_codec():
    from repro.appraisal import synthetic

    enclave = synthetic.sgx_enclave(0, b"\x11" * 32)
    view = enclave.collect_evidence(b"\x22" * 32)
    registry = default_registry()
    decoded = registry.decode(view.envelope())
    assert decoded == view
    assert registry.encode(decoded) == view.envelope()


def test_tee_name_labels():
    assert tee_name(TEE_TRUSTZONE) == "trustzone"
    assert tee_name(0xEE) == "tee_0xee"
