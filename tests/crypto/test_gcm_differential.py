"""Differential tests pinning the fast GCM paths to the scalar reference.

The vectorised CTR/GHASH pipeline and the retained per-block reference
must compute the *same function* for every input: identical ciphertext,
identical tag, identical accept/reject decision — across sizes spanning
the stripe width and the stripe-table build threshold, on fresh instances
and on instances that already hold stripe tables, every chunking of the
streaming API, and every tamper position. Hypothesis drives randomised
cases; boundary sizes are enumerated exhaustively.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import (
    STRIPE_WIDTH,
    TAG_SIZE,
    AesGcm,
    _STRIPE_BUILD_MIN_BLOCKS,
)
from repro.errors import AuthenticationError

_BLOCK = 16
_KEY = b"\x9a" * 16
_IV = b"\x5b" * 12

# Sizes around every algorithmic boundary: empty, sub-block, block edges,
# one stripe (the least a striped fold takes), two stripe widths, one block
# either side of the stripe-table build threshold, and megabyte scale
# (3 MB is the largest point of Fig. 7).
_EDGE_SIZES = [
    0, 1, 15, 16, 17,
    STRIPE_WIDTH * _BLOCK - 1,
    STRIPE_WIDTH * _BLOCK,
    STRIPE_WIDTH * _BLOCK + 1,
    STRIPE_WIDTH * _BLOCK * 2 + 7,
    4096,
    (_STRIPE_BUILD_MIN_BLOCKS - 1) * _BLOCK,
    _STRIPE_BUILD_MIN_BLOCKS * _BLOCK,
    (_STRIPE_BUILD_MIN_BLOCKS + 1) * _BLOCK,
]
_BULK_SIZES = [1 << 20, 3 << 20]


def _material(size: int, label: bytes = b"") -> bytes:
    """Deterministic pseudo-random bytes (sha256 counter stream)."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(label + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:size])


def _both_paths(fn):
    result = fn()
    with gcm.reference_paths():
        reference = fn()
    return result, reference


@pytest.mark.parametrize("size", _EDGE_SIZES)
def test_seal_matches_reference_at_boundaries(size):
    cipher = AesGcm(_KEY)
    plaintext = _material(size)
    aad = _material(29, b"aad")
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext, aad))
    assert fast == reference
    opened, opened_ref = _both_paths(lambda: cipher.open(_IV, fast, aad))
    assert opened == plaintext
    assert opened_ref == plaintext


@pytest.mark.parametrize("size", _EDGE_SIZES)
def test_warm_instance_matches_reference_at_boundaries(size):
    """Once a fold past the build threshold has built stripe tables, every
    fold of at least one stripe takes the striped branch: 63, 64 and 65
    blocks now run scalar, striped, and striped plus a scalar tail."""
    cipher = AesGcm(_KEY)
    cipher.seal(_IV, _material((_STRIPE_BUILD_MIN_BLOCKS + 1) * _BLOCK, b"w"))
    assert cipher._tables.stripes is not None
    plaintext = _material(size)
    aad = _material(29, b"aad")
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext, aad))
    assert fast == reference
    opened, opened_ref = _both_paths(lambda: cipher.open(_IV, fast, aad))
    assert opened == plaintext
    assert opened_ref == plaintext


@pytest.mark.parametrize("size", _BULK_SIZES)
def test_seal_matches_reference_at_bulk_scale(size):
    cipher = AesGcm(_KEY)
    plaintext = _material(size)
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext))
    assert fast == reference
    assert cipher.open(_IV, fast) == plaintext


def test_all_tamper_positions_rejected_on_both_paths():
    cipher = AesGcm(_KEY)
    plaintext = _material(48)
    aad = b"header"
    sealed = cipher.seal(_IV, plaintext, aad)
    for position in range(len(sealed)):  # every ciphertext and tag byte
        tampered = bytearray(sealed)
        tampered[position] ^= 0x01
        tampered = bytes(tampered)
        with pytest.raises(AuthenticationError):
            cipher.open(_IV, tampered, aad)
        with gcm.reference_paths():
            with pytest.raises(AuthenticationError):
                cipher.open(_IV, tampered, aad)
        stream = cipher.stream_open(_IV, aad)
        stream.update(tampered)
        with pytest.raises(AuthenticationError):
            stream.final()


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 6 * STRIPE_WIDTH * _BLOCK),
    aad_size=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_seal_differential(size, aad_size, seed):
    cipher = AesGcm(_KEY)
    label = seed.to_bytes(4, "big")
    plaintext = _material(size, label)
    aad = _material(aad_size, label + b"aad")
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext, aad))
    assert fast == reference
    assert cipher.open(_IV, fast, aad) == plaintext


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 3 * STRIPE_WIDTH * _BLOCK),
    widths=st.lists(st.integers(1, 700), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_chunking_differential(size, widths, seed):
    """Any chunking of seal/open streams equals the one-shot result."""
    cipher = AesGcm(_KEY)
    plaintext = _material(size, seed.to_bytes(4, "big"))
    sealed = cipher.seal(_IV, plaintext)

    def run_streams():
        stream = cipher.stream_seal(_IV)
        produced = bytearray()
        offset = 0
        index = 0
        while offset < len(plaintext):
            width = widths[index % len(widths)]
            produced.extend(stream.update(plaintext[offset : offset + width]))
            offset += width
            index += 1
        produced.extend(stream.final())

        opener = cipher.stream_open(_IV)
        offset = 0
        index = 0
        while offset < len(sealed):
            width = widths[index % len(widths)]
            opener.update(sealed[offset : offset + width])
            offset += width
            index += 1
        return bytes(produced), opener.final()

    fast_sealed, fast_opened = run_streams()
    assert fast_sealed == sealed
    assert fast_opened == plaintext
    with gcm.reference_paths():
        ref_sealed, ref_opened = run_streams()
    assert ref_sealed == sealed
    assert ref_opened == plaintext


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(1, 2 * STRIPE_WIDTH * _BLOCK),
    tamper=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_tamper_differential(size, tamper, seed):
    """Fast and reference agree on rejecting any tampered byte."""
    cipher = AesGcm(_KEY)
    plaintext = _material(size, seed.to_bytes(4, "big"))
    sealed = bytearray(cipher.seal(_IV, plaintext))
    sealed[tamper % len(sealed)] ^= 1 + (tamper >> 8) % 255
    sealed = bytes(sealed)
    for run in (lambda: cipher.open(_IV, sealed),):
        with pytest.raises(AuthenticationError):
            run()
        with gcm.reference_paths():
            with pytest.raises(AuthenticationError):
                run()
