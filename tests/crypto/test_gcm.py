"""AES-GCM: McGrew–Viega vectors, tamper detection, property tests, and
the GHASH tables checked entry by entry against bit-serial multiplication."""

import binascii
import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import (
    STRIPE_WIDTH,
    AesGcm,
    _STRIPE_BUILD_MIN_BLOCKS,
    _StripeTables,
    _SubkeyTables,
    _build_ghash_tables,
    _gf_mult,
)
from repro.errors import AuthenticationError, CryptoError

h = binascii.unhexlify

_KEY = h("feffe9928665731c6d6a8f9467308308")
_IV = h("cafebabefacedbaddecaf888")
_PT = h(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
)
_AAD = h("feedfacedeadbeeffeedfacedeadbeefabaddad2")


def test_gcm_test_case_4():
    sealed = AesGcm(_KEY).seal(_IV, _PT, _AAD)
    assert sealed[:-16] == h(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    )
    assert sealed[-16:] == h("5bc94fbc3221a5db94fae95ae7121a47")


def test_gcm_test_case_1_empty():
    gcm = AesGcm(b"\x00" * 16)
    sealed = gcm.seal(b"\x00" * 12, b"")
    assert sealed == h("58e2fccefa7e3061367f1d57a4e7455a")


def test_gcm_test_case_2_single_block():
    gcm = AesGcm(b"\x00" * 16)
    sealed = gcm.seal(b"\x00" * 12, b"\x00" * 16)
    assert sealed[:16] == h("0388dace60b6a392f328c2b971b2fe78")
    assert sealed[16:] == h("ab6e47d42cec13bdf53a67b21257bddf")


def test_roundtrip_with_aad():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"i" * 12, b"hello watz", b"header")
    assert gcm.open(b"i" * 12, sealed, b"header") == b"hello watz"


def test_ciphertext_tamper_detected():
    gcm = AesGcm(b"k" * 16)
    sealed = bytearray(gcm.seal(b"i" * 12, b"secret blob content"))
    sealed[3] ^= 0x01
    with pytest.raises(AuthenticationError):
        gcm.open(b"i" * 12, bytes(sealed))


def test_tag_tamper_detected():
    gcm = AesGcm(b"k" * 16)
    sealed = bytearray(gcm.seal(b"i" * 12, b"secret"))
    sealed[-1] ^= 0x80
    with pytest.raises(AuthenticationError):
        gcm.open(b"i" * 12, bytes(sealed))


def test_wrong_aad_detected():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"i" * 12, b"secret", b"aad-1")
    with pytest.raises(AuthenticationError):
        gcm.open(b"i" * 12, sealed, b"aad-2")


def test_wrong_iv_detected():
    gcm = AesGcm(b"k" * 16)
    sealed = gcm.seal(b"i" * 12, b"secret")
    with pytest.raises(AuthenticationError):
        gcm.open(b"j" * 12, sealed)


def test_wrong_key_detected():
    sealed = AesGcm(b"k" * 16).seal(b"i" * 12, b"secret")
    with pytest.raises(AuthenticationError):
        AesGcm(b"x" * 16).open(b"i" * 12, sealed)


def test_bad_iv_size():
    with pytest.raises(CryptoError):
        AesGcm(b"k" * 16).seal(b"short", b"data")


def test_truncated_message_rejected():
    with pytest.raises(AuthenticationError):
        AesGcm(b"k" * 16).open(b"i" * 12, b"tooshort")


@settings(max_examples=25, deadline=None)
@given(plaintext=st.binary(max_size=300), aad=st.binary(max_size=64))
def test_roundtrip_property(plaintext, aad):
    gcm = AesGcm(b"p" * 16)
    sealed = gcm.seal(b"v" * 12, plaintext, aad)
    assert len(sealed) == len(plaintext) + 16
    assert gcm.open(b"v" * 12, sealed, aad) == plaintext


# --- table construction against the bit-serial oracle ----------------------------

#: Seeded random subkeys plus edge elements: x^127 (integer 1), the unit
#: x^0 (integer 2^127), the all-ones element and the reduction constant.
_SUBKEYS = random.Random(16).getrandbits(256).to_bytes(32, "big")
_SUBKEYS = [int.from_bytes(_SUBKEYS[:16], "big"),
            int.from_bytes(_SUBKEYS[16:], "big"),
            1, 1 << 127, (1 << 128) - 1, 0xE1 << 120]


def _bit_serial_powers(h, count):
    powers = [h]
    for _ in range(count - 1):
        powers.append(_gf_mult(powers[-1], h))
    return powers


@pytest.mark.parametrize("h", _SUBKEYS, ids=hex)
def test_scalar_tables_match_bit_serial_products(h):
    tables = _build_ghash_tables(h)
    assert [len(row) for row in tables] == [256] * 16
    for pos, row in enumerate(tables):
        for b, entry in enumerate(row):
            assert entry == _gf_mult(b << 8 * (15 - pos), h), (pos, b)


@pytest.mark.parametrize("h", _SUBKEYS[:2] + _SUBKEYS[-1:], ids=hex)
def test_stripe_tables_match_bit_serial_products(h):
    stripes = _StripeTables(h, _build_ghash_tables(h))
    powers = _bit_serial_powers(h, STRIPE_WIDTH)  # powers[k] = H^(k+1)
    rng = random.Random(h & 0xFFFF)
    for _ in range(256):
        pos, b, j = rng.randrange(16), rng.randrange(256), \
            rng.randrange(STRIPE_WIDTH)
        hi, lo = stripes.gather[pos][b * STRIPE_WIDTH + j:][:1] \
            .view(np.uint64).tolist()
        expected = _gf_mult(b << 8 * (15 - pos), powers[STRIPE_WIDTH - 1 - j])
        assert (hi << 64) | lo == expected, (pos, b, j)
    assert stripes.horner == _build_ghash_tables(powers[-1])


def _bulk(nblocks):
    return bytes(range(256)) * (nblocks // 16) + bytes(nblocks % 16 * 16)


def test_fresh_key_small_secret_builds_no_stripe_tables():
    sealer, opener = AesGcm(b"s" * 16), AesGcm(b"s" * 16)
    secret = _bulk(256)  # the fleet-attest 4 KiB secret
    assert opener.open(b"i" * 12, sealer.seal(b"i" * 12, secret)) == secret
    assert sealer._tables.stripes is None
    assert opener._tables.stripes is None


def test_stripe_tables_built_once_per_instance(monkeypatch):
    builds, striped_folds = [], []
    real_fold = gcm._fold_striped

    class CountingStripeTables(_StripeTables):
        def __init__(self, *args):
            builds.append(args[0])
            super().__init__(*args)

    def counting_fold(*args):
        striped_folds.append(len(args[2]))
        return real_fold(*args)

    monkeypatch.setattr(gcm, "_StripeTables", CountingStripeTables)
    monkeypatch.setattr(gcm, "_fold_striped", counting_fold)
    cipher = AesGcm(b"b" * 16)
    cipher.seal(b"i" * 12, _bulk(_STRIPE_BUILD_MIN_BLOCKS - 1))
    assert builds == [] and striped_folds == []
    sealed = cipher.seal(b"i" * 12, _bulk(_STRIPE_BUILD_MIN_BLOCKS))
    assert len(builds) == 1
    stripes = cipher._tables.stripes
    for nblocks in (STRIPE_WIDTH - 1, STRIPE_WIDTH, 4 * STRIPE_WIDTH + 3):
        cipher.seal(b"i" * 12, _bulk(nblocks))
    assert cipher.open(b"i" * 12, sealed) == _bulk(_STRIPE_BUILD_MIN_BLOCKS)
    assert len(builds) == 1
    assert cipher._tables.stripes is stripes
    # The 63-block fold stays scalar; 64 and 259 blocks reuse the tables.
    assert striped_folds == [_STRIPE_BUILD_MIN_BLOCKS, STRIPE_WIDTH,
                             4 * STRIPE_WIDTH, _STRIPE_BUILD_MIN_BLOCKS]
    other = AesGcm(b"b" * 16)
    other.seal(b"i" * 12, _bulk(STRIPE_WIDTH))
    assert len(builds) == 1  # a second instance does not share or build


def test_dropped_cipher_releases_its_tables():
    cipher = AesGcm(b"w" * 16)
    cipher.seal(b"i" * 12, _bulk(_STRIPE_BUILD_MIN_BLOCKS))
    assert isinstance(cipher._tables, _SubkeyTables)
    tables = weakref.ref(cipher._tables)
    stripes = weakref.ref(cipher._tables.stripes)
    del cipher
    gc.collect()
    assert tables() is None
    assert stripes() is None


def test_threads_sharing_one_cipher_agree():
    """Threads folding past the threshold on one instance at once may each
    build stripe tables; whichever lands, every tag matches the reference."""
    cipher = AesGcm(b"t" * 16)
    plaintext = _bulk(_STRIPE_BUILD_MIN_BLOCKS + 5)
    with gcm.reference_paths():
        expected = cipher.seal(b"i" * 12, plaintext)
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(cipher.seal(b"i" * 12, plaintext)))
        for _ in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    assert cipher._tables.stripes is not None
