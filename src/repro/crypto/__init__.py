"""Pure-Python cryptographic substrate for the WaTZ reproduction.

This package replaces LibTomCrypt in the paper's stack: secp256r1 group
arithmetic, ECDSA signatures, ECDHE key agreement, AES-128 with GCM and
CMAC modes, the SGX-style session key derivation, and a Fortuna-style
seedable PRNG used to derive attestation keys from the root of trust.
"""

from repro.crypto import ec, gcm
from repro.crypto.aes import Aes128
from repro.crypto.cmac import MAC_SIZE, AesCmac, aes_cmac
from repro.crypto.ecdh import SessionKeyPair, generate as generate_session_keypair, shared_secret
from repro.crypto.ecdsa import (
    SIGNATURE_SIZE,
    KeyPair,
    is_valid,
    keypair_from_private,
    keypair_from_seed_stream,
    sign,
    verify,
)
from repro.crypto.fortuna import Fortuna, seeded_fortuna
from repro.crypto.gcm import (
    IV_SIZE,
    TAG_SIZE,
    AesGcm,
    GcmOpenStream,
    GcmSealStream,
)
from repro.crypto.hashing import (
    SHA256_SIZE,
    IncrementalHash,
    constant_time_equal,
    hmac_sha256,
    sha256,
    sha256_hex,
)
from repro.crypto.kdf import SessionKeys, derive_kdk, derive_key, derive_session_keys

__all__ = [
    "ec",
    "gcm",
    "Aes128",
    "AesCmac",
    "aes_cmac",
    "MAC_SIZE",
    "SessionKeyPair",
    "generate_session_keypair",
    "shared_secret",
    "KeyPair",
    "SIGNATURE_SIZE",
    "keypair_from_private",
    "keypair_from_seed_stream",
    "sign",
    "verify",
    "is_valid",
    "Fortuna",
    "seeded_fortuna",
    "AesGcm",
    "GcmSealStream",
    "GcmOpenStream",
    "IV_SIZE",
    "TAG_SIZE",
    "SHA256_SIZE",
    "IncrementalHash",
    "constant_time_equal",
    "hmac_sha256",
    "sha256",
    "sha256_hex",
    "SessionKeys",
    "derive_kdk",
    "derive_key",
    "derive_session_keys",
]
