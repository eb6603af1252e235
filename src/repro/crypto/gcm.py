"""AES-128-GCM authenticated encryption (NIST SP 800-38D).

The verifier delivers the *secret blob* of msg3 under AES-GCM (paper §IV,
Table II: ``iv || AES-GCM_Ke(data)``). Two execution paths are provided,
mirroring :mod:`repro.crypto.ec`:

* a scalar reference path — per-block GHASH over byte-indexed tables and a
  byte-generator CTR XOR — retained verbatim as the oracle every fast-path
  change is differentially tested against;
* a vectorised fast path: NumPy ``bitwise_xor`` over ``frombuffer`` views
  for CTR, and striped GHASH with aggregated reduction — tables for
  H^1..H^W let a whole :data:`STRIPE_WIDTH`-block stripe be folded with 16
  batched gathers, with a scalar Horner step carrying the state across
  stripes.

:func:`use_fast_paths` switches between them at runtime; the switch selects
*algorithms* only — every ciphertext, tag, and accept/reject decision is
identical on both paths.

The streaming API (:meth:`AesGcm.stream_seal` / :meth:`AesGcm.stream_open`,
init/update/final semantics like :class:`repro.crypto.hashing.IncrementalHash`)
encrypts and folds GHASH in one pass over memoryview chunks so megabyte
msg3 blobs cross the pipeline without full-buffer intermediate copies. The
open stream never releases plaintext before the tag verifies.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.crypto.aes import BLOCK_SIZE, Aes128
from repro.crypto.hashing import constant_time_equal
from repro.errors import AuthenticationError, CryptoError

IV_SIZE = 12
TAG_SIZE = 16

#: Blocks per GHASH stripe on the fast path. 64 blocks (1 KiB) keeps the
#: per-subkey stripe tables at 4 MiB while leaving the sequential Horner
#: fold with only N/64 scalar steps — small enough to disappear behind the
#: vectorised gathers (see DESIGN.md §16 for the width trade-off).
STRIPE_WIDTH = 64

#: Whole blocks a single fold needs before it pays for *building* stripe
#: tables: the cold build divided by what striping saves per block over the
#: unrolled scalar fold. Measured on a 2-vCPU x86-64 VM (CPython 3.11,
#: NumPy 2.4; three runs): build 1.7–2.8 ms, scalar 2.1–2.7 µs/block,
#: striped 0.22–0.28 µs/block, a break-even of 760–1,680 blocks. So a 4 KiB
#: handshake secret (256 blocks) never builds them and a 192–288 KiB dataset
#: builds them once per key. An instance that already holds stripe tables
#: uses them for every fold of at least one stripe.
_STRIPE_BUILD_MIN_BLOCKS = 1024

_R = 0xE1 << 120
_MASK64 = (1 << 64) - 1


# --- fast/reference switch -----------------------------------------------------

_fast_paths = True


def use_fast_paths(enabled: bool) -> bool:
    """Select vectorised (True) or scalar reference (False) bulk crypto.

    Returns the previous setting. The switch selects *algorithms* only:
    ciphertexts, tags, and accept/reject behaviour are identical."""
    global _fast_paths
    previous = _fast_paths
    _fast_paths = bool(enabled)
    return previous


def fast_paths_enabled() -> bool:
    return _fast_paths


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run a block on the scalar reference implementation."""
    previous = use_fast_paths(False)
    try:
        yield
    finally:
        use_fast_paths(previous)


# --- field arithmetic and scalar tables ----------------------------------------


def _gf_mult(x: int, y: int) -> int:
    """Bit-serial GF(2^128) multiplication (SP 800-38D, Algorithm 1): the
    oracle the table constructions are tested against."""
    z = 0
    v = x
    for i in range(128):
        if (y >> (127 - i)) & 1:
            z ^= v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return z


def _build_ghash_tables(h: int) -> List[List[int]]:
    """Per-byte-position multiplication tables for the hash subkey ``h``.

    ``tables[i][b]`` equals ``(b placed at byte position i) * h``, so a full
    product is 16 table lookups XORed together. Position 0 is the most
    significant byte. Built by subset-XOR doubling from the 128 single-bit
    products ``h * x^k``: byte bit ``2^t`` at position ``i`` is the field
    element ``x^(8i + 7 - t)``, and each bit doubles the row with itself
    XOR that bit's product.
    """
    products = []
    v = h
    for _ in range(128):
        products.append(v)
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    tables = []
    for pos in range(16):
        row = [0]
        for bit in reversed(products[8 * pos : 8 * pos + 8]):
            row += [v ^ bit for v in row]
        tables.append(row)
    return tables


def _mult_tables(x: int, tables: List[List[int]]) -> int:
    """``x * h`` via the per-byte tables of ``h`` (16 lookups)."""
    acc = 0
    for i in range(16):
        acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
    return acc


# --- striped fast-path tables --------------------------------------------------


class _StripeTables:
    """Aggregated-reduction tables: products against H^1..H^W at once.

    For a stripe of W blocks the GHASH recurrence telescopes to
    ``Y' = Y * H^W  ^  sum_j X_j * H^(W-j)`` — every block's product uses a
    *different* subkey power, so all W products are data-independent and
    vectorise. ``gather[pos]`` holds, for byte position ``pos``, the product
    of every (byte value, block slot j) pair at index ``byte * W + j``,
    packed as one complex128 (hi||lo uint64 halves) against ``H^(W-j)``, so
    a single ``np.take`` fetches a full 128-bit product. ``horner[pos][b]``
    is the scalar per-byte table of H^W that carries the accumulated state
    across stripes.
    """

    def __init__(self, h: int, scalar_tables: List[List[int]]) -> None:
        width = STRIPE_WIDTH
        powers = [h]
        for _ in range(width - 1):
            powers.append(_mult_tables(powers[-1], scalar_tables))
        powers.reverse()  # slot j multiplies H^(W-j)
        hi = np.array([p >> 64 for p in powers], dtype=np.uint64)
        lo = np.array([p & _MASK64 for p in powers], dtype=np.uint64)
        # Single-bit products H^(W-j) * x^k for every slot at once.
        bits = np.empty((128, width, 2), dtype=np.uint64)
        r_hi = np.uint64(0xE1 << 56)
        one = np.uint64(1)
        shift63 = np.uint64(63)
        for k in range(128):
            bits[k, :, 0] = hi
            bits[k, :, 1] = lo
            lsb = lo & one
            lo = (lo >> one) | ((hi & one) << shift63)
            hi = (hi >> one) ^ (lsb * r_hi)
        bits = bits.reshape(16, 8, 2 * width)
        # Subset-XOR doubling over (position, byte, slot): every step XORs
        # the contiguous rows built so far with one bit's products.
        table = np.empty((16, 256, 2 * width), dtype=np.uint64)
        table[:, 0] = 0
        for t in range(8):
            n = 1 << t
            np.bitwise_xor(table[:, :n], bits[:, 7 - t, None, :],
                           out=table[:, n : 2 * n])
        self.gather = list(table.reshape(16, 256 * 2 * width)
                           .view(np.complex128))
        self.horner = _build_ghash_tables(powers[0])


class _SubkeyTables:
    """One subkey's tables: scalar eagerly, stripe tables on first need.

    Owned by a single :class:`AesGcm`, so tables derived from a session
    key are dropped with that session. Two threads racing to build the
    stripe tables both build identical ones; either may win.
    """

    __slots__ = ("h", "scalar", "stripes", "__weakref__")

    def __init__(self, h: int) -> None:
        self.h = h
        self.scalar = _build_ghash_tables(h)
        self.stripes = None


# --- GHASH ---------------------------------------------------------------------


class _Ghash:
    """Streaming GHASH accumulator over prebuilt subkey tables (reference)."""

    def __init__(self, tables: List[List[int]]) -> None:
        self._tables = tables
        self._state = 0

    def update_blocks(self, data: bytes) -> None:
        """Fold zero-padded 16-byte blocks of ``data`` into the state."""
        tables = self._tables
        state = self._state
        full_end = len(data) - len(data) % BLOCK_SIZE
        for offset in range(0, full_end, BLOCK_SIZE):
            block = int.from_bytes(data[offset : offset + BLOCK_SIZE], "big")
            x = state ^ block
            acc = 0
            for i in range(16):
                acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
            state = acc
        if full_end != len(data):
            tail = data[full_end:] + b"\x00" * (BLOCK_SIZE - (len(data) - full_end))
            block = int.from_bytes(tail, "big")
            x = state ^ block
            acc = 0
            for i in range(16):
                acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
            state = acc
        self._state = state

    def digest(self) -> int:
        return self._state


#: Stripe slot of each block within its stripe; block ``j`` gathers index
#: ``byte * W + j``.
_SLOTS = np.arange(STRIPE_WIDTH, dtype=np.intp)


def _fold_striped(state: int, tables: _StripeTables, mat: np.ndarray,
                  nstripes: int) -> int:
    """Fold ``nstripes`` full stripes of blocks (``mat``: (n, 16) uint8).

    One batched gather per byte position XORs all 16 products of each
    block together; products travel as complex128 so hi and lo 64-bit
    halves move in a single take.
    """
    width = STRIPE_WIDTH
    n = nstripes * width
    idx = np.empty(n, dtype=np.intp)
    slots = idx.reshape(nstripes, width)
    acc = np.empty(n, dtype=np.complex128)
    scratch = np.empty_like(acc)
    words = acc.view(np.uint64)
    for pos, gather in enumerate(tables.gather):
        np.multiply(mat[:, pos], width, out=idx, dtype=np.intp)
        slots += _SLOTS
        if pos:
            np.take(gather, idx, out=scratch)
            words ^= scratch.view(np.uint64)
        else:
            np.take(gather, idx, out=acc)
    folded = np.bitwise_xor.reduce(words.reshape(nstripes, width, 2), axis=1)
    highs = folded[:, 0].tolist()
    lows = folded[:, 1].tolist()
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = \
        tables.horner
    for s in range(nstripes):
        stripe = (highs[s] << 64) | lows[s]
        if state:
            stripe ^= (
                t0[state >> 120] ^ t1[(state >> 112) & 0xFF]
                ^ t2[(state >> 104) & 0xFF] ^ t3[(state >> 96) & 0xFF]
                ^ t4[(state >> 88) & 0xFF] ^ t5[(state >> 80) & 0xFF]
                ^ t6[(state >> 72) & 0xFF] ^ t7[(state >> 64) & 0xFF]
                ^ t8[(state >> 56) & 0xFF] ^ t9[(state >> 48) & 0xFF]
                ^ t10[(state >> 40) & 0xFF] ^ t11[(state >> 32) & 0xFF]
                ^ t12[(state >> 24) & 0xFF] ^ t13[(state >> 16) & 0xFF]
                ^ t14[(state >> 8) & 0xFF] ^ t15[state & 0xFF]
            )
        state = stripe
    return state


def _fold_scalar(state: int, tables: List[List[int]], view,
                 start_block: int, end_block: int) -> int:
    """Per-block fold over full blocks of a memoryview (16 unrolled lookups)."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = \
        tables
    from_bytes = int.from_bytes
    for offset in range(start_block * BLOCK_SIZE, end_block * BLOCK_SIZE,
                        BLOCK_SIZE):
        x = state ^ from_bytes(view[offset : offset + BLOCK_SIZE], "big")
        state = (
            t0[x >> 120] ^ t1[(x >> 112) & 0xFF]
            ^ t2[(x >> 104) & 0xFF] ^ t3[(x >> 96) & 0xFF]
            ^ t4[(x >> 88) & 0xFF] ^ t5[(x >> 80) & 0xFF]
            ^ t6[(x >> 72) & 0xFF] ^ t7[(x >> 64) & 0xFF]
            ^ t8[(x >> 56) & 0xFF] ^ t9[(x >> 48) & 0xFF]
            ^ t10[(x >> 40) & 0xFF] ^ t11[(x >> 32) & 0xFF]
            ^ t12[(x >> 24) & 0xFF] ^ t13[(x >> 16) & 0xFF]
            ^ t14[(x >> 8) & 0xFF] ^ t15[x & 0xFF]
        )
    return state


class _GhashState:
    """Streaming GHASH over arbitrary-length chunks with segment padding.

    ``update`` absorbs bytes; ``close_segment`` zero-pads the dangling
    partial block exactly as the reference :class:`_Ghash` pads each
    ``update_blocks`` call, so a (aad, ciphertext, lengths) segment
    sequence digests identically on both paths.
    """

    __slots__ = ("_tables", "_fast", "_state", "_partial")

    def __init__(self, tables: _SubkeyTables, fast: bool) -> None:
        self._tables = tables
        self._fast = fast
        self._state = 0
        self._partial = bytearray()

    def update(self, data) -> None:
        if not len(data):
            return
        view = memoryview(data)
        if self._partial:
            need = BLOCK_SIZE - len(self._partial)
            take = min(need, len(view))
            self._partial.extend(view[:take])
            view = view[take:]
            if len(self._partial) < BLOCK_SIZE:
                return
            self._state = _fold_scalar(
                self._state, self._tables.scalar, self._partial, 0, 1)
            self._partial.clear()
        nblocks = len(view) // BLOCK_SIZE
        if nblocks:
            whole = view[: nblocks * BLOCK_SIZE]
            self._state = self._fold_blocks(whole, nblocks)
            view = view[nblocks * BLOCK_SIZE :]
        if len(view):
            self._partial.extend(view)

    def _fold_blocks(self, view, nblocks: int) -> int:
        tables = self._tables
        stripes = tables.stripes
        nstripes = nblocks // STRIPE_WIDTH
        if self._fast and nstripes and (
                stripes is not None or nblocks >= _STRIPE_BUILD_MIN_BLOCKS):
            if stripes is None:
                stripes = tables.stripes = _StripeTables(tables.h,
                                                         tables.scalar)
            full = nstripes * STRIPE_WIDTH
            mat = np.frombuffer(view, dtype=np.uint8,
                                count=full * BLOCK_SIZE).reshape(full, 16)
            state = _fold_striped(self._state, stripes, mat, nstripes)
            return _fold_scalar(state, tables.scalar, view, full, nblocks)
        return _fold_scalar(self._state, tables.scalar, view, 0, nblocks)

    def close_segment(self) -> None:
        if self._partial:
            self._partial.extend(b"\x00" * (BLOCK_SIZE - len(self._partial)))
            self._state = _fold_scalar(
                self._state, self._tables.scalar, self._partial, 0, 1)
            self._partial.clear()

    def digest(self) -> int:
        return self._state


# --- CTR keystream streams -----------------------------------------------------


class _CtrFast:
    """Chunked CTR XOR: numpy keystream blocks, ``bitwise_xor`` over views."""

    def __init__(self, cipher: Aes128, iv: bytes) -> None:
        self._cipher = cipher
        self._iv = iv
        self._next_block = 2
        self._leftover = b""

    def xor_into(self, src, out) -> None:
        src_arr = np.frombuffer(src, dtype=np.uint8)
        out_arr = np.frombuffer(out, dtype=np.uint8)
        n = len(src_arr)
        pos = 0
        if self._leftover:
            take = min(len(self._leftover), n)
            np.bitwise_xor(
                src_arr[:take],
                np.frombuffer(self._leftover, dtype=np.uint8, count=take),
                out=out_arr[:take])
            self._leftover = self._leftover[take:]
            pos = take
        remaining = n - pos
        if not remaining:
            return
        nblocks = (remaining + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = np.empty(nblocks * BLOCK_SIZE, dtype=np.uint8)
        self._cipher.ctr_keystream_into(self._iv, self._next_block,
                                        keystream)
        self._next_block += nblocks
        np.bitwise_xor(src_arr[pos:], keystream[:remaining], out=out_arr[pos:])
        self._leftover = keystream[remaining:].tobytes()


class _CtrReference:
    """Chunked CTR XOR via the original keystream call and byte generator."""

    def __init__(self, cipher: Aes128, iv: bytes) -> None:
        self._cipher = cipher
        self._iv = iv
        self._next_block = 2
        self._leftover = b""

    def xor_into(self, src, out) -> None:
        view = memoryview(src)
        n = len(view)
        pos = 0
        if self._leftover:
            take = min(len(self._leftover), n)
            out[:take] = bytes(
                a ^ b for a, b in zip(view[:take], self._leftover))
            self._leftover = self._leftover[take:]
            pos = take
        remaining = n - pos
        if not remaining:
            return
        nblocks = (remaining + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = self._cipher.ctr_keystream(self._iv, self._next_block,
                                               nblocks)
        self._next_block += nblocks
        out[pos:n] = bytes(a ^ b for a, b in zip(view[pos:], keystream))
        self._leftover = keystream[remaining:]


def _make_ctr(cipher: Aes128, iv: bytes, fast: bool):
    return _CtrFast(cipher, iv) if fast else _CtrReference(cipher, iv)


# --- streaming AEAD ------------------------------------------------------------


class GcmSealStream:
    """Single-pass streaming seal: init / update / final, like
    :class:`repro.crypto.hashing.IncrementalHash`.

    ``update_into`` encrypts a chunk straight into a caller buffer and
    folds the produced ciphertext into GHASH as it appears — no
    full-message intermediate. ``final`` returns the 16-byte tag. The
    fast/reference selection is captured at construction so a stream is
    internally consistent even if the switch flips mid-stream.
    """

    def __init__(self, gcm: "AesGcm", iv: bytes, aad: bytes = b"") -> None:
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        fast = _fast_paths
        self._cipher = gcm._cipher
        self._iv = bytes(iv)
        self._ghash = _GhashState(gcm._tables, fast)
        if aad:
            self._ghash.update(aad)
            self._ghash.close_segment()
        self._aad_bits = len(aad) * 8
        self._ctr = _make_ctr(self._cipher, self._iv, fast)
        self._ct_len = 0
        self._finished = False

    def update_into(self, chunk, out) -> int:
        """Encrypt ``chunk`` into the start of ``out``; returns its length."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        n = len(chunk)
        if n:
            target = memoryview(out)[:n]
            self._ctr.xor_into(chunk, target)
            self._ghash.update(target)
            self._ct_len += n
        return n

    def update(self, chunk) -> bytes:
        """Encrypt ``chunk`` and return its ciphertext."""
        out = bytearray(len(chunk))
        self.update_into(chunk, out)
        return bytes(out)

    def final(self) -> bytes:
        """Close the stream and return the authentication tag."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        self._finished = True
        self._ghash.close_segment()
        self._ghash.update(self._aad_bits.to_bytes(8, "big")
                           + (self._ct_len * 8).to_bytes(8, "big"))
        mask = int.from_bytes(
            self._cipher.encrypt_block(self._iv + b"\x00\x00\x00\x01"), "big")
        return (self._ghash.digest() ^ mask).to_bytes(BLOCK_SIZE, "big")


class GcmOpenStream:
    """Streaming open over ``ciphertext || tag`` chunks.

    The final :data:`TAG_SIZE` bytes of the stream are the tag, so the
    last 16 bytes seen are always held back; everything before them is
    folded into GHASH immediately and retained as zero-copy views.
    ``final`` verifies the tag **before** any decryption — a tampered
    stream never releases a byte of plaintext. Callers must keep the
    underlying chunk buffers unchanged until ``final`` returns.
    """

    def __init__(self, gcm: "AesGcm", iv: bytes, aad: bytes = b"") -> None:
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        self._fast = _fast_paths
        self._cipher = gcm._cipher
        self._iv = bytes(iv)
        self._ghash = _GhashState(gcm._tables, self._fast)
        if aad:
            self._ghash.update(aad)
            self._ghash.close_segment()
        self._aad_bits = len(aad) * 8
        self._pending = bytearray()
        self._parts: List[object] = []
        self._ct_len = 0
        self._finished = False

    def update(self, chunk) -> None:
        """Absorb the next chunk of the sealed stream."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        view = memoryview(chunk)
        total = len(self._pending) + len(view)
        if total <= TAG_SIZE:
            self._pending.extend(view)
            return
        release = total - TAG_SIZE
        if self._pending:
            take = min(len(self._pending), release)
            part = bytes(self._pending[:take])
            del self._pending[:take]
            self._ghash.update(part)
            self._parts.append(part)
            self._ct_len += take
            release -= take
        if release:
            part = view[:release]
            self._ghash.update(part)
            self._parts.append(part)
            self._ct_len += release
            view = view[release:]
        self._pending.extend(view)

    def final(self) -> bytes:
        """Verify the tag, then decrypt and return the plaintext."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        self._finished = True
        if len(self._pending) < TAG_SIZE:
            raise AuthenticationError("sealed message shorter than the tag")
        tag = bytes(self._pending)
        self._ghash.close_segment()
        self._ghash.update(self._aad_bits.to_bytes(8, "big")
                           + (self._ct_len * 8).to_bytes(8, "big"))
        mask = int.from_bytes(
            self._cipher.encrypt_block(self._iv + b"\x00\x00\x00\x01"), "big")
        expected = (self._ghash.digest() ^ mask).to_bytes(BLOCK_SIZE, "big")
        if not constant_time_equal(tag, expected):
            raise AuthenticationError("GCM tag verification failed")
        # Only now is the keystream ever generated.
        ctr = _make_ctr(self._cipher, self._iv, self._fast)
        plaintext = bytearray(self._ct_len)
        view = memoryview(plaintext)
        offset = 0
        for part in self._parts:
            end = offset + len(part)
            ctr.xor_into(part, view[offset:end])
            offset = end
        self._parts.clear()
        return bytes(plaintext)


# --- one-shot interface --------------------------------------------------------


class AesGcm:
    """AES-128-GCM with 96-bit IVs and 128-bit tags."""

    def __init__(self, key: bytes) -> None:
        self._cipher = Aes128(key)
        h = int.from_bytes(self._cipher.encrypt_block(b"\x00" * BLOCK_SIZE), "big")
        self._tables = _SubkeyTables(h)

    def _process(self, iv: bytes, data: bytes) -> bytes:
        """CTR-transform ``data``; encryption and decryption share this body."""
        nblocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = self._cipher.ctr_keystream(iv, 2, nblocks)
        return bytes(a ^ b for a, b in zip(data, keystream))

    def _tag(self, iv: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        ghash = _Ghash(self._tables.scalar)
        if aad:
            ghash.update_blocks(aad)
        if ciphertext:
            ghash.update_blocks(ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        ghash.update_blocks(lengths)
        s = ghash.digest().to_bytes(BLOCK_SIZE, "big")
        j0 = iv + b"\x00\x00\x00\x01"
        mask = self._cipher.encrypt_block(j0)
        return bytes(a ^ b for a, b in zip(s, mask))

    def stream_seal(self, iv: bytes, aad: bytes = b"") -> GcmSealStream:
        """Open a streaming seal; see :class:`GcmSealStream`."""
        return GcmSealStream(self, iv, aad)

    def stream_open(self, iv: bytes, aad: bytes = b"") -> GcmOpenStream:
        """Open a streaming open; see :class:`GcmOpenStream`."""
        return GcmOpenStream(self, iv, aad)

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        if not _fast_paths:
            ciphertext = self._process(iv, plaintext)
            return ciphertext + self._tag(iv, ciphertext, aad)
        sealed = bytearray(len(plaintext) + TAG_SIZE)
        view = memoryview(sealed)
        stream = GcmSealStream(self, iv, aad)
        n = stream.update_into(plaintext, view)
        view[n:] = stream.final()
        return bytes(sealed)

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag, then decrypt; raises on any tampering."""
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        if len(sealed) < TAG_SIZE:
            raise AuthenticationError("sealed message shorter than the tag")
        if not _fast_paths:
            ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
            expected = self._tag(iv, ciphertext, aad)
            if not constant_time_equal(tag, expected):
                raise AuthenticationError("GCM tag verification failed")
            return self._process(iv, ciphertext)
        stream = GcmOpenStream(self, iv, aad)
        stream.update(sealed)
        return stream.final()
