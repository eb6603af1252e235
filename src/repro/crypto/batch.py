"""Randomised-linear-combination batch ECDSA verification.

The verifier-side hot path of Table III is the per-msg2 ECDSA verify:
one Shamir double-scalar multiplication each. When the gateway's lanes
convoy several *independent* pending msg2s on the device lock, their
verification equations can be checked jointly: with random ``lambda_i`` the single
Strauss multi-scalar test

    sum(lambda_i * u1_i) * G + sum(lambda_i * u2_i * Q_i)
        == sum(lambda_i * e_i * R_i)

holds for *some* sign vector ``e`` iff (up to a ``2**(n - ell)`` union
bound over sign vectors, ``ell`` = randomizer bits) every signature in
the batch verifies individually. The left side rides ONE shared doubling
chain (:func:`repro.crypto.ec.multi_scalar_mult`); the ``G`` columns of
all n equations collapse into a single scalar.

Two ECDSA-specific obstacles shape the algorithm:

* **x-only signatures.** ECDSA transmits ``r = R.x mod n``, not ``R``:
  the y-coordinate (a sign) is lost, and low-s normalisation at the
  signer makes both signs genuinely possible. The batch therefore
  recovers ``R_hat = lift_x(r)`` and resolves the n unknown signs with a
  meet-in-the-middle search: all ``2**(n/2)`` partial sums of the left
  half are tabulated (Gray-style accumulation, one mixed addition each,
  affine via one shared batch inversion) and each right-half candidate
  is looked up — ``O(2**(n/2))`` additions instead of ``2**n``, which
  caps the practical batch size (:data:`BATCH_MAX`).

* **attribution.** A failed batch says only "at least one forgery". The
  fallback re-verifies each member with the plain per-signature
  :func:`repro.crypto.ecdsa.verify`, so the caller always learns the
  exact failing item with the exact error the unbatched path raises —
  and the random ``lambda_i`` make the classic cancellation attack
  (two crafted forgeries whose equation errors sum to zero, which WOULD
  fool the unrandomised check) fail with probability ``1 - 2**-ell``.

Rare signatures step out of the batch and fall back individually: an
``r`` small enough that both ``r`` and ``r + n`` are field elements
(the x-wraparound ambiguity, top 32 bits of ``r`` all zero), and any
``r`` that lifts to no curve point at all (no possible ``R`` — rejected
outright, exactly like the per-signature check).

Successfully verified triples can seed the consume-once memo in
:mod:`repro.crypto.ecdsa`, which is how a gateway-side batch pre-pass
turns into a later one-dict-lookup verify inside the verifier TA without
changing a byte of protocol behaviour.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro.crypto import ec, ecdsa
from repro.crypto.hashing import sha256
from repro.errors import CryptoError, SignatureError

#: One signature to check: (public key point, message bytes, r || s).
BatchItem = Tuple[ec.Point, bytes, bytes]

#: Largest chunk checked as one linear combination. The sign search is
#: O(2**(n/2)) mixed additions; 8 keeps that at 2 x 16 — negligible next
#: to the multi-scalar chain — while still collapsing eight G-columns.
BATCH_MAX = 8

#: Bits of each random lambda. A batch containing a forgery survives the
#: randomised check with probability <= 2**(n - 64) (union bound over
#: sign vectors) — and even then the per-item fallback would still have
#: to be fooled, which it cannot be: it IS the reference check.
RANDOMIZER_BITS = 64

_WIDTH = 5  # wNAF width for the one-shot R-hat tables


class _Prepared:
    """One signature admitted to the linear combination."""

    __slots__ = ("index", "public", "message", "signature", "u1", "u2",
                 "r_hat")

    def __init__(self, index: int, public: ec.Point, message: bytes,
                 signature: bytes, u1: int, u2: int,
                 r_hat: ec.Point) -> None:
        self.index = index
        self.public = public
        self.message = message
        self.signature = signature
        self.u1 = u1
        self.u2 = u2
        self.r_hat = r_hat


def verify_batch(items: Sequence[BatchItem], *,
                 rng: Optional[Callable[[int], bytes]] = None,
                 max_batch: int = BATCH_MAX,
                 randomizer_bits: int = RANDOMIZER_BITS,
                 seed_memo: bool = False
                 ) -> List[Optional[SignatureError]]:
    """Verify many ``(public, message, signature)`` triples at once.

    Returns a list aligned with ``items``: ``None`` for a valid
    signature, or the exact :class:`SignatureError` the per-signature
    :func:`repro.crypto.ecdsa.verify` raises for that item. The batch is
    an *algorithmic* choice only — the accept/reject set is identical to
    n independent verifications (tests pin this differentially on both
    EC paths).

    ``seed_memo=True`` additionally records every verified triple in the
    consume-once memo of :mod:`repro.crypto.ecdsa`, so the next plain
    ``verify`` of the same triple is a dict lookup.
    """
    if rng is None:
        rng = os.urandom
    if max_batch < 2:
        raise ValueError("max_batch must be at least 2")
    if not 8 <= randomizer_bits <= 128:
        # <= 128 keeps every lambda strictly below the group order, so
        # no P_i = lambda_i * R_hat_i can degenerate to infinity.
        raise ValueError("randomizer_bits must be in [8, 128]")
    results: List[Optional[SignatureError]] = [None] * len(items)
    fallback: List[int] = []
    prepared: List[_Prepared] = []
    for index, (public, message, signature) in enumerate(items):
        outcome = _prepare(index, public, message, signature)
        if isinstance(outcome, SignatureError):
            results[index] = outcome
        elif outcome is None:
            fallback.append(index)
        else:
            prepared.append(outcome)
    for start in range(0, len(prepared), max_batch):
        chunk = prepared[start:start + max_batch]
        if len(chunk) < 2 or not ec.fast_paths_enabled():
            # A chunk of one gains nothing; the naive reference path has
            # no shared chain to amortise — both go straight to the
            # per-signature oracle.
            fallback.extend(entry.index for entry in chunk)
            continue
        if _check_combination(chunk, rng, randomizer_bits):
            for entry in chunk:
                if seed_memo:
                    ecdsa.seed_verified(entry.public, entry.message,
                                        entry.signature)
        else:
            fallback.extend(entry.index for entry in chunk)
    for index in fallback:
        public, message, signature = items[index]
        try:
            ecdsa.verify(public, message, signature)
        except SignatureError as exc:
            results[index] = exc
        else:
            if seed_memo:
                ecdsa.seed_verified(public, message, signature)
    return results


def _prepare(index: int, public: ec.Point, message: bytes,
             signature: bytes):
    """Precheck one item exactly like :func:`ecdsa.verify` would.

    Returns a :class:`_Prepared` for the linear combination, a
    :class:`SignatureError` for an outright rejection, or ``None`` for a
    signature that must take the per-item path (x-wraparound ambiguity).
    """
    if len(signature) != ecdsa.SIGNATURE_SIZE:
        return SignatureError("signature must be 64 bytes (r || s)")
    try:
        ec.validate_public_key(public)
    except CryptoError as exc:
        error = SignatureError(f"invalid public key: {exc}")
        error.__cause__ = exc
        return error
    r = int.from_bytes(signature[:ec.SCALAR_SIZE], "big")
    s = int.from_bytes(signature[ec.SCALAR_SIZE:], "big")
    if not (1 <= r < ec.N and 1 <= s < ec.N):
        return SignatureError("signature scalars out of range")
    if r + ec.N < ec.P:
        # Both r and r + n are field elements: TWO candidate x's for R.
        # Astronomically rare for honest signatures (top 32 bits of r all
        # zero) but adversarially craftable — step out of the batch.
        return None
    r_hat = ec.lift_x(r)
    if r_hat is None:
        # No curve point has this x, so no R can satisfy the equation:
        # the per-signature check would reach the same verdict the
        # expensive way.
        return SignatureError("signature does not verify")
    z = ecdsa._bits2int(sha256(message))
    s_inv = pow(s, ec.N - 2, ec.N)
    return _Prepared(index, public, message, signature,
                     z * s_inv % ec.N, r * s_inv % ec.N, r_hat)


def _check_combination(chunk: List[_Prepared],
                       rng: Callable[[int], bytes],
                       randomizer_bits: int) -> bool:
    """The randomised test: True means every chunk member verifies."""
    n = len(chunk)
    lambdas = []
    for _ in range(n):
        lam = 0
        while lam == 0:
            lam = int.from_bytes(rng((randomizer_bits + 7) // 8),
                                 "big") % (1 << randomizer_bits)
        lambdas.append(lam)
    # Left side of the equation: ONE Strauss chain. The G columns of all
    # n signatures collapse into a single 256-bit scalar.
    terms: List[ec.MultiScalarTerm] = [
        (sum(lam * entry.u1 for lam, entry in zip(lambdas, chunk)) % ec.N,
         None)]
    terms.extend((lam * entry.u2 % ec.N, entry.public)
                 for lam, entry in zip(lambdas, chunk))
    target = ec.multi_scalar_mult(terms)
    # Right side: P_i = lambda_i * R_hat_i. The lambdas are short, so
    # each ride a one-shot table; all n tables share ONE inversion.
    tables = ec._odd_multiples_affine_many(
        [entry.r_hat for entry in chunk], _WIDTH)
    summands = [ec._wnaf_chain([(ec._wnaf_digits(lam, _WIDTH), table)])
                for lam, table in zip(lambdas, tables)]
    # Every lambda is in [1, n) (randomizer_bits <= 128), so no P_i is
    # the point at infinity and the shared batch inversion is safe.
    points = ec._batch_normalize(summands)
    return _signs_match(target, points)


def _signs_match(target: ec.Point,
                 points: List[Tuple[int, int]]) -> bool:
    """Meet-in-the-middle search for signs with sum(e_i P_i) == target.

    Left half: all 2**a signed partial sums, tabulated affine (one batch
    inversion). Right half: each of the 2**b candidates
    ``target - sum(e_i P_i)`` is normalised (one more shared inversion)
    and looked up. Points at infinity cannot share a batch inversion, so
    they key on a ``None`` sentinel instead.
    """
    half = (len(points) + 1) // 2
    left, right = points[:half], points[half:]
    left_sums: List[ec._Jacobian] = [ec._J_INFINITY]
    for x, y in left:
        left_sums = [acc2 for acc in left_sums
                     for acc2 in (ec._jacobian_add_affine(acc, x, y),
                                  ec._jacobian_add_affine(acc, x,
                                                          ec.P - y))]
    known = _normalize_keys(left_sums)
    candidates: List[ec._Jacobian] = [ec._to_jacobian(target)]
    for x, y in right:
        # Moving P_i to the left negates it: candidate -= e_i * P_i.
        candidates = [acc2 for acc in candidates
                      for acc2 in (ec._jacobian_add_affine(acc, x,
                                                           ec.P - y),
                                   ec._jacobian_add_affine(acc, x, y))]
    return not known.isdisjoint(_normalize_keys(candidates))


def _normalize_keys(sums: List[ec._Jacobian]) -> set:
    finite = [point for point in sums if point[2] != 0]
    keys = set(ec._batch_normalize(finite)) if finite else set()
    if len(finite) != len(sums):
        keys.add(None)
    return keys
