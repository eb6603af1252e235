"""Appraisal cache: memoise the expensive half of evidence appraisal.

Table III shows the verifier's msg2 cost is dominated by asymmetric
crypto — one ECDSA verify over the evidence body. The evidence signature
covers the session anchor, so its *bytes* are fresh every handshake and a
byte-level cache would never hit; what can legitimately be memoised is
the *appraisal decision* — but only for a sender who can prove it is the
same party that passed the full appraisal. Every field of the evidence is
public (the endorsement key, the measurement, the boot claim), and every
session-bound check (MAC, anchor) is computable by anyone running their
own key exchange, so a cache keyed on those values alone would let a
network attacker replay a genuine device's claims with a forged
signature.

The proof of continuity is a **resumption key**: after a fully verified
appraisal (evidence signature included), the verifier draws a fresh
16-byte secret, stores it in the cache entry and returns it to the
attester *inside* msg3's AES-GCM envelope — readable only by the peer
that completed this session's key exchange, i.e. the very party whose
signature just verified. On re-attestation the attester includes a
*ticket* in msg2: an AES-CMAC under the resumption key over the fresh
evidence body (which contains the new session's anchor, so captured
tickets cannot be transplanted). :meth:`AppraisalCache.redeem` releases a
hit — and thereby the ECDSA skip — only when the ticket verifies against
the entry's key; a msg2 built purely from public values always takes the
full-verify path.

The cache does not read evidence bytes. The verifier hands it a *scope*
(a digest of its policies), the evidence view whose backend and
appraised fields key the entry, and the bytes its msg2 variant MACs
tickets over. Entries are bounded by TTL (counted from the last real
verify) and a capacity cap in store order, and a new scope — endorsing a
new device, trusting a new measurement, a revocation, any other policy
change — invalidates the whole cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.protocol import RESUMPTION_KEY_SIZE
from repro.crypto.cmac import AesCmac
from repro.crypto.hashing import constant_time_equal

CacheKey = Tuple[int, bytes, bytes, bytes]


class AppraisalCache:
    """TTL + capacity-bounded cache of appraisals, scoped by policy.

    Entries are kept in store order (no recency reordering): the TTL
    counts from the last full verify, so eviction order and expiry order
    agree, and :meth:`_expire` can stop at the first live entry.
    """

    def __init__(self, capacity: int = 1024,
                 ttl_s: Optional[float] = None,
                 time_source=time.monotonic_ns) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._ttl_ns = None if ttl_s is None else int(ttl_s * 1e9)
        self._now = time_source
        self._lock = threading.Lock()
        # key -> (stored_at_ns, resumption_key), ordered by store time.
        self._entries: "OrderedDict[CacheKey, Tuple[int, bytes]]" = \
            OrderedDict()
        self._scope: Optional[bytes] = None
        self.hits = 0
        self.misses = 0
        self.bad_tickets = 0
        self.invalidations = 0
        self.expirations = 0

    @staticmethod
    def _key(view) -> CacheKey:
        # The key binds the evidence *backend* alongside every appraised
        # field: ``tee_type`` plus ``cache_extra`` (boot chain for
        # TrustZone, MRSIGNER/SVN/debug for SGX, RTMRs for TDX) keep an
        # entry minted for one backend or configuration from ever being
        # redeemed under another.
        return (int(view.tee_type), bytes(view.identity),
                bytes(view.claim), bytes(view.cache_extra))

    def _rescope(self, scope: bytes) -> None:
        if scope != self._scope:
            if self._scope is not None and self._entries:
                self.invalidations += len(self._entries)
            self._entries.clear()
            self._scope = scope

    def _expire(self) -> None:
        # TTL counts from the last *store* (the last real verify): a
        # constantly re-attesting device must still re-prove key
        # possession every TTL.
        if self._ttl_ns is None:
            return
        deadline = self._now() - self._ttl_ns
        while self._entries:
            oldest_key = next(iter(self._entries))
            if self._entries[oldest_key][0] > deadline:
                break
            del self._entries[oldest_key]
            self.expirations += 1

    def redeem(self, scope: bytes, view, body: bytes,
               ticket: bytes) -> Optional[bytes]:
        """Release the entry's resumption key iff ``ticket`` proves it.

        A hit requires a live entry for the view AND ``ticket`` to be a
        valid CMAC over ``body`` under the entry's resumption key. The
        verifier passes the bytes its msg2 variant MACs, which contain
        this session's anchor, so neither a replayed ticket nor a
        fabricated msg2 without the key can redeem. Anything else counts
        a miss (an existing entry with a wrong ticket also counts
        ``bad_tickets``) and the caller must run the full verify.
        """
        with self._lock:
            self._rescope(scope)
            self._expire()
            entry = self._entries.get(self._key(view))
            if entry is None:
                self.misses += 1
                return None
            resumption_key = entry[1]
            if not ticket or not constant_time_equal(
                    AesCmac(resumption_key).mac(body), ticket):
                if ticket:
                    self.bad_tickets += 1
                self.misses += 1
                return None
            self.hits += 1
            return resumption_key

    def store(self, scope: bytes, view, resumption_key: bytes) -> None:
        """Record a fully successful appraisal and its resumption key."""
        if len(resumption_key) != RESUMPTION_KEY_SIZE:
            raise ValueError("resumption key must be "
                             f"{RESUMPTION_KEY_SIZE} bytes")
        with self._lock:
            self._rescope(scope)
            key = self._key(view)
            self._entries.pop(key, None)  # re-store resets the store order
            self._entries[key] = (self._now(), bytes(resumption_key))
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict counters for metrics export."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "bad_tickets": self.bad_tickets,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
            }
