"""Session table for the fleet gateway.

Each inbound attester connection gets one entry, pinned to a verifier TA
lane for its whole handshake (the lane's TA instance holds the
:class:`~repro.core.server.VerifierProtocolState` keyed by connection
id). Entries expire on a TTL — an attester that stalls mid-handshake must
not pin verifier state forever — and the table carries an LRU cap so a
burst of half-open handshakes cannot grow verifier memory without bound.
Evictions are reported through ``on_evict`` so the gateway can drop the
TA-side protocol state as well.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ProtocolError


@dataclass
class SessionEntry:
    """Gateway-side bookkeeping for one live attester connection."""

    conn_id: int
    lane: int
    created_ns: int
    last_seen_ns: int
    messages: int = 0


EvictCallback = Callable[[SessionEntry, str], None]


class SessionTable:
    """TTL-expiring, LRU-capped registry of live gateway sessions."""

    def __init__(self, capacity: int, ttl_s: float,
                 time_source=time.monotonic_ns,
                 on_evict: Optional[EvictCallback] = None) -> None:
        if capacity < 1:
            raise ValueError("session capacity must be positive")
        self._capacity = capacity
        self._ttl_ns = int(ttl_s * 1e9)
        self._now = time_source
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, SessionEntry]" = OrderedDict()
        self.expired = 0
        self.evicted_lru = 0

    def open(self, conn_id: int, lane: int) -> SessionEntry:
        """Register a new connection, evicting to stay under the cap."""
        evicted = []
        with self._lock:
            evicted += self._sweep_expired()
            now = self._now()
            entry = SessionEntry(conn_id=conn_id, lane=lane,
                                 created_ns=now, last_seen_ns=now)
            self._entries[conn_id] = entry
            while len(self._entries) > self._capacity:
                _, victim = self._entries.popitem(last=False)
                self.evicted_lru += 1
                evicted.append((victim, "lru"))
        self._notify(evicted)
        return entry

    def touch(self, conn_id: int) -> SessionEntry:
        """Refresh a live entry; raises if it expired or was evicted."""
        evicted = []
        try:
            with self._lock:
                evicted += self._sweep_expired()
                entry = self._entries.get(conn_id)
                if entry is None:
                    raise ProtocolError(
                        f"attestation session {conn_id} has expired or was "
                        "evicted"
                    )
                entry.last_seen_ns = self._now()
                entry.messages += 1
                self._entries.move_to_end(conn_id)
                return entry
        finally:
            self._notify(evicted)

    def discard(self, conn_id: int) -> Optional[SessionEntry]:
        """Explicit teardown (connection closed); no evict callback."""
        with self._lock:
            return self._entries.pop(conn_id, None)

    def sweep(self) -> int:
        """Expire stale entries; returns how many were evicted."""
        with self._lock:
            evicted = self._sweep_expired()
        self._notify(evicted)
        return len(evicted)

    def _sweep_expired(self):
        # Called with the lock held; returns (entry, reason) pairs so the
        # callbacks run after the lock is released (they may invoke the
        # verifier TA to drop its side of the state).
        evicted = []
        deadline = self._now() - self._ttl_ns
        stale = [conn_id for conn_id, entry in self._entries.items()
                 if entry.last_seen_ns <= deadline]
        for conn_id in stale:
            entry = self._entries.pop(conn_id)
            self.expired += 1
            evicted.append((entry, "ttl"))
        return evicted

    def _notify(self, evicted) -> None:
        if self._on_evict is None:
            return
        for entry, reason in evicted:
            self._on_evict(entry, reason)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, conn_id: int) -> bool:
        with self._lock:
            return conn_id in self._entries

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "live": len(self._entries),
                "capacity": self._capacity,
                "expired": self.expired,
                "evicted_lru": self.evicted_lru,
            }
