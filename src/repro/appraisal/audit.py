"""Append-only audit log for appraisal decisions.

Every accept and every deny a relying party issues is an event an
operator may later have to account for — which policy fingerprint was in
force, what evidence shape arrived, why it was denied. The log is
append-only by construction: entries are frozen, the buffer only grows
(up to a bounded ring, mirroring the :class:`repro.obs.Tracer` ring), and
each entry carries a hash chained over its predecessor so any tampering
or truncation in an exported log is detectable.

The log is in-process state, one per verifier (one per gateway in the
fleet); exports are plain dicts so :mod:`repro.obs.export` tooling can
persist them alongside span dumps.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.appraisal.envelope import tee_name
from repro.crypto.hashing import SHA256_SIZE, sha256

#: Default ring capacity; old entries fall off but the chain head of the
#: full history is preserved in ``head``.
AUDIT_CAPACITY = 4096

_GENESIS = b"\x00" * SHA256_SIZE


@dataclass(frozen=True)
class AuditEntry:
    """One appraisal decision, chained to its predecessor."""

    sequence: int
    tee_type: int
    accepted: bool
    reason: str
    policy_fingerprint: bytes
    detail: str = ""
    #: sha256 over the predecessor's digest plus this entry's fields.
    digest: bytes = b""

    @property
    def tee(self) -> str:
        return tee_name(self.tee_type)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sequence": self.sequence,
            "tee": self.tee,
            "tee_type": self.tee_type,
            "accepted": self.accepted,
            "reason": self.reason,
            "policy_fingerprint": self.policy_fingerprint.hex(),
            "detail": self.detail,
            "digest": self.digest.hex(),
        }


def _chain(previous: bytes, sequence: int, tee_type: int, accepted: bool,
           reason: str, policy_fingerprint: bytes, detail: str) -> bytes:
    return sha256(
        previous
        + sequence.to_bytes(8, "big")
        + bytes([tee_type, 1 if accepted else 0])
        + reason.encode()
        + b"|"
        + policy_fingerprint
        + detail.encode()
    )


class AuditLog:
    """Bounded, hash-chained, append-only record of verdicts."""

    def __init__(self, capacity: int = AUDIT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._sequence = 0
        self._head = _GENESIS

    def record(self, tee_type: int, accepted: bool, reason: str,
               policy_fingerprint: bytes, detail: str = "") -> AuditEntry:
        """Append one decision; returns the chained entry."""
        with self._lock:
            digest = _chain(self._head, self._sequence, tee_type, accepted,
                            reason, policy_fingerprint, detail)
            entry = AuditEntry(
                sequence=self._sequence,
                tee_type=tee_type,
                accepted=accepted,
                reason=reason,
                policy_fingerprint=bytes(policy_fingerprint),
                detail=detail,
                digest=digest,
            )
            self._entries.append(entry)
            self._sequence += 1
            self._head = digest
            return entry

    @property
    def head(self) -> bytes:
        """Chain head over the *entire* history, including dropped entries."""
        with self._lock:
            return self._head

    def __len__(self) -> int:
        with self._lock:
            return self._sequence

    def entries(self) -> List[AuditEntry]:
        """The retained window, oldest first."""
        with self._lock:
            return list(self._entries)

    def tail(self, count: int = 10) -> List[AuditEntry]:
        with self._lock:
            return list(self._entries)[-count:]

    def denials(self) -> List[AuditEntry]:
        return [entry for entry in self.entries() if not entry.accepted]

    def counts_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries():
            counts[entry.reason] = counts.get(entry.reason, 0) + 1
        return counts

    def export(self) -> List[Dict[str, object]]:
        return [entry.to_dict() for entry in self.entries()]


def verify_chain(entries: List[AuditEntry],
                 previous: Optional[bytes] = None) -> bool:
    """Check a contiguous run of entries against its hash chain.

    ``previous`` is the digest preceding the first entry — ``None`` means
    the run starts at the genesis (sequence 0). Detects reordering,
    field tampering and dropped middles; cannot (by design) distinguish a
    shorter-but-valid prefix from the full log, which is what ``head``
    is for.
    """
    if previous is None:
        previous = _GENESIS
    for entry in entries:
        expected = _chain(previous, entry.sequence, entry.tee_type,
                          entry.accepted, entry.reason,
                          entry.policy_fingerprint, entry.detail)
        if expected != entry.digest:
            return False
        previous = entry.digest
    return True
