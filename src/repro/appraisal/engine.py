"""The appraisal engine: codec registry + compiled policy + audit trail.

One engine object is what a relying party actually holds: it decodes
self-describing evidence envelopes through the pluggable codec registry,
appraises the resulting view against the compiled declarative policy,
and records every decision — accepts and denies alike — in the
append-only audit log. The verifier and the fleet gateway consume it
through three calls: :meth:`decode`, :meth:`appraise`, :meth:`record`.

The engine's policy is live state: the revocation killswitch mutates it
(:meth:`revoke_measurement` / :meth:`revoke_identity`), which bumps the
policy epoch and therefore the fingerprint. The evaluator recompiles
lazily on the next use, and every fingerprint-scoped consumer — the
gateway's appraisal cache, the resumption tickets it minted —
invalidates on its next message without any eager fan-out call.
"""

from __future__ import annotations

from typing import Optional

from repro.appraisal.audit import AuditLog
from repro.appraisal.envelope import (
    CodecRegistry,
    decode_envelope,
    default_registry,
)
from repro.appraisal.policy import (
    AppraisalPolicy,
    PolicyEvaluator,
    Reason,
    Verdict,
)
from repro.errors import EnvelopeError

#: Audit tag for evidence denied before its backend could be identified.
TEE_UNKNOWN = 0x00


class AppraisalEngine:
    """Decode, appraise and audit multi-TEE evidence."""

    def __init__(self, policy: AppraisalPolicy,
                 registry: Optional[CodecRegistry] = None,
                 audit: Optional[AuditLog] = None) -> None:
        self.policy = policy
        self.registry = registry or default_registry()
        self.audit = audit or AuditLog()
        self._evaluator: PolicyEvaluator = policy.compile()

    # -- policy lifecycle -------------------------------------------------------

    def fingerprint(self) -> bytes:
        """The live policy fingerprint (recomputed; policy may mutate)."""
        return self.policy.fingerprint()

    def evaluator(self) -> PolicyEvaluator:
        """The compiled policy, recompiled lazily after any mutation."""
        fingerprint = self.policy.fingerprint()
        if fingerprint != self._evaluator.fingerprint:
            self._evaluator = self.policy.compile()
        return self._evaluator

    def revoke_measurement(self, digest: bytes) -> None:
        """Killswitch: deny this measurement fleet-wide from now on."""
        self.policy.revoke_measurement(digest)

    def revoke_identity(self, identity: bytes) -> None:
        """Killswitch: deny this attestation identity fleet-wide."""
        self.policy.revoke_identity(identity)

    # -- the three verbs --------------------------------------------------------

    def decode(self, data: bytes):
        """Envelope bytes -> typed evidence view.

        A malformed envelope or body is itself an appraisal outcome: it
        is audited (reason ``envelope-malformed``) before the typed
        :class:`~repro.errors.EnvelopeError` propagates.
        """
        try:
            tee_type, body = decode_envelope(data)
        except EnvelopeError as exc:
            self.record(TEE_UNKNOWN, False, Reason.ENVELOPE_MALFORMED,
                        str(exc))
            raise
        try:
            return self.registry.get(tee_type).decode(body)
        except EnvelopeError as exc:
            self.record(tee_type, False, Reason.ENVELOPE_MALFORMED,
                        str(exc))
            raise

    def appraise(self, view, now_ns: Optional[int] = None) -> Verdict:
        """Evaluate the policy over a decoded view; audited either way."""
        verdict = self.evaluator().evaluate(view, now_ns=now_ns)
        self.record(verdict.tee_type, verdict.accepted, verdict.reason,
                    verdict.detail)
        return verdict

    def record(self, tee_type: int, accepted: bool, reason: str,
               detail: str = "") -> None:
        """Audit one decision under the current policy fingerprint.

        Also the hook the *legacy* TrustZone verifier path calls, so a
        single-TEE deployment gets the same audit trail as the
        envelope path.
        """
        self.audit.record(tee_type, accepted, reason,
                          self.policy.fingerprint(), detail)
