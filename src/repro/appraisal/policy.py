"""The declarative appraisal policy: policies as data, compiled to code.

A relying party serving a heterogeneous fleet expresses what it accepts
*declaratively* — per-TEE accepted measurements, minimum SVNs, a debug
kill rule, key policies, expiry — rather than as imperative checks
scattered through the verifier. The policy is plain data
(:class:`AppraisalPolicy`), deterministically serialisable (the
serialisation is the fingerprint input), and compiled
(:meth:`AppraisalPolicy.compile`) into an evaluator whose verdicts are
structured accept/deny decisions with **stable reason codes**
(:class:`Reason`) — the strings the audit log records and operators
alert on, pinned by test.

The revocation killswitch lives here too: revoking a measurement or an
identity adds it to the deny set *and bumps the policy epoch*. The epoch
is part of the fingerprint, so every fingerprint-scoped consumer — the
gateway's appraisal cache, the resumption tickets it minted —
invalidates on the next message, even if the accept sets are later
restored to an identical state. Un-revoking never resurrects old
tickets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.appraisal.envelope import TEE_TRUSTZONE, tee_name
from repro.crypto.hashing import sha256
from repro.errors import PolicyDenied


class Reason:
    """Stable machine-readable verdict reason codes.

    These strings are an API: the audit log persists them,
    ``PolicyDenied`` carries them as ``reason_code``, and
    ``tests/appraisal/test_policy.py`` pins every value. Add new
    codes freely; never change an existing one.
    """

    OK = "ok"
    TEE_NOT_ACCEPTED = "tee-not-accepted"
    MEASUREMENT_UNKNOWN = "measurement-unknown"
    MEASUREMENT_REVOKED = "measurement-revoked"
    IDENTITY_UNKNOWN = "identity-unknown"
    IDENTITY_REVOKED = "identity-revoked"
    SIGNER_UNKNOWN = "signer-unknown"
    DEBUG_REJECTED = "debug-rejected"
    SVN_BELOW_MINIMUM = "svn-below-minimum"
    VERSION_BELOW_MINIMUM = "version-below-minimum"
    BOOT_UNKNOWN = "boot-unknown"
    POLICY_EXPIRED = "policy-expired"
    SIGNATURE_INVALID = "signature-invalid"
    ENVELOPE_MALFORMED = "envelope-malformed"


@dataclass(frozen=True)
class Verdict:
    """One structured appraisal decision."""

    accepted: bool
    reason: str
    tee_type: int
    detail: str = ""

    def raise_if_denied(self) -> "Verdict":
        if not self.accepted:
            denied = PolicyDenied(self.detail or
                                  f"{tee_name(self.tee_type)} evidence denied",
                                  reason=self.reason)
            # What the audit row records: the verdict's own detail,
            # without the message's "[reason]" suffix.
            denied.detail = self.detail
            raise denied
        return self


@dataclass
class TeePolicy:
    """What one evidence backend must present to be accepted."""

    #: Accepted primary code measurements (claim / MRENCLAVE / MRTD).
    accepted_measurements: Set[bytes] = field(default_factory=set)
    #: Endorsed attestation identities (the quote-signing keys).
    accepted_identities: Set[bytes] = field(default_factory=set)
    #: Accepted signer measurements (MRSIGNER); empty = rule disabled.
    accepted_signers: Set[bytes] = field(default_factory=set)
    #: Accepted boot-chain / RTMR accumulations; empty = rule disabled.
    accepted_boot_measurements: Set[bytes] = field(default_factory=set)
    #: Evidence with an SVN below this is denied.
    minimum_svn: int = 0
    #: Debug-launched enclaves are denied unless explicitly allowed.
    allow_debug: bool = False
    #: Evidence format versions older than this are denied.
    minimum_version: Tuple[int, int] = (0, 0)

    def trust_measurement(self, digest: bytes) -> None:
        self.accepted_measurements.add(bytes(digest))

    def endorse(self, identity: bytes) -> None:
        self.accepted_identities.add(bytes(identity))

    def trust_signer(self, digest: bytes) -> None:
        self.accepted_signers.add(bytes(digest))

    def trust_boot_measurement(self, digest: bytes) -> None:
        self.accepted_boot_measurements.add(bytes(digest))


@dataclass
class AppraisalPolicy:
    """The whole relying-party policy: per-TEE rules + global kill sets."""

    tee: Dict[int, TeePolicy] = field(default_factory=dict)
    #: Killswitch sets: revoked entries deny *regardless of backend*.
    revoked_measurements: Set[bytes] = field(default_factory=set)
    revoked_identities: Set[bytes] = field(default_factory=set)
    #: Bumped by every revocation; part of the fingerprint, so tickets
    #: and caches minted before the bump can never be redeemed after it.
    epoch: int = 0
    #: Policy expiry on the verifier's monotonic clock (ns); evidence
    #: appraised after this instant is denied until the policy is
    #: re-issued. ``None`` disables the rule.
    not_after_ns: Optional[int] = None

    def accept_tee(self, tee_type: int) -> TeePolicy:
        """The backend's rule set, created empty on first touch."""
        if tee_type not in self.tee:
            self.tee[tee_type] = TeePolicy()
        return self.tee[tee_type]

    # -- the killswitch ---------------------------------------------------------

    def revoke_measurement(self, digest: bytes) -> None:
        self.revoked_measurements.add(bytes(digest))
        self.epoch += 1

    def revoke_identity(self, identity: bytes) -> None:
        self.revoked_identities.add(bytes(identity))
        self.epoch += 1

    # -- legacy bridge ----------------------------------------------------------

    @classmethod
    def from_verifier_policy(cls, policy) -> "AppraisalPolicy":
        """Lift a legacy ``VerifierPolicy`` into the TrustZone slot."""
        lifted = cls()
        lifted.tee[TEE_TRUSTZONE] = TeePolicy(
            accepted_measurements=set(policy.reference_values),
            accepted_identities=set(policy.endorsements),
            accepted_boot_measurements=set(policy.trusted_boot_measurements),
            minimum_version=tuple(policy.minimum_version),
        )
        return lifted

    # -- deterministic serialisation -------------------------------------------

    def encode(self) -> bytes:
        """Canonical binary: the fingerprint input."""
        parts = [struct.pack(">QI", self.epoch, len(self.tee))]
        parts.append(struct.pack(">BQ",
                                 0 if self.not_after_ns is None else 1,
                                 self.not_after_ns or 0))
        for tee_type in sorted(self.tee):
            rules = self.tee[tee_type]
            parts.append(struct.pack(">BHBII", tee_type, rules.minimum_svn,
                                     1 if rules.allow_debug else 0,
                                     rules.minimum_version[0],
                                     rules.minimum_version[1]))
            for group in (rules.accepted_measurements,
                          rules.accepted_identities,
                          rules.accepted_signers,
                          rules.accepted_boot_measurements):
                parts.append(_encode_set(group))
        parts.append(_encode_set(self.revoked_measurements))
        parts.append(_encode_set(self.revoked_identities))
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "AppraisalPolicy":
        epoch, tee_count = struct.unpack_from(">QI", blob, 0)
        offset = 12
        has_expiry, not_after = struct.unpack_from(">BQ", blob, offset)
        offset += 9
        policy = cls(epoch=epoch,
                     not_after_ns=not_after if has_expiry else None)
        for _ in range(tee_count):
            tee_type, min_svn, allow_debug, major, minor = \
                struct.unpack_from(">BHBII", blob, offset)
            offset += 12
            groups = []
            for _ in range(4):
                items, offset = _decode_set(blob, offset)
                groups.append(items)
            policy.tee[tee_type] = TeePolicy(
                accepted_measurements=groups[0],
                accepted_identities=groups[1],
                accepted_signers=groups[2],
                accepted_boot_measurements=groups[3],
                minimum_svn=min_svn,
                allow_debug=bool(allow_debug),
                minimum_version=(major, minor),
            )
        policy.revoked_measurements, offset = _decode_set(blob, offset)
        policy.revoked_identities, offset = _decode_set(blob, offset)
        return policy

    def fingerprint(self) -> bytes:
        """Digest of everything an appraisal outcome depends on."""
        return sha256(b"appraisal-policy-v1|" + self.encode())

    def compile(self) -> "PolicyEvaluator":
        return PolicyEvaluator(self)


def _encode_set(group: Set[bytes]) -> bytes:
    members = sorted(bytes(item) for item in group)
    parts = [struct.pack(">I", len(members))]
    for item in members:
        parts.append(struct.pack(">I", len(item)))
        parts.append(item)
    return b"".join(parts)


def _decode_set(blob: bytes, offset: int) -> Tuple[Set[bytes], int]:
    (count,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    items = set()
    for _ in range(count):
        (length,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        items.add(bytes(blob[offset:offset + length]))
        offset += length
    return items, offset


class PolicyEvaluator:
    """A policy compiled for the hot path: frozen sets, fixed rule order.

    The check order is part of the observable contract (a sample failing
    several rules reports the *first* one) and is pinned by test:

    expiry → TEE accepted → measurement revoked → identity revoked →
    measurement known → identity endorsed → signer → debug → SVN →
    version → boot chain.

    Kill rules outrank accept rules so a revocation verdict is never
    masked by a stale accept set.
    """

    def __init__(self, policy: AppraisalPolicy) -> None:
        self.fingerprint = policy.fingerprint()
        self._not_after_ns = policy.not_after_ns
        self._revoked_measurements: FrozenSet[bytes] = \
            frozenset(policy.revoked_measurements)
        self._revoked_identities: FrozenSet[bytes] = \
            frozenset(policy.revoked_identities)
        self._tee: Dict[int, Tuple] = {}
        for tee_type, rules in policy.tee.items():
            self._tee[tee_type] = (
                frozenset(rules.accepted_measurements),
                frozenset(rules.accepted_identities),
                frozenset(rules.accepted_signers),
                frozenset(rules.accepted_boot_measurements),
                rules.minimum_svn,
                rules.allow_debug,
                tuple(rules.minimum_version),
            )

    def evaluate(self, view, now_ns: Optional[int] = None) -> Verdict:
        """Appraise one evidence view; never raises — returns a verdict."""
        tee_type = view.tee_type

        def deny(reason: str, detail: str) -> Verdict:
            return Verdict(False, reason, tee_type, detail)

        if self._not_after_ns is not None and now_ns is not None \
                and now_ns > self._not_after_ns:
            return deny(Reason.POLICY_EXPIRED,
                        "appraisal policy has expired")
        rules = self._tee.get(tee_type)
        if rules is None:
            return deny(Reason.TEE_NOT_ACCEPTED,
                        f"policy accepts no {tee_name(tee_type)} evidence")
        (measurements, identities, signers, boots,
         minimum_svn, allow_debug, minimum_version) = rules
        claim = bytes(view.claim)
        identity = bytes(view.identity)
        if claim in self._revoked_measurements:
            return deny(Reason.MEASUREMENT_REVOKED,
                        f"measurement {claim.hex()[:16]}... is revoked")
        if identity in self._revoked_identities:
            return deny(Reason.IDENTITY_REVOKED,
                        "attestation identity is revoked")
        if claim not in measurements:
            return deny(Reason.MEASUREMENT_UNKNOWN,
                        f"measurement {claim.hex()[:16]}... matches no "
                        "accepted value")
        if identity not in identities:
            return deny(Reason.IDENTITY_UNKNOWN,
                        "attestation identity is not endorsed")
        signer = getattr(view, "signer", None)
        if signers and (signer is None or bytes(signer) not in signers):
            return deny(Reason.SIGNER_UNKNOWN,
                        "signer measurement matches no accepted value")
        if getattr(view, "debug", False) and not allow_debug:
            return deny(Reason.DEBUG_REJECTED,
                        "debug-launched enclaves are not accepted")
        svn = getattr(view, "svn", None)
        if minimum_svn and (svn is None or svn < minimum_svn):
            return deny(Reason.SVN_BELOW_MINIMUM,
                        f"svn {svn} is below the accepted minimum "
                        f"{minimum_svn}")
        if tuple(view.version) < minimum_version:
            return deny(Reason.VERSION_BELOW_MINIMUM,
                        f"evidence version {tuple(view.version)} is below "
                        f"the accepted minimum {minimum_version}")
        boot = getattr(view, "boot_claim", None)
        if boots and (boot is None or bytes(boot) not in boots):
            return deny(Reason.BOOT_UNKNOWN,
                        "boot-chain measurement matches no accepted value")
        return Verdict(True, Reason.OK, tee_type)
