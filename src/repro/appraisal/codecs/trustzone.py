"""The TrustZone evidence codec: WaTZ's native claims, bytes unchanged.

The codec body *is* the :class:`repro.core.evidence.SignedEvidence`
serialisation — the exact structure the seed verifier appraises — so a
TrustZone attester's evidence is identical whether it travels bare in a
legacy msg2 or wrapped in the multi-TEE envelope. The transcript
invariance of the refactored verifier path rests on that.

This module also hosts the TrustZone *appraisal* checks that used to
live inline in :mod:`repro.core.verifier` (version, endorsement, claim,
boot chain), split into the pre-/post-signature halves the seed verifier
runs them in. They raise the seed's exact exception types and messages —
with a stable ``reason_code`` attribute attached for the audit log — so
the refactor is observable-behaviour-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.appraisal.envelope import TEE_TRUSTZONE, encode_envelope
from repro.appraisal.policy import Reason
from repro.core.evidence import EVIDENCE_SIZE, Evidence, SignedEvidence
from repro.errors import EndorsementError, MeasurementMismatch


@dataclass(frozen=True)
class TrustZoneView:
    """Uniform appraisal view over native WaTZ signed evidence."""

    signed: SignedEvidence

    tee_type = TEE_TRUSTZONE

    @property
    def evidence(self) -> Evidence:
        return self.signed.evidence

    @property
    def anchor(self) -> bytes:
        return self.signed.evidence.anchor

    @property
    def claim(self) -> bytes:
        return self.signed.evidence.claim

    @property
    def identity(self) -> bytes:
        return self.signed.evidence.attestation_public_key

    @property
    def boot_claim(self) -> bytes:
        return self.signed.evidence.boot_claim

    @property
    def cache_extra(self) -> bytes:
        return self.signed.evidence.boot_claim

    @property
    def version(self) -> Tuple[int, int]:
        return tuple(self.signed.evidence.version)

    # TrustZone evidence carries neither an SVN ladder nor a debug flag;
    # the policy engine's SVN/debug rules are inert for this backend.
    svn = None
    debug = False
    signer = None

    def encode(self) -> bytes:
        return self.signed.encode()

    def envelope(self) -> bytes:
        return encode_envelope(TEE_TRUSTZONE, self.signed.encode())

    def verify_signature(self) -> None:
        self.signed.verify_signature()


class TrustZoneCodec:
    """Envelope codec wrapping the unchanged native serialisation."""

    tee_type = TEE_TRUSTZONE
    name = "trustzone"

    def decode(self, body: bytes) -> TrustZoneView:
        # SignedEvidence.decode is already strict (typed EvidenceError on
        # any size or magic violation) — the codec adds nothing to it.
        return TrustZoneView(SignedEvidence.decode(body))

    def encode(self, view: TrustZoneView) -> bytes:
        return view.signed.encode()

    @property
    def body_size(self) -> int:
        return EVIDENCE_SIZE


def _deny(exc_class, message: str, reason: str) -> None:
    exc = exc_class(message)
    exc.reason_code = reason
    raise exc


def appraise_pre_signature(policy, evidence: Evidence) -> None:
    """The checks the seed verifier runs *before* the evidence signature.

    ``policy`` is a :class:`repro.core.verifier.VerifierPolicy`. Raises
    the seed's exact exceptions (type and message) on failure.
    """
    if evidence.version < policy.minimum_version:
        _deny(EndorsementError,
              f"runtime version {evidence.version} is below the accepted "
              f"minimum {policy.minimum_version}",
              Reason.VERSION_BELOW_MINIMUM)
    if evidence.attestation_public_key not in policy.endorsements:
        _deny(EndorsementError, "device attestation key is not endorsed",
              Reason.IDENTITY_UNKNOWN)


def appraise_post_signature(policy, evidence: Evidence) -> None:
    """The checks the seed verifier runs *after* the evidence signature."""
    if evidence.claim not in policy.reference_values:
        _deny(MeasurementMismatch,
              f"code measurement {evidence.claim.hex()[:16]}... matches "
              "no reference value",
              Reason.MEASUREMENT_UNKNOWN)
    if policy.trusted_boot_measurements and \
            evidence.boot_claim not in policy.trusted_boot_measurements:
        _deny(MeasurementMismatch,
              "boot-chain measurement matches no trusted value "
              "(possibly hijacked secure boot)",
              Reason.BOOT_UNKNOWN)
