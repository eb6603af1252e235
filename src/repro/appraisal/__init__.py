"""Multi-TEE evidence appraisal: pluggable codecs, declarative policy.

WaTZ's verifier appraises exactly one evidence shape — the TrustZone
claims structure its runtime TA emits. A production relying party serves
a heterogeneous fleet: TrustZone boards, Twine-style SGX enclaves and
TDX-style domains all attesting the *same* Wasm module. This package
generalises the appraisal side without touching the native wire format:

* :mod:`~repro.appraisal.envelope` — a versioned self-describing
  envelope (``tee_type`` tag + opaque per-backend body) and the
  :class:`~repro.appraisal.envelope.CodecRegistry` of pluggable codecs;
* :mod:`~repro.appraisal.codecs` — the three built-in backends
  (TrustZone bytes unchanged, SGX-style, TDX-style), each with its own
  signature-verification path over :mod:`repro.crypto`;
* :mod:`~repro.appraisal.policy` — policies as data, compiled to an
  evaluator returning structured verdicts with stable reason codes, plus
  the revocation killswitch (epoch-bumping, fingerprint-scoped);
* :mod:`~repro.appraisal.audit` — the append-only, hash-chained audit
  log of every accept/deny;
* :mod:`~repro.appraisal.engine` — the object tying them together for
  the verifier and the fleet gateway;
* :mod:`~repro.appraisal.synthetic` — synthetic SGX/TDX attester stacks
  so the load generator and the tests can drive mixed-TEE populations.
"""

from repro.appraisal.audit import AuditEntry, AuditLog, verify_chain
from repro.appraisal.engine import TEE_UNKNOWN, AppraisalEngine
from repro.appraisal.envelope import (
    ENVELOPE_HEADER_SIZE,
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    TEE_NAMES,
    TEE_SGX,
    TEE_TDX,
    TEE_TRUSTZONE,
    CodecRegistry,
    decode_envelope,
    default_registry,
    encode_envelope,
    tee_name,
)
from repro.appraisal.policy import (
    AppraisalPolicy,
    PolicyEvaluator,
    Reason,
    TeePolicy,
    Verdict,
)

__all__ = [
    "AppraisalEngine",
    "AppraisalPolicy",
    "AuditEntry",
    "AuditLog",
    "CodecRegistry",
    "ENVELOPE_HEADER_SIZE",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "PolicyEvaluator",
    "Reason",
    "TEE_NAMES",
    "TEE_SGX",
    "TEE_TDX",
    "TEE_TRUSTZONE",
    "TEE_UNKNOWN",
    "TeePolicy",
    "Verdict",
    "decode_envelope",
    "default_registry",
    "encode_envelope",
    "tee_name",
    "verify_chain",
]
