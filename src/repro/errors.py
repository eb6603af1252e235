"""Shared exception hierarchy for the WaTZ reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish faults of this library from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


# --- WebAssembly ----------------------------------------------------------


class WasmError(ReproError):
    """Base class for WebAssembly subsystem errors."""


class DecodeError(WasmError):
    """Malformed or truncated Wasm binary."""


class ValidationError(WasmError):
    """A structurally sound module violates the Wasm validation rules."""


class TrapError(WasmError):
    """A Wasm trap raised during execution (e.g. out-of-bounds access)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class LinkError(WasmError):
    """An import could not be resolved at instantiation time."""


class ExhaustionError(TrapError):
    """Call-stack or fuel exhaustion during execution."""


# --- Compiler (walc) ------------------------------------------------------


class CompileError(ReproError):
    """Base class for walc compiler errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexError(CompileError):
    """Invalid token in walc source."""


class ParseError(CompileError):
    """Invalid syntax in walc source."""


class TypeCheckError(CompileError):
    """Type error in walc source."""


# --- Crypto ---------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A digital signature failed verification."""


class AuthenticationError(CryptoError):
    """A MAC or AEAD tag failed verification."""


# --- Hardware / platform --------------------------------------------------


class HardwareError(ReproError):
    """Base class for simulated-hardware faults."""


class FuseError(HardwareError):
    """Illegal eFuse operation (double programming, read of locked bank)."""


class SecureBootError(HardwareError):
    """The boot chain rejected a stage image."""


class WorldError(HardwareError):
    """Illegal cross-world access or transition."""


# --- OP-TEE ---------------------------------------------------------------


class TeeError(ReproError):
    """Base class for trusted-OS errors (mirrors GP TEE_Result codes)."""

    code = 0xFFFF0000  # TEE_ERROR_GENERIC

    def __init__(self, message: str = "") -> None:
        super().__init__(message or self.__class__.__name__)


class TeeOutOfMemory(TeeError):
    code = 0xFFFF000C


class TeeAccessDenied(TeeError):
    code = 0xFFFF0001


class TeeBadParameters(TeeError):
    code = 0xFFFF0006


class TeeItemNotFound(TeeError):
    code = 0xFFFF0008


class TeeSecurityViolation(TeeError):
    code = 0xFFFF000F


class TeeShortBuffer(TeeError):
    code = 0xFFFF0010


class TeeCommunicationError(TeeError):
    code = 0xFFFF000E


# --- Remote attestation ---------------------------------------------------


class AttestationError(ReproError):
    """Base class for remote-attestation failures."""


class ProtocolError(AttestationError):
    """A protocol message was malformed or arrived out of order."""


class EvidenceError(AttestationError):
    """Evidence construction or verification failed."""


class EndorsementError(AttestationError):
    """The verifier does not endorse the attesting device."""


class MeasurementMismatch(AttestationError):
    """The claimed code measurement matches no reference value."""


# --- Multi-TEE appraisal (repro.appraisal) --------------------------------


class EnvelopeError(EvidenceError):
    """A multi-TEE evidence envelope or codec body failed to parse.

    Raised for truncated bodies, bad magic, unknown ``tee_type`` tags and
    non-canonical field encodings — codec parsing never leaks raw
    ``struct.error``/``IndexError`` to callers.
    """


class PolicyDenied(AttestationError):
    """The declarative appraisal policy denied otherwise-valid evidence.

    ``reason_code`` carries the stable machine-readable verdict reason
    (see :class:`repro.appraisal.policy.Reason`); the message ends with
    it as a ``[reason]`` suffix.
    """

    def __init__(self, message: str = "", reason: str = "denied") -> None:
        suffix = f"[{reason}]"
        if not message:
            message = f"appraisal denied {suffix}"
        elif not message.endswith(suffix):
            message = f"{message} {suffix}"
        super().__init__(message)
        self.reason_code = reason


# --- Fleet gateway --------------------------------------------------------


class FleetError(ReproError):
    """Base class for attestation-gateway errors."""


class FleetOverloaded(FleetError):
    """The gateway shed load instead of queueing without bound.

    ``reason`` distinguishes token-bucket rate limiting (``"rate"``) from
    a full accept queue (``"queue"``).
    """

    def __init__(self, message: str = "", reason: str = "queue") -> None:
        super().__init__(message or f"gateway overloaded ({reason})")
        self.reason = reason


# --- Formal verification --------------------------------------------------


class FormalError(ReproError):
    """Base class for protocol-model errors."""


class AttackFound(FormalError):
    """The checker found a concrete attack trace on a claimed property."""

    def __init__(self, claim: str, trace: list) -> None:
        super().__init__(f"attack found on claim {claim!r}")
        self.claim = claim
        self.trace = trace


# --- Workloads ------------------------------------------------------------


class WorkloadError(ReproError):
    """Base class for workload/benchmark errors."""


class SqlError(WorkloadError):
    """SQL parse or execution error in the mini database."""
