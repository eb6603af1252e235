"""WaTZ core: runtime TA, WASI-RA, remote-attestation protocol, verifier."""

from repro.core.attester import Attester, AttesterSession
from repro.core.evidence import (
    EVIDENCE_SIZE,
    WATZ_VERSION,
    Evidence,
    SignedEvidence,
)
from repro.core.measurement import Measurement, MeasuringCopier, measure_bytes
from repro.core.runtime import (
    CMD_INVOKE,
    CMD_LOAD,
    CMD_MEASUREMENT,
    CMD_STDOUT,
    CMD_UNLOAD,
    LoadedApp,
    NormalWorldRuntime,
    WatzRuntime,
    watz_manifest,
)
from repro.core.server import (
    CMD_EVICT,
    CMD_HANDLE_MESSAGE,
    VERIFIER_UUID,
    VerifierListener,
    make_verifier_ta,
    start_verifier,
)
from repro.core.transport import ClientConnection, Network, Service
from repro.core.verifier import Verifier, VerifierPolicy, VerifierSession
from repro.core.wasi_ra import WATZ_MODULE, WasiRa, build_wasi_ra_imports

__all__ = [
    "Attester",
    "AttesterSession",
    "Verifier",
    "VerifierPolicy",
    "VerifierSession",
    "Evidence",
    "SignedEvidence",
    "EVIDENCE_SIZE",
    "WATZ_VERSION",
    "Measurement",
    "MeasuringCopier",
    "measure_bytes",
    "WatzRuntime",
    "NormalWorldRuntime",
    "LoadedApp",
    "watz_manifest",
    "CMD_LOAD",
    "CMD_INVOKE",
    "CMD_STDOUT",
    "CMD_MEASUREMENT",
    "CMD_UNLOAD",
    "Network",
    "Service",
    "ClientConnection",
    "start_verifier",
    "make_verifier_ta",
    "VerifierListener",
    "VERIFIER_UUID",
    "CMD_HANDLE_MESSAGE",
    "CMD_EVICT",
    "WasiRa",
    "build_wasi_ra_imports",
    "WATZ_MODULE",
]
