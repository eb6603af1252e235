"""repro.fleet: a concurrent attestation gateway in front of the verifier.

The paper evaluates one attester against one verifier (§VI-F); this
subsystem grows that into a service: many concurrent attester connections
sharing one verifier TA session, with session lifecycle management, an
appraisal cache for the hot path, explicit backpressure, and observable
metrics. See DESIGN.md, "Fleet gateway".
"""

from repro.fleet.backpressure import AdmissionController, TokenBucket
from repro.fleet.cache import AppraisalCache
from repro.fleet.gateway import (
    FLEET_VERIFIER_UUID,
    AttestationGateway,
    FleetConfig,
    start_fleet_gateway,
)
from repro.fleet.loadgen import (
    AttesterStack,
    HandshakeResult,
    LoadProfile,
    LoadReport,
    MultiTeeStack,
    build_attester_stacks,
    build_mixed_stacks,
    run_load,
    run_one_handshake,
    run_one_handshake_multi,
)
from repro.fleet.metrics import FleetMetrics, LatencyHistogram
from repro.fleet.sessions import SessionEntry, SessionTable

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "AppraisalCache",
    "AttestationGateway",
    "FleetConfig",
    "FLEET_VERIFIER_UUID",
    "start_fleet_gateway",
    "AttesterStack",
    "LoadProfile",
    "LoadReport",
    "HandshakeResult",
    "MultiTeeStack",
    "build_attester_stacks",
    "build_mixed_stacks",
    "run_load",
    "run_one_handshake",
    "run_one_handshake_multi",
    "FleetMetrics",
    "LatencyHistogram",
    "SessionEntry",
    "SessionTable",
]
