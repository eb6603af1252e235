"""Load generation for the fleet gateway.

:func:`run_load` drives N concurrent attester stacks — each a fresh
testbed device with its own SoC, kernel attestation service and protocol
engine — through full RA handshakes and secret delivery over real
threads. Every crypto segment is measured in real ``perf_counter``
seconds; every world transition lands on the attester's (and the gateway
device's) ``SimClock`` (DESIGN.md, "Clock discipline").
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.errors import FleetOverloaded, ReproError
from repro.bench.harness import percentile


@dataclass
class AttesterStack:
    """One attesting board: device + protocol engine + measured claim."""

    index: int
    device: object  # repro.testbed.Device
    attester: Attester
    claim: bytes

    def sign_evidence(self, body: bytes) -> bytes:
        """Sign through the kernel attestation service, as the runtime TA
        would: the call only exists in the secure world, so it pays the
        world transition on this board's own clock."""
        with self.device.soc.enter_secure_world():
            return self.device.kernel.attestation_service.sign_evidence(body)


def build_attester_stacks(testbed, policy, count: int,
                          claim: Optional[bytes] = None,
                          trusted: bool = True) -> List[AttesterStack]:
    """Manufacture ``count`` fresh attester boards and endorse them.

    ``trusted=False`` builds stacks whose measurement is *not* added to
    the reference values — attesters that must be rejected.
    """
    if claim is None:
        label = b"fleet attested application v1" if trusted \
            else b"fleet tampered application"
        claim = measure_bytes(label).digest
    if trusted:
        policy.trust_measurement(claim)
    stacks = []
    for _ in range(count):
        device = testbed.create_device()
        policy.endorse(device.attestation_public_key)
        if trusted:
            policy.trust_boot_measurement(device.kernel.boot_measurement)
        stacks.append(AttesterStack(
            index=len(stacks),
            device=device,
            attester=Attester(os.urandom),
            claim=claim,
        ))
    return stacks


@dataclass
class MultiTeeStack:
    """One heterogeneous-fleet attester: an evidence backend + protocol.

    The protocol engine is the unchanged :class:`Attester` — the
    multi-TEE message variants are backend-agnostic — while the evidence
    itself comes from either a TrustZone testbed board (``device``) or a
    synthetic SGX/TDX device (``enclave``). Exactly one of the two is
    set.
    """

    index: int
    tee_type: int
    attester: Attester
    claim: bytes
    device: object = None   # repro.testbed.Device (TrustZone)
    enclave: object = None  # repro.appraisal.synthetic device (SGX/TDX)

    def collect_view(self, anchor: bytes):
        """Produce this backend's evidence view for a session anchor."""
        if self.enclave is not None:
            return self.enclave.collect_evidence(anchor)
        from repro.appraisal.codecs.trustzone import TrustZoneView

        signed = self.attester.collect_evidence(
            anchor, self.claim, self.device.attestation_public_key,
            self._sign_evidence,
            boot_claim=self.device.kernel.boot_measurement,
        )
        return TrustZoneView(signed)

    def _sign_evidence(self, body: bytes) -> bytes:
        with self.device.soc.enter_secure_world():
            return self.device.kernel.attestation_service.sign_evidence(body)


def build_mixed_stacks(testbed, appraisal, population: Sequence[int],
                       claim: Optional[bytes] = None,
                       trusted: bool = True) -> List["MultiTeeStack"]:
    """Manufacture a heterogeneous attester population and provision it.

    ``population`` is a sequence of envelope TEE tags (one stack per
    entry); ``appraisal`` is the :class:`repro.appraisal.AppraisalPolicy`
    the fleet's engine enforces, which this provisions in place: every
    backend presents the *same* Wasm measurement (``claim``; the MRTD is
    its fixed widening), so one logical reference value covers the whole
    fleet. ``trusted=False`` skips the provisioning — attesters the
    policy must deny.
    """
    from repro.appraisal import synthetic
    from repro.appraisal.envelope import TEE_SGX, TEE_TDX, TEE_TRUSTZONE

    if claim is None:
        label = b"fleet attested application v1" if trusted \
            else b"fleet tampered application"
        claim = measure_bytes(label).digest
    stacks: List[MultiTeeStack] = []
    for tee_type in population:
        index = len(stacks)
        device = None
        enclave = None
        if tee_type == TEE_TRUSTZONE:
            device = testbed.create_device()
            if trusted:
                tee = appraisal.accept_tee(TEE_TRUSTZONE)
                tee.trust_measurement(claim)
                tee.endorse(device.attestation_public_key)
                tee.trust_boot_measurement(device.kernel.boot_measurement)
        elif tee_type == TEE_SGX:
            enclave = synthetic.sgx_enclave(index, claim)
            if trusted:
                tee = appraisal.accept_tee(TEE_SGX)
                tee.trust_measurement(enclave.mrenclave)
                tee.endorse(enclave.attestation_public_key)
                tee.trust_signer(enclave.mrsigner)
        elif tee_type == TEE_TDX:
            enclave = synthetic.tdx_domain(index, claim)
            if trusted:
                tee = appraisal.accept_tee(TEE_TDX)
                tee.trust_measurement(enclave.mrtd)
                tee.endorse(enclave.attestation_public_key)
        else:
            raise ValueError(f"unknown tee_type {tee_type:#04x}")
        stacks.append(MultiTeeStack(
            index=index,
            tee_type=tee_type,
            attester=Attester(os.urandom),
            claim=claim,
            device=device,
            enclave=enclave,
        ))
    return stacks


@dataclass(frozen=True)
class LoadProfile:
    """What the load generator drives."""

    concurrency: int = 4
    handshakes_per_attester: int = 2
    blob_size: int = 4 * 1024


@dataclass
class HandshakeResult:
    """Outcome and real-time breakdown of one attempted handshake."""

    attester: int
    index: int
    ok: bool
    rejected: bool = False
    error: str = ""
    secret_len: int = 0
    #: Real perf_counter seconds per segment: client_pre (keygen + msg0),
    #: wait_msg1 (includes the gateway's msg0 service), client_mid (msg1
    #: checks + evidence signing + msg2 build), wait_msg3 (includes the
    #: gateway's msg2 appraisal), client_post (msg3 decrypt), total.
    segments: Dict[str, float] = field(default_factory=dict)


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    profile: LoadProfile
    results: List[HandshakeResult]
    wall_seconds: float

    @property
    def completed(self) -> List[HandshakeResult]:
        return [r for r in self.results if r.ok]

    @property
    def rejected(self) -> List[HandshakeResult]:
        return [r for r in self.results if r.rejected]

    @property
    def failed(self) -> List[HandshakeResult]:
        return [r for r in self.results if not r.ok and not r.rejected]

    @property
    def throughput_hz(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.completed) / self.wall_seconds

    def latency_percentiles(self) -> Dict[str, float]:
        totals = [r.segments["total"] for r in self.completed]
        if not totals:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": percentile(totals, 0.50),
            "p95": percentile(totals, 0.95),
            "p99": percentile(totals, 0.99),
        }


def _drive_handshake(network, host: str, port: int, identity_public: bytes,
                     stack, attempt: int, make_msg0, make_msg2
                     ) -> HandshakeResult:
    """One handshake + secret delivery, timed segment by segment.

    ``make_msg0(session)`` and ``make_msg2(session)`` build the attester's
    two messages; everything else is the same for every message variant.
    """
    result = HandshakeResult(attester=stack.index, index=attempt, ok=False)
    segments = result.segments
    total_start = time.perf_counter()
    try:
        connection = network.connect(host, port)
    except ReproError as exc:
        result.error = type(exc).__name__
        return result
    try:
        started = time.perf_counter()
        session = stack.attester.start_session(identity_public)
        connection.send(make_msg0(session))
        segments["client_pre"] = time.perf_counter() - started

        started = time.perf_counter()
        msg1 = connection.receive()
        segments["wait_msg1"] = time.perf_counter() - started

        started = time.perf_counter()
        stack.attester.handle_msg1(session, msg1)
        connection.send(make_msg2(session))
        segments["client_mid"] = time.perf_counter() - started

        started = time.perf_counter()
        msg3 = connection.receive()
        segments["wait_msg3"] = time.perf_counter() - started

        started = time.perf_counter()
        secret = stack.attester.handle_msg3(session, msg3)
        segments["client_post"] = time.perf_counter() - started

        result.ok = True
        result.secret_len = len(secret)
    except FleetOverloaded:
        result.rejected = True
        result.error = "FleetOverloaded"
    except ReproError as exc:
        result.error = type(exc).__name__
    finally:
        segments["total"] = time.perf_counter() - total_start
        try:
            connection.close()
        except ReproError:
            pass
    return result


def run_one_handshake(network, host: str, port: int,
                      identity_public: bytes, stack: AttesterStack,
                      attempt: int = 0) -> HandshakeResult:
    """Drive one full RA handshake + secret delivery over the network."""
    attester = stack.attester

    def make_msg2(session):
        signed = attester.collect_evidence(
            session.anchor, stack.claim,
            stack.device.attestation_public_key, stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement,
        )
        return attester.make_msg2(session, signed)

    return _drive_handshake(network, host, port, identity_public, stack,
                            attempt, attester.make_msg0, make_msg2)


def run_one_handshake_multi(network, host: str, port: int,
                            identity_public: bytes, stack: MultiTeeStack,
                            attempt: int = 0) -> HandshakeResult:
    """One multi-TEE handshake: envelope-framed evidence, any backend.

    Same segment breakdown as :func:`run_one_handshake`; the transcript
    differs only in the message variants (msg0/1/2 carry the negotiated
    ``tee_type``, the evidence travels in a self-describing envelope).
    """
    attester = stack.attester
    return _drive_handshake(
        network, host, port, identity_public, stack, attempt,
        lambda session: attester.make_msg0_multi(session, stack.tee_type),
        lambda session: attester.make_msg2_multi(
            session, stack.collect_view(session.anchor)))


def run_load(network, host: str, port: int, identity_public: bytes,
             stacks: Sequence[AttesterStack],
             profile: LoadProfile) -> LoadReport:
    """Drive every stack through its handshakes on concurrent threads.

    Accepts legacy :class:`AttesterStack` and :class:`MultiTeeStack`
    entries in the same population — mixed fleets are one run.
    """
    if len(stacks) < profile.concurrency:
        raise ValueError("not enough attester stacks for the concurrency")
    active = list(stacks)[: profile.concurrency]
    results: List[HandshakeResult] = []
    results_lock = threading.Lock()
    barrier = threading.Barrier(len(active))

    def drive(stack) -> None:
        runner = run_one_handshake_multi \
            if isinstance(stack, MultiTeeStack) else run_one_handshake
        barrier.wait()
        for attempt in range(profile.handshakes_per_attester):
            outcome = runner(network, host, port,
                             identity_public, stack, attempt)
            with results_lock:
                results.append(outcome)

    threads = [threading.Thread(target=drive, args=(stack,), daemon=True)
               for stack in active]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - wall_start
    return LoadReport(profile=profile, results=results,
                      wall_seconds=wall_seconds)

