"""The attestation gateway, end to end on the testbed.

Every handshake crosses the real fabric into real verifier TA lanes —
full protocol checks, world-transition costs on the SimClock, secrets
sealed per session. The suite covers the acceptance criteria: concurrent
attesters all verified, protocol streams never cross, a tampered
attester is rejected under load, overload sheds with FleetOverloaded,
the TTL/LRU session table drops stalled handshakes, and a run with
pinned entropy reproduces its wire transcript and SimClock charges.
"""

import hashlib
import os
import threading

import pytest

from repro.core.attester import Attester
from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.errors import (FleetOverloaded, ProtocolError,
                          TeeBadParameters, TeeCommunicationError)
from repro.fleet import (CMD_FLEET_EVICT, CMD_FLEET_MESSAGE,
                         AttestationGateway, FleetConfig, LoadProfile,
                         build_attester_stacks, run_load, run_one_handshake,
                         start_fleet_gateway)
from repro.testbed import Testbed

HOST, PORT = "fleet.verifier", 7700
SECRET = b"fleet secret payload" * 8


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def advance_s(self, seconds):
        self.ns += int(seconds * 1e9)


@pytest.fixture
def fleet(testbed, verifier_identity):
    """A started gateway plus a policy the tests can extend."""
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, PORT, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
        FleetConfig(workers=2),
    )
    yield testbed, gateway, policy, verifier_identity
    gateway.stop()


def test_single_handshake_delivers_the_secret(fleet):
    testbed, gateway, policy, identity = fleet
    stack = build_attester_stacks(testbed, policy, 1)[0]
    result = run_one_handshake(testbed.network, HOST, PORT,
                               identity.public_bytes(), stack)
    assert result.ok, result.error
    assert result.secret_len == len(SECRET)
    assert gateway.metrics.counter("handshakes_completed") == 1


def test_concurrent_attesters_all_verified(fleet):
    testbed, gateway, policy, identity = fleet
    stacks = build_attester_stacks(testbed, policy, 4)
    report = run_load(testbed.network, HOST, PORT, identity.public_bytes(),
                      stacks, LoadProfile(concurrency=4,
                                          handshakes_per_attester=2))
    assert len(report.completed) == 8
    assert not report.failed and not report.rejected
    assert all(r.secret_len == len(SECRET) for r in report.completed)
    assert gateway.metrics.counter("handshakes_completed") == 8
    # Sticky lanes: both lanes of the pool actually served traffic.
    lanes_used = {record.conn_id % 2 for record in gateway.drain_records()}
    assert lanes_used == {0, 1}


def test_interleaved_streams_never_cross(fleet):
    # Drive two handshakes strictly interleaved (msg0/msg0/msg2/msg2) on
    # connections pinned to the same lane as well as different lanes; each
    # attester must get a secret sealed to ITS session keys.
    testbed, gateway, policy, identity = fleet
    stacks = build_attester_stacks(testbed, policy, 2)
    connections = [testbed.network.connect(HOST, PORT) for _ in stacks]
    sessions = []
    for stack, connection in zip(stacks, connections):
        session = stack.attester.start_session(identity.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        sessions.append(session)
    for stack, connection, session in zip(stacks, connections, sessions):
        stack.attester.handle_msg1(session, connection.receive())
    for stack, connection, session in zip(stacks, connections, sessions):
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim, stack.device.attestation_public_key,
            stack.sign_evidence, boot_claim=stack.device.kernel.boot_measurement)
        connection.send(stack.attester.make_msg2(session, signed))
    secrets = [stack.attester.handle_msg3(session, connection.receive())
               for stack, connection, session
               in zip(stacks, connections, sessions)]
    assert secrets == [SECRET, SECRET]
    for connection in connections:
        connection.close()


def test_tampered_attester_rejected_under_load(fleet):
    testbed, gateway, policy, identity = fleet
    trusted = build_attester_stacks(testbed, policy, 3)
    rogue = build_attester_stacks(testbed, policy, 1, trusted=False)[0]
    rogue.index = 3
    report = run_load(testbed.network, HOST, PORT, identity.public_bytes(),
                      trusted + [rogue],
                      LoadProfile(concurrency=4, handshakes_per_attester=1))
    assert len(report.completed) == 3
    assert {r.attester for r in report.completed} == {0, 1, 2}
    assert len(report.failed) == 1
    assert report.failed[0].attester == 3
    assert report.failed[0].error == "MeasurementMismatch"
    assert gateway.metrics.counter("failed_messages") == 1


def test_evidence_replayed_on_another_connection_rejected(fleet):
    # Cross-connection replay: evidence anchored to session A, delivered
    # over connection B, must fail B's anchor check.
    testbed, gateway, policy, identity = fleet
    stacks = build_attester_stacks(testbed, policy, 2)
    conn_a = testbed.network.connect(HOST, PORT)
    conn_b = testbed.network.connect(HOST, PORT)
    sess_a = stacks[0].attester.start_session(identity.public_bytes())
    sess_b = stacks[1].attester.start_session(identity.public_bytes())
    conn_a.send(stacks[0].attester.make_msg0(sess_a))
    conn_b.send(stacks[1].attester.make_msg0(sess_b))
    stacks[0].attester.handle_msg1(sess_a, conn_a.receive())
    stacks[1].attester.handle_msg1(sess_b, conn_b.receive())
    signed_a = stacks[0].attester.collect_evidence(
        sess_a.anchor, stacks[0].claim,
        stacks[0].device.attestation_public_key, stacks[0].sign_evidence,
        boot_claim=stacks[0].device.kernel.boot_measurement)
    # Replay A's msg2 bytes on connection B.
    conn_b.send(stacks[0].attester.make_msg2(sess_a, signed_a))
    with pytest.raises(Exception):
        conn_b.receive()
    conn_a.close()


def test_overload_sheds_with_fleet_overloaded(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7701, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
        FleetConfig(workers=1, rate_per_s=0.0, rate_burst=1),
    )
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        connection = testbed.network.connect(HOST, 7701)
        session = stack.attester.start_session(verifier_identity.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        stack.attester.handle_msg1(session, connection.receive())  # token 1
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim, stack.device.attestation_public_key,
            stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement)
        connection.send(stack.attester.make_msg2(session, signed))
        with pytest.raises(FleetOverloaded):  # bucket is dry, rate 0
            connection.receive()
        snapshot = gateway.snapshot()
        assert snapshot["counters"]["rejected_rate"] >= 1
        assert snapshot["admission"]["rejected_rate"] >= 1
    finally:
        gateway.stop()


def test_stalled_session_expires_and_forfeits_verifier_state(
        testbed, verifier_identity):
    clock = FakeClock()
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = AttestationGateway(
        testbed.network, HOST, 7702, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
        FleetConfig(workers=1, session_ttl_s=30.0), time_source=clock,
    ).start()
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        connection = testbed.network.connect(HOST, 7702)
        session = stack.attester.start_session(verifier_identity.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        stack.attester.handle_msg1(session, connection.receive())
        clock.advance_s(31)  # the attester stalls past the TTL
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim, stack.device.attestation_public_key,
            stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement)
        connection.send(stack.attester.make_msg2(session, signed))
        with pytest.raises(ProtocolError, match="expired"):
            connection.receive()
        assert gateway.sessions.expired == 1
        assert gateway.metrics.counter("sessions_evicted_ttl") == 1
    finally:
        gateway.stop()


def test_session_cap_evicts_oldest_handshake(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7703, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
        FleetConfig(workers=1, max_sessions=2),
    )
    try:
        connections = [testbed.network.connect(HOST, 7703) for _ in range(3)]
        # Opening the third connection evicted the first's session.
        assert gateway.sessions.evicted_lru == 1
        assert gateway.metrics.counter("sessions_evicted_lru") == 1
        connections[0].send(b"\x00")
        with pytest.raises(ProtocolError, match="evicted"):
            connections[0].receive()
    finally:
        gateway.stop()


def test_stop_closes_listener_and_lanes(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7704, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET, FleetConfig(workers=2),
    )
    connection = testbed.network.connect(HOST, 7704)
    gateway.stop()
    with pytest.raises(TeeCommunicationError, match="refused"):
        testbed.network.connect(HOST, 7704)
    with pytest.raises(TeeCommunicationError, match="closed"):
        connection.send(b"\x00")
    gateway.stop()  # idempotent


def test_gateway_rejects_zero_workers(testbed, verifier_identity):
    device = testbed.create_device()
    with pytest.raises(ValueError, match="worker lane"):
        AttestationGateway(testbed.network, HOST, 7705, device.client,
                           testbed.vendor_key, verifier_identity,
                           VerifierPolicy(), lambda: SECRET,
                           FleetConfig(workers=0))


def test_cache_accelerates_reattestation(fleet):
    testbed, gateway, policy, identity = fleet
    stack = build_attester_stacks(testbed, policy, 1)[0]
    for attempt in range(2):
        result = run_one_handshake(testbed.network, HOST, PORT,
                                   identity.public_bytes(), stack, attempt)
        assert result.ok, result.error
    records = gateway.drain_records()
    msg2 = [record for record in records if record.kind == "msg2"]
    assert [record.cache_hit for record in msg2] == [False, True]
    assert gateway.cache.snapshot()["hits"] == 1


# -- crypto prewarm: appraisal precompute outside the device lock -------------


def test_msg2_prewarm_runs_before_appraisal(fleet):
    testbed, gateway, policy, identity = fleet
    stack = build_attester_stacks(testbed, policy, 1)[0]
    result = run_one_handshake(testbed.network, HOST, PORT,
                               identity.public_bytes(), stack)
    assert result.ok, result.error
    # One msg2 arrived, so the worker built the evidence key's wNAF table
    # before taking the secure-monitor lock.
    assert gateway.metrics.counter("crypto_prewarms") == 1
    assert gateway.metrics.counter("handshakes_completed") == 1


def test_prewarm_can_be_disabled(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, PORT + 1, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
        FleetConfig(workers=1, prewarm_crypto=False),
    )
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        result = run_one_handshake(testbed.network, HOST, PORT + 1,
                                   verifier_identity.public_bytes(), stack)
        assert result.ok, result.error
        assert gateway.metrics.counter("crypto_prewarms") == 0
    finally:
        gateway.stop()


def test_prewarm_swallows_malformed_msg2(fleet):
    _, gateway, _, _ = fleet
    # Prewarming is a pure optimisation over untrusted bytes: garbage must
    # neither raise nor count as a prewarm — appraisal rejects it later.
    gateway._prewarm_crypto(b"\x02" + b"\xff" * 40)
    gateway._prewarm_crypto(b"")
    assert gateway.metrics.counter("crypto_prewarms") == 0


# -- transcript determinism ----------------------------------------------------


def _deterministic_rng(label):
    state = {"n": 0}

    def rng(size):
        state["n"] += 1
        out = b""
        while len(out) < size:
            out += hashlib.sha256(
                f"{label}/{state['n']}/{len(out)}".encode()).digest()
        return out[:size]

    return rng


def _run_transcript(identity, port):
    """Two full handshakes (miss then resumption hit), wire bytes captured.

    Every entropy stream is pinned: the gateway board is serial 1 with
    deterministic kernel entropy, the attester board is serial 2, and
    the attester's session RNG is a fixed hash stream.
    """
    testbed = Testbed(deterministic_rng=True)
    device = testbed.create_device()  # serial 1: the gateway board
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, port, device.client, testbed.vendor_key,
        identity, policy, lambda: SECRET, FleetConfig(workers=1))
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        stack.attester = Attester(_deterministic_rng("transcript-attester"))
        wire, secrets = [], []
        for _attempt in range(2):
            connection = testbed.network.connect(HOST, port)
            session = stack.attester.start_session(identity.public_bytes())
            msg0 = stack.attester.make_msg0(session)
            wire.append(msg0)
            connection.send(msg0)
            msg1 = connection.receive()
            wire.append(msg1)
            stack.attester.handle_msg1(session, msg1)
            signed = stack.attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            msg2 = stack.attester.make_msg2(session, signed)
            wire.append(msg2)
            connection.send(msg2)
            msg3 = connection.receive()
            wire.append(msg3)
            secrets.append(stack.attester.handle_msg3(session, msg3))
            connection.close()
        sim = [(r.kind, r.sim_transition_ns, r.cache_hit)
               for r in gateway.drain_records()]
        return wire, sim, secrets
    finally:
        gateway.stop()


def test_transcript_is_identical_across_runs(verifier_identity):
    wire_a, sim_a, secrets_a = _run_transcript(verifier_identity, 7801)
    wire_b, sim_b, secrets_b = _run_transcript(verifier_identity, 7802)
    assert secrets_a == secrets_b == [SECRET, SECRET]
    # Byte-identical wire transcripts: msg0/msg1/msg2/msg3, twice (the
    # second msg2 carries the resumption ticket).
    assert wire_a == wire_b
    # Identical per-message simulated world-transition nanoseconds, and
    # the cache-hit pattern: miss on the first msg2, hit on resume.
    assert sim_a == sim_b
    assert [hit for _, _, hit in sim_a] == [False, False, False, True]


# -- typed params at both verifier TAs ------------------------------------------

#: (case, command, params): each escaped untyped before the TAs checked
#: their params (KeyError / TypeError out of the secure world).
_HOSTILE_VERIFIER_PARAMS = [
    ("no params", CMD_FLEET_MESSAGE, {}),
    ("no data", CMD_FLEET_MESSAGE, {"conn": 1}),
    ("int data", CMD_FLEET_MESSAGE, {"conn": 1, "data": 5}),
    ("list conn", CMD_FLEET_MESSAGE, {"conn": [1], "data": b"\x00"}),
    ("no conn evict", CMD_FLEET_EVICT, {}),
    ("list conn evict", CMD_FLEET_EVICT, {"conn": [1]}),
]


@pytest.mark.parametrize("case,command,params", _HOSTILE_VERIFIER_PARAMS,
                         ids=[case[0] for case in _HOSTILE_VERIFIER_PARAMS])
def test_fleet_lane_rejects_malformed_params_typed(testbed, verifier_identity,
                                                   case, command, params):
    device = testbed.create_device()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7670, device.client, testbed.vendor_key,
        verifier_identity, VerifierPolicy(), lambda: b"secret",
        FleetConfig(workers=1))
    try:
        lane = gateway._lanes[0].session
        with pytest.raises(TeeBadParameters):
            lane.invoke(command, params)
        # The lane survives the refusal.
        assert lane.invoke(CMD_FLEET_EVICT, {"conn": 1}) == {"evicted": 0}
    finally:
        gateway.stop()


@pytest.mark.parametrize("params", [{}, {"data": 5}, {"data": None}])
def test_verifier_ta_rejects_malformed_params_typed(testbed,
                                                    verifier_identity,
                                                    params):
    from repro.core.server import (CMD_HANDLE_MESSAGE, VERIFIER_UUID,
                                   start_verifier)

    device = testbed.create_device()
    start_verifier(testbed.network, HOST, 7671, device.client,
                   testbed.vendor_key, verifier_identity, VerifierPolicy(),
                   lambda: b"secret")
    session = device.client.open_session(VERIFIER_UUID)
    with pytest.raises(TeeBadParameters):
        session.invoke(CMD_HANDLE_MESSAGE, params)
    session.close()
