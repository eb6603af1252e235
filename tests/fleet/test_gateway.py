"""The attestation gateway, end to end on the testbed.

Every handshake crosses the real fabric into the real verifier TA —
full protocol checks, world-transition costs on the SimClock, secrets
sealed per session. The suite covers the acceptance criteria: concurrent
attesters all verified, protocol streams never cross, a tampered
attester is rejected under load, overload sheds with FleetOverloaded at
both admission limits, the TTL/LRU session table drops stalled
handshakes, an unauthenticated msg2 leaves no trace in the normal world,
untrusted type bytes cannot grow the metrics, a run with pinned entropy
reproduces its wire transcript and SimClock charges, each message is
served on the thread that delivered it through one TA session, and an
observed gateway serves overlapping msg2s exactly as an unobserved one.
"""

import hashlib
import threading
import time
from collections import deque
from contextlib import ExitStack

import pytest

from repro.core import protocol
from repro.core.attester import Attester
from repro.core.evidence import Evidence, SignedEvidence
from repro.core.server import CMD_EVICT, CMD_HANDLE_MESSAGE
from repro.core.verifier import VerifierPolicy
from repro.crypto import ec, ecdsa
from repro.errors import (FleetOverloaded, ProtocolError, ReproError,
                          TeeBadParameters, TeeCommunicationError)
from repro.fleet import (FLEET_VERIFIER_UUID, AttestationGateway,
                         FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, run_one_handshake, start_fleet_gateway)
from repro.fleet.gateway import MAX_IN_FLIGHT, MAX_SESSIONS, SESSION_TTL_S
from repro.obs import Tracer
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
    # Every msg2's TA time, the signature verify included, lands in the
    # service-time histogram.
    msg2 = gateway.metrics.histogram("service.msg2")
    assert msg2["count"] == 8
    assert msg2["min"] > 0.0


def test_interleaved_streams_never_cross(fleet):
    # Drive two handshakes strictly interleaved (msg0/msg0/msg2/msg2)
    # through the one TA session; each attester must get a secret sealed
    # to ITS session keys.
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
        FleetConfig(rate_per_s=0.0, rate_burst=1),
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
        verifier_identity, policy, lambda: SECRET, time_source=clock,
    ).start()
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        connection = testbed.network.connect(HOST, 7702)
        session = stack.attester.start_session(verifier_identity.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        stack.attester.handle_msg1(session, connection.receive())
        clock.advance_s(SESSION_TTL_S + 1)  # the attester stalls past the TTL
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim, stack.device.attestation_public_key,
            stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement)
        connection.send(stack.attester.make_msg2(session, signed))
        with pytest.raises(ProtocolError, match="expired"):
            connection.receive()
        assert gateway.sessions.expired == 1
        assert gateway.metrics.counter("sessions_evicted_ttl") == 1
        assert gateway.metrics.counter("failed_messages") == 1
    finally:
        gateway.stop()


def test_session_cap_evicts_oldest_handshake(fleet):
    testbed, gateway, _policy, _identity = fleet
    connections = [testbed.network.connect(HOST, PORT)
                   for _ in range(MAX_SESSIONS)]
    # At the cap, nothing is evicted.
    assert len(gateway.sessions) == MAX_SESSIONS
    assert gateway.sessions.evicted_lru == 0
    # One past the cap evicts the oldest session, and only that one.
    connections.append(testbed.network.connect(HOST, PORT))
    assert len(gateway.sessions) == MAX_SESSIONS
    assert gateway.sessions.evicted_lru == 1
    assert gateway.metrics.counter("sessions_evicted_lru") == 1
    connections[0].send(b"\x00")
    with pytest.raises(ProtocolError, match="evicted"):
        connections[0].receive()
    assert gateway.metrics.counter("failed_messages") == 1
    assert gateway.sessions.evicted_lru == 1
    for connection in connections:
        connection.close()


def test_refused_session_adds_no_service_time(testbed, verifier_identity):
    # A msg0 on an expired session fails before it reaches the verifier
    # TA: it counts in failed_messages but is no service-time sample.
    clock = FakeClock()
    device = testbed.create_device()
    gateway = AttestationGateway(
        testbed.network, HOST, 7708, device.client, testbed.vendor_key,
        verifier_identity, VerifierPolicy(), lambda: SECRET,
        time_source=clock,
    ).start()
    try:
        attester = Attester(_deterministic_rng("refused-service-time"))
        served = testbed.network.connect(HOST, 7708)
        stalled = testbed.network.connect(HOST, 7708)
        session = attester.start_session(verifier_identity.public_bytes())
        served.send(attester.make_msg0(session))
        attester.handle_msg1(session, served.receive())
        clock.advance_s(SESSION_TTL_S + 1)
        stalled.send(attester.make_msg0(
            attester.start_session(verifier_identity.public_bytes())))
        with pytest.raises(ProtocolError, match="expired"):
            stalled.receive()
        histogram = gateway.metrics.histogram("service.msg0")
        assert histogram["count"] == 1 and histogram["min"] > 0
        assert gateway.metrics.counter("failed_messages") == 1
        served.close()
        stalled.close()
    finally:
        gateway.stop()


def test_in_flight_window_sheds_the_message_past_it(fleet):
    # Hold the device lock so admitted msg0s queue in front of the TA:
    # MAX_IN_FLIGHT of them are admitted and wait, the next is shed with
    # reason "queue", and every admitted one completes once the lock is
    # released.
    testbed, gateway, _policy, identity = fleet
    attester = Attester(_deterministic_rng("in-flight-window"))
    handshakes = []
    for _ in range(MAX_IN_FLIGHT + 1):
        session = attester.start_session(identity.public_bytes())
        handshakes.append((session, attester.make_msg0(session),
                           testbed.network.connect(HOST, PORT)))
    replies = [None] * MAX_IN_FLIGHT

    def deliver(index):
        _session, msg0, connection = handshakes[index]
        connection.send(msg0)
        replies[index] = connection.receive()

    threads = [threading.Thread(target=deliver, args=(index,), daemon=True)
               for index in range(MAX_IN_FLIGHT)]
    gateway._device_lock.acquire()
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while gateway.snapshot()["admission"]["in_flight"] < MAX_IN_FLIGHT:
            assert time.monotonic() < deadline, "msg0s were never admitted"
            time.sleep(0.005)
        _session, msg0, connection = handshakes[-1]
        connection.send(msg0)
        with pytest.raises(FleetOverloaded) as rejection:
            connection.receive()
        assert rejection.value.reason == "queue"
    finally:
        gateway._device_lock.release()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    snapshot = gateway.snapshot()
    assert snapshot["admission"]["rejected_queue"] == 1
    assert snapshot["counters"]["rejected_queue"] == 1
    assert snapshot["counters"]["accepted"] == MAX_IN_FLIGHT
    assert snapshot["admission"]["in_flight"] == 0
    for (session, _msg0, _connection), reply in zip(handshakes, replies):
        attester.handle_msg1(session, reply)  # a valid, signed msg1
    assert gateway.metrics.histogram("service.msg0")["count"] == \
        MAX_IN_FLIGHT
    assert gateway.metrics.counter("failed_messages") == 0
    for _session, _msg0, connection in handshakes:
        connection.close()


def test_stop_closes_listener_and_session(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7704, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
    )
    connection = testbed.network.connect(HOST, 7704)
    gateway.stop()
    with pytest.raises(TeeCommunicationError, match="refused"):
        testbed.network.connect(HOST, 7704)
    with pytest.raises(TeeCommunicationError, match="closed"):
        connection.send(b"\x00")
    gateway.stop()  # idempotent


def test_message_after_stop_fails_typed(testbed, verifier_identity):
    # A connection the listener handed out just before stop() delivers
    # its message after the TA session is closed: a typed refusal.
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7705, device.client, testbed.vendor_key,
        verifier_identity, policy, lambda: SECRET,
    )
    service = gateway._new_connection()
    gateway.stop()
    attester = Attester(_deterministic_rng("after-stop"))
    msg0 = attester.make_msg0(
        attester.start_session(verifier_identity.public_bytes()))
    with pytest.raises(ReproError):
        service.on_message(msg0)
    assert gateway.metrics.counter("failed_messages") == 1


def test_cache_accelerates_reattestation(fleet):
    testbed, gateway, policy, identity = fleet
    stack = build_attester_stacks(testbed, policy, 1)[0]
    for attempt in range(2):
        result = run_one_handshake(testbed.network, HOST, PORT,
                                   identity.public_bytes(), stack, attempt)
        assert result.ok, result.error
    # The first msg2 pays the full verify, the resumption hits the cache.
    assert gateway.metrics.histogram("service.msg2_miss")["count"] == 1
    assert gateway.metrics.histogram("service.msg2_hit")["count"] == 1
    assert gateway.cache.snapshot()["hits"] == 1


# -- the trust boundary: the verifier TA alone reads evidence ------------------


def test_unauthenticated_msg2_leaves_the_key_tables_alone(fleet):
    # A msg2 on a fresh connection (no msg0) carrying an unendorsed key,
    # a junk signature and a junk MAC: the verifier TA refuses it, and the
    # gateway did no EC work over the attacker's key on the way in.
    testbed, gateway, _policy, _identity = fleet
    rogue = ecdsa.keypair_from_private(0x0BAD5EED)
    evidence = Evidence(anchor=b"\x11" * 32, claim=b"\x22" * 32,
                        attestation_public_key=rogue.public_bytes())
    msg2 = protocol.encode_msg2(rogue.public_bytes(),
                                SignedEvidence(evidence, b"\x5a" * 64),
                                b"\xa5" * 16)
    # Start below capacity, so an inserted key would show in the count.
    ec.clear_key_table_cache()
    connection = testbed.network.connect(HOST, PORT)
    connection.send(msg2)
    with pytest.raises(ProtocolError, match="without a handshake"):
        connection.receive()
    assert ec.key_table_cache_info()["entries"] == 0
    assert gateway.metrics.counter("failed_messages") == 1


def test_untrusted_type_bytes_share_one_histogram(fleet):
    # 256 one-message connections, one per possible first byte: every one
    # is refused, and the type bytes name no more than a handful of
    # service-time histograms.
    testbed, gateway, _policy, _identity = fleet
    for type_byte in range(256):
        connection = testbed.network.connect(HOST, PORT)
        connection.send(bytes([type_byte]))
        with pytest.raises(ReproError):
            connection.receive()
        connection.close()
    names = [name for name in gateway.snapshot()["latency"]
             if name.startswith("service.")]
    assert len(names) <= 4, names
    assert gateway.metrics.counter("failed_messages") == 256


# -- one TA session, served on the delivering thread ----------------------------


def test_request_runs_on_the_thread_that_receives(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, 7706, device.client, testbed.vendor_key,
            verifier_identity, policy, lambda: SECRET)
        try:
            stack = build_attester_stacks(testbed, policy, 1)[0]
            result = run_one_handshake(testbed.network, HOST, 7706,
                                       verifier_identity.public_bytes(),
                                       stack)
        finally:
            gateway.stop()
    assert result.ok, result.error
    requests = [span for span in tracer.spans()
                if span.name == "fleet.request"]
    assert [span.attrs["kind"] for span in requests] == ["msg0", "msg2"]
    assert {span.thread_id for span in requests} == {threading.get_ident()}


def test_gateway_opens_one_ta_session(testbed, verifier_identity):
    device = testbed.create_device()
    policy = VerifierPolicy()
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, 7707, device.client, testbed.vendor_key,
            verifier_identity, policy, lambda: SECRET, FleetConfig())
        try:
            stacks = build_attester_stacks(testbed, policy, 2)
            report = run_load(testbed.network, HOST, 7707,
                              verifier_identity.public_bytes(), stacks,
                              LoadProfile(concurrency=2,
                                          handshakes_per_attester=1))
        finally:
            gateway.stop()
    assert len(report.completed) == 2
    opens = [span for span in tracer.spans()
             if span.name == "optee.ta.open"]
    assert [span.attrs["ta"] for span in opens] == [FLEET_VERIFIER_UUID]


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
    the attester's session RNG is a fixed hash stream. Each message's
    SimClock ns come from its ``fleet.request`` span, its cache hit from
    the msg2 hit histogram.
    """
    testbed = Testbed(deterministic_rng=True)
    device = testbed.create_device()  # serial 1: the gateway board
    policy = VerifierPolicy()
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        gateway = start_fleet_gateway(
            testbed.network, HOST, port, device.client, testbed.vendor_key,
            identity, policy, lambda: SECRET)
        try:
            wire, cache_hits, secrets = _two_handshakes(
                testbed, gateway, policy, identity, port)
        finally:
            gateway.stop()
    requests = [span for span in tracer.spans()
                if span.name == "fleet.request"]
    assert len(requests) == len(cache_hits)
    sim = [(span.attrs["kind"], span.sim_ns, hit)
           for span, hit in zip(requests, cache_hits)]
    return wire, sim, secrets


def _two_handshakes(testbed, gateway, policy, identity, port):
    """Wire bytes, per-message cache hits and secrets of two handshakes."""
    wire, cache_hits, secrets = [], [], []

    def exchange(connection, message):
        wire.append(message)
        hits = gateway.metrics.histogram("service.msg2_hit")["count"]
        connection.send(message)
        reply = connection.receive()
        wire.append(reply)
        cache_hits.append(
            gateway.metrics.histogram("service.msg2_hit")["count"] > hits)
        return reply

    stack = build_attester_stacks(testbed, policy, 1)[0]
    stack.attester = Attester(_deterministic_rng("transcript-attester"))
    for _attempt in range(2):
        connection = testbed.network.connect(HOST, port)
        session = stack.attester.start_session(identity.public_bytes())
        msg1 = exchange(connection, stack.attester.make_msg0(session))
        stack.attester.handle_msg1(session, msg1)
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim,
            stack.device.attestation_public_key, stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement)
        msg3 = exchange(connection, stack.attester.make_msg2(session, signed))
        secrets.append(stack.attester.handle_msg3(session, msg3))
        connection.close()
    return wire, cache_hits, secrets


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
    assert [kind for kind, _, _ in sim_a] == ["msg0", "msg2"] * 2
    assert [hit for _, _, hit in sim_a] == [False, False, False, True]


# -- observation never changes the served path ---------------------------------


class _FairLock:
    """A FIFO-fair drop-in for the gateway's device lock.

    The verifier draws msg3 IVs and resumption keys from one RNG stream
    in msg2 *service* order, so comparing replies across two runs needs
    that order pinned — a plain ``threading.Lock`` hands contended
    acquisitions to an arbitrary waiter. This lock grants strictly in
    blocking order, and exposes the waiter count so the test can stage
    the threads one at a time.
    """

    def __init__(self):
        self._mutex = threading.Lock()
        self._locked = False
        self._queue = deque()

    def waiters(self):
        with self._mutex:
            return len(self._queue)

    def acquire(self):
        with self._mutex:
            if not self._locked:
                self._locked = True
                return True
            event = threading.Event()
            self._queue.append(event)
        event.wait()
        return True

    def release(self):
        with self._mutex:
            if self._queue:
                self._queue.popleft().set()  # hand off: stays locked
            else:
                self._locked = False

    __enter__ = acquire

    def __exit__(self, *_exc):
        self.release()


def _two_concurrent_msg2(identity, port, tracer=None):
    """Two handshakes with their msg2s forced to overlap, in a pinned order.

    Both handshakes are advanced to post-msg1 sequentially (deterministic
    entropy order). The gateway's device lock is replaced with a
    FIFO-fair one the test holds while starting the sender threads one
    at a time — each is observed blocked on the lock before the next
    starts — so msg2s are always *served* first-then-second. With a
    ``tracer``, the whole run happens while it observes the gateway
    board. Returns the replies, the secrets, the gateway board's SimClock
    movement and the service-time histogram counts.
    """
    testbed = Testbed(deterministic_rng=True)
    device = testbed.create_device()
    policy = VerifierPolicy()
    observing = ExitStack()
    if tracer is not None:
        observing.enter_context(tracer.observe(device.soc))
    sim_before = device.soc.clock.now_ns()
    gateway = start_fleet_gateway(
        testbed.network, HOST, port, device.client, testbed.vendor_key,
        identity, policy, lambda: SECRET)
    try:
        handshakes = []
        for index, stack in enumerate(
                build_attester_stacks(testbed, policy, 2)):
            stack.attester = Attester(_deterministic_rng(f"handshake-{index}"))
            connection = testbed.network.connect(HOST, port)
            session = stack.attester.start_session(identity.public_bytes())
            connection.send(stack.attester.make_msg0(session))
            stack.attester.handle_msg1(session, connection.receive())
            signed = stack.attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            handshakes.append((connection, session, stack,
                               stack.attester.make_msg2(session, signed)))
        replies = [None, None]

        def run(index):
            connection, _session, _stack, msg2 = handshakes[index]
            connection.send(msg2)
            replies[index] = connection.receive()

        fair = gateway._device_lock = _FairLock()
        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(2)]
        with fair:
            for count, thread in enumerate(threads, start=1):
                thread.start()
                deadline = time.monotonic() + 10.0
                while fair.waiters() < count:
                    assert time.monotonic() < deadline, "serve never queued"
                    time.sleep(0.005)
        for thread in threads:
            thread.join(timeout=10.0)
        secrets = [stack.attester.handle_msg3(session, replies[index])
                   for index, (_conn, session, stack, _msg2)
                   in enumerate(handshakes)]
        sim_ns = device.soc.clock.now_ns() - sim_before
        counts = {name: summary["count"] for name, summary
                  in gateway.snapshot()["latency"].items()}
        return replies, secrets, sim_ns, counts
    finally:
        gateway.stop()
        observing.close()


def test_observed_gateway_serves_overlapping_msg2s_unchanged(
        verifier_identity):
    # A trace must show the path that ships: with the gateway board
    # observed, two overlapping msg2s get the same replies, secrets,
    # SimClock charges and service-time counts as the unobserved run.
    tracer = Tracer()
    replies_tr, secrets_tr, sim_tr, counts_tr = _two_concurrent_msg2(
        verifier_identity, 7817, tracer=tracer)
    replies, secrets, sim_ns, counts = _two_concurrent_msg2(
        verifier_identity, 7818)
    assert secrets_tr == secrets == [SECRET, SECRET]
    assert replies_tr == replies
    assert sim_tr == sim_ns
    assert counts_tr == counts
    assert counts["service.msg0"] == counts["service.msg2"] == 2
    kinds = sorted(span.attrs["kind"] for span in tracer.spans()
                   if span.name == "fleet.request")
    assert kinds == ["msg0", "msg0", "msg2", "msg2"]


# -- typed params at the verifier TA ---------------------------------------------

#: (case, command, params): each escaped untyped before the TA checked
#: its params (KeyError / TypeError out of the secure world).
_HOSTILE_VERIFIER_PARAMS = [
    ("no params", CMD_HANDLE_MESSAGE, {}),
    ("no data", CMD_HANDLE_MESSAGE, {"conn": 1}),
    ("int data", CMD_HANDLE_MESSAGE, {"conn": 1, "data": 5}),
    ("list conn", CMD_HANDLE_MESSAGE, {"conn": [1], "data": b"\x00"}),
    ("no conn evict", CMD_EVICT, {}),
    ("list conn evict", CMD_EVICT, {"conn": [1]}),
]


@pytest.mark.parametrize("case,command,params", _HOSTILE_VERIFIER_PARAMS,
                         ids=[case[0] for case in _HOSTILE_VERIFIER_PARAMS])
def test_gateway_ta_rejects_malformed_params_typed(testbed, verifier_identity,
                                                   case, command, params):
    device = testbed.create_device()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7670, device.client, testbed.vendor_key,
        verifier_identity, VerifierPolicy(), lambda: b"secret")
    try:
        session = gateway._session
        with pytest.raises(TeeBadParameters):
            session.invoke(command, params)
        # The session survives the refusal.
        assert session.invoke(CMD_EVICT, {"conn": 1}) == {"evicted": 0}
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
