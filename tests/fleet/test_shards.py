"""The process-sharded gateway, end to end on the testbed.

Covers the tentpole's acceptance criteria: handshakes complete across
real shard processes, session affinity pins a connection's messages to
one shard, behaviour is *invariant* with the threaded gateway (byte-
identical protocol transcripts, identical per-message SimClock
nanoseconds, same ``FleetOverloaded`` semantics), the per-shard queue is
bounded, and a shard crash mid-handshake never wedges the gateway — the
orphaned session is evicted with a distinct reason, the supervisor
respawns the worker, and the attester's retry from msg0 succeeds.
"""

import hashlib
import os
import signal
import time

import pytest

from repro.core.attester import Attester
from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.errors import (FleetOverloaded, FleetShardCrashed, ProtocolError,
                          TeeCommunicationError)
from repro.fleet import (FleetConfig, LoadProfile, ShardedGateway,
                         build_attester_stacks, run_load, run_one_handshake,
                         start_fleet_gateway)
from repro.fleet.shards import (decode_policy_into, encode_policy,
                                CRASH_EVICT_REASON)
from repro.testbed import Testbed

HOST = "fleet.verifier"
SECRET = b"sharded fleet secret" * 8
IDENTITY = ecdsa.keypair_from_private(0xB00B1E5 + 12345)


def _start_sharded(testbed, policy, port, **overrides):
    defaults = dict(shards=2, heartbeat_interval_s=0.05,
                    heartbeat_timeout_s=1.0)
    defaults.update(overrides)
    return start_fleet_gateway(
        testbed.network, HOST, port, None, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET, FleetConfig(**defaults),
    )


@pytest.fixture
def sharded():
    # Shard boards take serials 1..N; the attester boards built from this
    # testbed start above them so serials never collide.
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7800)
    yield testbed, gateway, policy
    gateway.stop()


def _wait_for(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# -- end to end ---------------------------------------------------------------


def test_concurrent_handshakes_across_shards(sharded):
    testbed, gateway, policy = sharded
    stacks = build_attester_stacks(testbed, policy, 4)
    report = run_load(testbed.network, HOST, 7800, IDENTITY.public_bytes(),
                      stacks, LoadProfile(concurrency=4,
                                          handshakes_per_attester=2))
    assert len(report.completed) == 8
    assert not report.failed and not report.rejected
    assert all(r.secret_len == len(SECRET) for r in report.completed)
    # Both shards actually served traffic (affinity is conn_id % shards).
    shards_used = {record.conn_id % 2 for record in gateway.drain_records()}
    assert shards_used == {0, 1}
    snapshot = gateway.snapshot()
    assert snapshot["counters"]["handshakes_completed"] == 8
    assert snapshot["shards"]["count"] == 2
    assert snapshot["shards"]["respawns"] == 0
    assert all(entry["alive"] for entry in snapshot["shards"]["per_shard"])


def test_reattestation_hits_the_shard_cache():
    # Appraisal caches are per shard (they live next to the verifier
    # state they memoise): a resumption ticket only hits when affinity
    # routes the re-attestation to the shard that stored it. One shard
    # makes that deterministic here; DESIGN.md §10 discusses the
    # partitioned-cache consequence for larger pools.
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7808, shards=1)
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        for attempt in range(2):
            result = run_one_handshake(testbed.network, HOST, 7808,
                                       IDENTITY.public_bytes(), stack,
                                       attempt)
            assert result.ok, result.error
        msg2 = [r for r in gateway.drain_records() if r.kind == "msg2"]
        assert [r.cache_hit for r in msg2] == [False, True]
        cache = gateway.snapshot()["cache"]
        assert cache["hits"] == 1 and cache["misses"] == 1
    finally:
        gateway.stop()


def test_rogue_attester_rejected_with_original_error_type(sharded):
    # The shard's appraisal failure crosses the IPC boundary and
    # resurfaces as the *same* exception type the threaded gateway raises.
    testbed, gateway, policy = sharded
    trusted = build_attester_stacks(testbed, policy, 1)
    rogue = build_attester_stacks(testbed, policy, 1, trusted=False)[0]
    rogue.index = 1
    report = run_load(testbed.network, HOST, 7800, IDENTITY.public_bytes(),
                      trusted + [rogue],
                      LoadProfile(concurrency=2, handshakes_per_attester=1))
    assert len(report.completed) == 1
    assert len(report.failed) == 1
    assert report.failed[0].error == "MeasurementMismatch"
    assert gateway.metrics.counter("failed_messages") == 1


def test_policy_mutations_reach_running_shards(sharded):
    # Endorsing a new attester *after* the shards booted must propagate
    # (lazily, fingerprint-gated) before its first message is appraised.
    testbed, gateway, policy = sharded
    first = build_attester_stacks(testbed, policy, 1)[0]
    assert run_one_handshake(testbed.network, HOST, 7800,
                             IDENTITY.public_bytes(), first).ok
    late = build_attester_stacks(testbed, policy, 1)[0]
    late.index = 1
    result = run_one_handshake(testbed.network, HOST, 7800,
                               IDENTITY.public_bytes(), late)
    assert result.ok, result.error
    # One sync per shard per distinct fingerprint, not one per message.
    assert 1 <= gateway.metrics.counter("shard_policy_syncs") <= 4


def test_policy_codec_roundtrip():
    policy = VerifierPolicy()
    policy.endorse(b"\x04" + b"\x01" * 64)
    policy.trust_measurement(b"\x22" * 32)
    policy.trust_boot_measurement(b"\x33" * 32)
    policy.minimum_version = (2, 7)
    clone = VerifierPolicy()
    decode_policy_into(clone, encode_policy(policy))
    assert clone.endorsements == policy.endorsements
    assert clone.reference_values == policy.reference_values
    assert clone.trusted_boot_measurements == policy.trusted_boot_measurements
    assert clone.minimum_version == (2, 7)


# -- behaviour invariance with the threaded gateway ---------------------------


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


def _run_transcript(sharded_mode, port):
    """Two full handshakes (miss then resumption hit), wire bytes captured.

    Both runs pin every entropy stream: the verifier board is serial 1
    with deterministic kernel entropy (in-process for the threaded
    gateway, rebuilt inside the shard for the sharded one), the attester
    board is serial 2, and the attester's session RNG is a fixed hash
    stream.
    """
    if sharded_mode:
        testbed = Testbed(deterministic_rng=True, first_serial=2)
        policy = VerifierPolicy()
        gateway = start_fleet_gateway(
            testbed.network, HOST, port, None, testbed.vendor_key,
            IDENTITY, policy, lambda: SECRET,
            FleetConfig(shards=1, shard_base_serial=1,
                        shard_deterministic_rng=True),
        )
    else:
        testbed = Testbed(deterministic_rng=True)
        device = testbed.create_device()  # serial 1: the gateway board
        policy = VerifierPolicy()
        gateway = start_fleet_gateway(
            testbed.network, HOST, port, device.client, testbed.vendor_key,
            IDENTITY, policy, lambda: SECRET, FleetConfig(workers=1),
        )
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        stack.attester = Attester(_deterministic_rng("invariance-attester"))
        wire, secrets = [], []
        for _attempt in range(2):
            connection = testbed.network.connect(HOST, port)
            session = stack.attester.start_session(IDENTITY.public_bytes())
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


def test_sharded_transcript_is_byte_identical_to_threaded():
    wire_threaded, sim_threaded, secrets_threaded = _run_transcript(False,
                                                                    7801)
    wire_sharded, sim_sharded, secrets_sharded = _run_transcript(True, 7802)
    assert secrets_threaded == secrets_sharded == [SECRET, SECRET]
    # Byte-identical wire transcripts: msg0/msg1/msg2/msg3, twice (the
    # second msg2 carries the resumption ticket).
    assert wire_threaded == wire_sharded
    # Identical per-message simulated world-transition nanoseconds, and
    # the same cache-hit pattern: miss on the first msg2, hit on resume.
    assert sim_threaded == sim_sharded
    assert [hit for _, _, hit in sim_threaded] == [False, False, False, True]


def test_overload_sheds_identically_to_threaded():
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7803, shards=1,
                             rate_per_s=0.0, rate_burst=1)
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        connection = testbed.network.connect(HOST, 7803)
        session = stack.attester.start_session(IDENTITY.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        stack.attester.handle_msg1(session, connection.receive())  # token 1
        signed = stack.attester.collect_evidence(
            session.anchor, stack.claim, stack.device.attestation_public_key,
            stack.sign_evidence,
            boot_claim=stack.device.kernel.boot_measurement)
        connection.send(stack.attester.make_msg2(session, signed))
        with pytest.raises(FleetOverloaded):
            connection.receive()
        snapshot = gateway.snapshot()
        assert snapshot["counters"]["rejected_rate"] >= 1
        assert snapshot["admission"]["rejected_rate"] >= 1
    finally:
        gateway.stop()


def test_full_shard_queue_sheds_with_fleet_overloaded(sharded):
    testbed, gateway, policy = sharded
    stack = build_attester_stacks(testbed, policy, 1)[0]
    connection = testbed.network.connect(HOST, 7800)
    conn_id = gateway._conn_counter
    handle = gateway._shards[conn_id % 2]
    # Deterministically saturate the shard's bounded queue, then deliver.
    depth = 0
    while handle.try_enter():
        depth += 1
    assert depth == gateway.config.max_in_flight  # default sizing
    try:
        session = stack.attester.start_session(IDENTITY.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        with pytest.raises(FleetOverloaded):
            connection.receive()
    finally:
        for _ in range(depth):
            handle.leave()
        connection.close()
    assert gateway.metrics.counter("rejected_shard_queue") == 1
    assert gateway.metrics.counter("rejected_queue") == 1


# -- supervision and fault injection ------------------------------------------


def test_shard_killed_mid_handshake_recovers(sharded):
    """The headline fault injection: SIGKILL between msg1 and msg2.

    The gateway must stay up, evict the orphaned session with the
    distinct ``shard_crash`` reason, respawn the worker, fail the stale
    msg2 cleanly, and serve a full retry from msg0 on the fresh shard.
    """
    testbed, gateway, policy = sharded
    stack = build_attester_stacks(testbed, policy, 1)[0]
    connection = testbed.network.connect(HOST, 7800)
    victim_shard = gateway._conn_counter % 2
    session = stack.attester.start_session(IDENTITY.public_bytes())
    connection.send(stack.attester.make_msg0(session))
    stack.attester.handle_msg1(session, connection.receive())
    # Kill the worker holding this handshake's protocol state.
    gateway._shards[victim_shard].channel.process.kill()
    assert _wait_for(lambda: gateway.metrics.counter("shard_respawns") >= 1)
    assert gateway.metrics.counter(
        f"sessions_evicted_{CRASH_EVICT_REASON}") == 1
    # The stale msg2 fails cleanly — the session was invalidated.
    signed = stack.attester.collect_evidence(
        session.anchor, stack.claim, stack.device.attestation_public_key,
        stack.sign_evidence, boot_claim=stack.device.kernel.boot_measurement)
    connection.send(stack.attester.make_msg2(session, signed))
    with pytest.raises(ProtocolError, match="expired or was evicted"):
        connection.receive()
    connection.close()
    # Retry from msg0, forced onto the *respawned* shard.
    while (gateway._conn_counter + 1) % 2 != victim_shard:
        testbed.network.connect(HOST, 7800).close()
    result = run_one_handshake(testbed.network, HOST, 7800,
                               IDENTITY.public_bytes(), stack)
    assert result.ok, result.error
    snapshot = gateway.snapshot()
    assert snapshot["shards"]["per_shard"][victim_shard]["respawns"] == 1
    assert snapshot["counters"]["shard_respawns_death"] == 1
    assert all(entry["alive"] for entry in snapshot["shards"]["per_shard"])


def test_message_in_flight_when_shard_dies_fails_cleanly():
    # With supervision effectively disabled, the router itself must turn
    # a dead channel into FleetShardCrashed for the in-flight message.
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7804, shards=1,
                             heartbeat_interval_s=60.0)
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        gateway._shards[0].channel.process.kill()
        assert _wait_for(lambda: gateway._shards[0].channel.down.is_set())
        connection = testbed.network.connect(HOST, 7804)
        session = stack.attester.start_session(IDENTITY.public_bytes())
        connection.send(stack.attester.make_msg0(session))
        with pytest.raises(FleetShardCrashed):
            connection.receive()
        assert gateway.metrics.counter("failed_messages") == 1
        # Manual respawn (the supervisor is parked): service resumes.
        gateway._respawn(gateway._shards[0], "death")
        result = run_one_handshake(testbed.network, HOST, 7804,
                                   IDENTITY.public_bytes(), stack)
        assert result.ok, result.error
    finally:
        gateway.stop()


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP to wedge a process")
def test_wedged_shard_is_detected_and_respawned():
    # A shard that is alive but unresponsive (stopped, or stuck in C
    # code) must trip the heartbeat timeout, not hang the gateway.
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7805, shards=1,
                             heartbeat_interval_s=0.05,
                             heartbeat_timeout_s=0.3)
    try:
        victim = gateway._shards[0].channel.process
        os.kill(victim.pid, signal.SIGSTOP)
        try:
            assert _wait_for(
                lambda: gateway.metrics.counter("shard_respawns") >= 1,
                timeout_s=15.0)
        finally:
            try:
                os.kill(victim.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert gateway.metrics.counter("shard_respawns_wedged") == 1
        stack = build_attester_stacks(testbed, policy, 1)[0]
        result = run_one_handshake(testbed.network, HOST, 7805,
                                   IDENTITY.public_bytes(), stack)
        assert result.ok, result.error
    finally:
        gateway.stop()


# -- lifecycle and validation --------------------------------------------------


def test_stop_closes_listener_and_reaps_workers():
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = _start_sharded(testbed, policy, 7806)
    processes = [handle.channel.process for handle in gateway._shards]
    connection = testbed.network.connect(HOST, 7806)
    gateway.stop()
    with pytest.raises(TeeCommunicationError, match="refused"):
        testbed.network.connect(HOST, 7806)
    with pytest.raises(TeeCommunicationError, match="closed"):
        connection.send(b"\x00")
    assert all(not process.is_alive() for process in processes)
    gateway.stop()  # idempotent


def test_rejects_zero_shards_and_inprocess_observers():
    testbed = Testbed(first_serial=10)
    with pytest.raises(ValueError, match="at least one shard"):
        ShardedGateway(testbed.network, HOST, 7807, testbed.vendor_key,
                       IDENTITY, VerifierPolicy(), lambda: SECRET,
                       FleetConfig(shards=0))
