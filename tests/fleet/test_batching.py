"""Batched ECDSA verification in both gateway cores.

Pins the three-way drain contract of the threaded gateway's staging
batcher, the shard loop's queue-draining batch tick (made deterministic
by SIGSTOPping the worker while msg2 frames pile up), the honest
amortised-cost accounting, and — the non-negotiable — that batching
changes wall-clock time only: reply bytes and SimClock nanoseconds are
identical with batching on and off.
"""

import hashlib
import os
import signal
import threading
import time
from collections import deque
from contextlib import ExitStack

import pytest

from repro.core.attester import Attester
from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.fleet import (FleetConfig, LoadProfile, build_attester_stacks,
                         run_load, run_one_handshake, start_fleet_gateway)
from repro.fleet import gateway as gateway_module
from repro.fleet.metrics import FleetMetrics
from repro.obs import Tracer
from repro.testbed import Testbed

HOST = "fleet.verifier"
SECRET = b"batched fleet secret" * 8
IDENTITY = ecdsa.keypair_from_private(0xBA7C4 + 99)


@pytest.fixture(autouse=True)
def _clean_memo():
    ecdsa.clear_verified_memo()
    yield
    ecdsa.clear_verified_memo()


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


# -- the staging batcher (threaded gateway), in isolation ----------------------


def _signed_triple(seed, message):
    pair = ecdsa.keypair_from_private(seed)
    return pair.public, message, ecdsa.sign(pair.private, message)


def test_batcher_drain_contract(monkeypatch):
    triples = {b"a": _signed_triple(101, b"msg a"),
               b"b": _signed_triple(102, b"msg b"),
               b"c": _signed_triple(103, b"msg c")}
    monkeypatch.setattr(gateway_module, "batch_candidate_from_message",
                        triples.get)
    metrics = FleetMetrics()
    batcher = gateway_module._Msg2Batcher(metrics)

    # Ineligible data never stages.
    assert batcher.stage(b"nope") is None

    # Solo: stays on the legacy prewarm path, withdraws at drain time.
    solo = batcher.stage(b"a")
    assert batcher.should_prewarm(solo)
    assert batcher.drain(solo) == 0.0
    assert metrics.counter("batch_drains") == 0

    # Two staged: neither prewarms; the first drainer verifies both and
    # leaves the second its share — without re-verifying.
    first = batcher.stage(b"b")
    second = batcher.stage(b"c")
    assert not batcher.should_prewarm(first)
    assert not batcher.should_prewarm(second)
    share = batcher.drain(first)
    assert share > 0.0
    assert metrics.counter("batch_drains") == 1
    assert metrics.counter("batch_verified") == 2
    assert batcher.drain(second) == share
    assert metrics.counter("batch_drains") == 1  # no second verify
    # Both verified triples were seeded for the in-lock TA verify.
    assert ecdsa.verified_memo_size() == 2
    # A share is collected exactly once.
    assert batcher.drain(second) == 0.0


# -- cost invariance: batching may only change wall time -----------------------


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


def _two_concurrent_msg2(batch_on, port, tracer=None):
    """Two handshakes with their msg2s forced to overlap, in a pinned order.

    Both lanes are advanced to post-msg1 sequentially (deterministic
    entropy order). The gateway's device lock is replaced with a
    FIFO-fair one the test holds while starting the sender threads one
    at a time — each is observed blocked on the lock before the next
    starts — so msg2s are always *served* lane-0-then-lane-1, with
    batching on or off. With batching on, both stage before either
    serves, and exactly one batch drain covers both. With a ``tracer``, the
    whole run happens while it observes the gateway board.
    """
    testbed = Testbed(deterministic_rng=True)
    device = testbed.create_device()
    policy = VerifierPolicy()
    observing = ExitStack()
    if tracer is not None:
        observing.enter_context(tracer.observe(device.soc))
    gateway = start_fleet_gateway(
        testbed.network, HOST, port, device.client, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET,
        FleetConfig(workers=2, batch_verify=batch_on))
    try:
        lanes = []
        for index, stack in enumerate(
                build_attester_stacks(testbed, policy, 2)):
            stack.attester = Attester(_deterministic_rng(f"lane-{index}"))
            connection = testbed.network.connect(HOST, port)
            session = stack.attester.start_session(IDENTITY.public_bytes())
            connection.send(stack.attester.make_msg0(session))
            stack.attester.handle_msg1(session, connection.receive())
            signed = stack.attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            lanes.append((connection, session, stack,
                          stack.attester.make_msg2(session, signed)))
        replies = [None, None]

        def run(index):
            connection, _session, _stack, msg2 = lanes[index]
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
            if batch_on:
                # Staging happens before the lock: both must be in.
                with gateway._batcher._lock:
                    assert len(gateway._batcher._staged) == 2
        for thread in threads:
            thread.join(timeout=10.0)
        secrets = [stack.attester.handle_msg3(session, replies[index])
                   for index, (_conn, session, stack, _msg2)
                   in enumerate(lanes)]
        records = sorted(
            (record.conn_id, record.kind, record.sim_transition_ns)
            for record in gateway.drain_records())
        counters = {name: gateway.metrics.counter(name)
                    for name in ("batch_drains", "batch_verified",
                                 "crypto_prewarms")}
        return replies, secrets, records, counters
    finally:
        gateway.stop()
        observing.close()


def test_batching_changes_wall_time_only():
    replies_on, secrets_on, records_on, counters_on = \
        _two_concurrent_msg2(True, 7810)
    replies_off, secrets_off, records_off, counters_off = \
        _two_concurrent_msg2(False, 7811)
    assert secrets_on == secrets_off == [SECRET, SECRET]
    # Byte-identical msg3 replies and identical per-message SimClock
    # nanoseconds: the batch settles signatures early, it never changes
    # what the verifier TA computes or bills on the virtual clock.
    assert replies_on == replies_off
    assert records_on == records_off
    # The batch actually ran on the batched side and only there: one
    # drain covered both lanes, and neither paid the solo prewarm.
    assert counters_on["batch_drains"] == 1
    assert counters_on["batch_verified"] == 2
    assert counters_on["crypto_prewarms"] <= 1
    assert counters_off["batch_drains"] == 0
    assert counters_off["batch_verified"] == 0
    assert counters_off["crypto_prewarms"] == 2


def test_observing_the_gateway_keeps_the_batched_path():
    # A trace must show the path that ships: with the gateway board
    # observed, the batcher stays armed, one drain covers both msg2s, and
    # replies and per-message SimClock ns match the untraced run.
    tracer = Tracer()
    replies_tr, secrets_tr, records_tr, counters_tr = \
        _two_concurrent_msg2(True, 7817, tracer=tracer)
    replies_on, secrets_on, records_on, _ = _two_concurrent_msg2(True, 7818)
    assert secrets_tr == secrets_on == [SECRET, SECRET]
    assert replies_tr == replies_on
    assert records_tr == records_on
    assert counters_tr["batch_drains"] == 1
    assert counters_tr["batch_verified"] == 2
    kinds = [span.attrs["kind"] for span in tracer.spans()
             if span.name == "fleet.request"]
    assert sorted(kinds) == ["msg0", "msg0", "msg2", "msg2"]


def test_batch_share_lands_in_service_time():
    # The amortised batch cost must surface in the covered messages'
    # service_s (the capacity model's input), not vanish.
    testbed = Testbed(first_serial=10)
    device = testbed.create_device()
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7812, device.client, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET, FleetConfig(workers=4))
    try:
        stacks = build_attester_stacks(testbed, policy, 4)
        report = run_load(testbed.network, HOST, 7812,
                          IDENTITY.public_bytes(), stacks,
                          LoadProfile(concurrency=4,
                                      handshakes_per_attester=1))
        assert len(report.completed) == 4
        drains = gateway.metrics.counter("batch_drains")
        covered = gateway.metrics.counter("batch_verified")
        if drains:  # concurrency-dependent; the deterministic tests
            assert covered >= 2  # above force this path explicitly
        msg2 = [r for r in gateway.drain_records() if r.kind == "msg2"]
        assert all(record.service_s > 0.0 for record in msg2)
    finally:
        gateway.stop()


# -- the shard loop's batch tick, deterministically ----------------------------


def test_shard_batch_tick_drains_queued_msg2s():
    """SIGSTOP the worker, pile up six msg2 frames, SIGCONT.

    On resume the single loop reads every queued frame in one fill; the
    head of the queue is a batchable msg2 with five more behind it, so
    ONE batch tick must settle all six signatures (one drain, six
    covered), and every handshake completes with the right secret.
    """
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7813, None, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET,
        FleetConfig(shards=1, heartbeat_interval_s=60.0))
    try:
        lanes = []
        for stack in build_attester_stacks(testbed, policy, 6):
            connection = testbed.network.connect(HOST, 7813)
            session = stack.attester.start_session(IDENTITY.public_bytes())
            connection.send(stack.attester.make_msg0(session))
            stack.attester.handle_msg1(session, connection.receive())
            signed = stack.attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            lanes.append((connection, session, stack,
                          stack.attester.make_msg2(session, signed)))
        worker = gateway._shards[0].channel.process
        replies = [None] * len(lanes)

        def run(index):
            connection, _session, _stack, msg2 = lanes[index]
            connection.send(msg2)
            replies[index] = connection.receive()

        os.kill(worker.pid, signal.SIGSTOP)
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(len(lanes))]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # let every frame land in the socket buffer
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        for thread in threads:
            thread.join(timeout=30.0)
        secrets = {stack.attester.handle_msg3(session, replies[index])
                   for index, (_conn, session, stack, _msg2)
                   in enumerate(lanes)}
        assert secrets == {SECRET}
        counters = gateway.snapshot()["counters"]
        assert counters["batch_drains"] == 1
        assert counters["batch_verified"] == 6
        # Batched messages skip the per-message table prewarm: their
        # verify settles from the memo and never touches the tables.
        assert counters.get("crypto_prewarms", 0) == 0
        msg2 = [r for r in gateway.drain_records() if r.kind == "msg2"]
        assert len(msg2) == 6
        # The tick's elapsed time was split across the six messages.
        assert all(record.service_s > 0.0 for record in msg2)
    finally:
        gateway.stop()


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP to park the worker")
def test_shard_batch_disabled_serves_identically():
    # Same queue pile-up with batching off: no drains, same outcomes.
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7814, None, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET,
        FleetConfig(shards=1, heartbeat_interval_s=60.0,
                    batch_verify=False))
    try:
        lanes = []
        for stack in build_attester_stacks(testbed, policy, 3):
            connection = testbed.network.connect(HOST, 7814)
            session = stack.attester.start_session(IDENTITY.public_bytes())
            connection.send(stack.attester.make_msg0(session))
            stack.attester.handle_msg1(session, connection.receive())
            signed = stack.attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            lanes.append((connection, session, stack,
                          stack.attester.make_msg2(session, signed)))
        worker = gateway._shards[0].channel.process
        replies = [None] * len(lanes)

        def run(index):
            connection, _session, _stack, msg2 = lanes[index]
            connection.send(msg2)
            replies[index] = connection.receive()

        os.kill(worker.pid, signal.SIGSTOP)
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(len(lanes))]
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        for thread in threads:
            thread.join(timeout=30.0)
        secrets = {stack.attester.handle_msg3(session, replies[index])
                   for index, (_conn, session, stack, _msg2)
                   in enumerate(lanes)}
        assert secrets == {SECRET}
        counters = gateway.snapshot()["counters"]
        assert counters.get("batch_drains", 0) == 0
        assert counters.get("batch_verified", 0) == 0
        # Unbatched queued msg2s keep the legacy per-message prewarm.
        assert counters["crypto_prewarms"] == 3
    finally:
        gateway.stop()


# -- shard-local flame export --------------------------------------------------


def test_shard_flame_export_names_the_request_spans():
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7815, None, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET,
        FleetConfig(shards=1, shard_trace=True))
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        result = run_one_handshake(testbed.network, HOST, 7815,
                                   IDENTITY.public_bytes(), stack)
        assert result.ok, result.error
        report = gateway.flame_report()
        assert "shard 0" in report
        assert "fleet.request" in report
        # The report drained the tracer: a fresh export starts empty.
        flame = gateway.shard_flame(0)
        assert flame is not None and flame["spans"] == 0
        assert flame["folded_wall"] == [] and flame["folded_sim"] == []
    finally:
        gateway.stop()


def test_shard_flame_without_tracing_is_empty():
    testbed = Testbed(first_serial=10)
    policy = VerifierPolicy()
    gateway = start_fleet_gateway(
        testbed.network, HOST, 7816, None, testbed.vendor_key,
        IDENTITY, policy, lambda: SECRET, FleetConfig(shards=1))
    try:
        stack = build_attester_stacks(testbed, policy, 1)[0]
        assert run_one_handshake(testbed.network, HOST, 7816,
                                 IDENTITY.public_bytes(), stack).ok
        flame = gateway.shard_flame(0)
        assert flame is not None and flame["spans"] == 0
    finally:
        gateway.stop()
