"""Process-sharded verifier pool: the fleet gateway that scales with cores.

The thread-pool gateway (:mod:`repro.fleet.gateway`) multiplexes many
attesters onto verifier TA lanes, but every lane is a thread of *one*
Python process: the GIL serialises all verifier crypto, so throughput is
flat in the worker count (the flat "live hs/s" column of the PR 3 fleet
bench). This module moves the lanes into *processes*, the way the
paper's deployment scales across independent TrustZone boards:

* **Shards.** Each shard is a forked worker that boots its own verifier
  stack — a fresh simulated board (SoC, secure boot, OP-TEE kernel,
  attestation service), the fleet verifier TA, a per-shard appraisal
  cache, and prewarmed EC tables. Shards never share Python state with
  the router; everything crosses a length-prefixed binary IPC channel as
  bytes (no pickling of live TAs, sessions or sockets).

* **Session affinity.** The router (:class:`ShardedGateway`) owns the
  session table and pins each connection to ``conn_id % shards`` for its
  whole handshake, so msg0→msg2 always land on the shard holding that
  connection's protocol state. Admission control (token bucket + global
  in-flight window) is unchanged; a bounded *per-shard* queue adds one
  more shed point, surfacing ``FleetOverloaded("queue")`` exactly like
  the thread-pool gateway.

* **Supervision.** A heartbeat thread pings every shard over a separate
  control channel. A dead worker (EOF, ``is_alive()`` false), a wedged
  one (no pong within the timeout), or a stuck one (data loop making no
  progress while requests are outstanding) is killed and respawned; its
  sessions are evicted with the distinct reason ``"shard_crash"``,
  in-flight messages fail with
  :class:`~repro.errors.FleetShardCrashed`, and ``shard_respawns``
  counts the event. The attester retries from msg0 on the fresh worker.

* **Clock discipline.** Each shard's board has its own ``SimClock``;
  every forwarded message still pays the Fig. 3b world-transition costs
  on *its* shard's clock, and the per-message virtual-nanosecond delta
  travels back in the reply frame. Real service seconds are measured in
  the shard around the TA invoke, exactly where the threaded gateway
  measures them. The two time bases never mix.

* **Mergeable metrics.** Shards keep their own ``FleetMetrics``; the
  router's :meth:`ShardedGateway.snapshot` pulls JSON state snapshots
  over the control channel and folds them through
  :meth:`~repro.fleet.metrics.FleetMetrics.from_states` into one
  aggregate view shaped like the threaded gateway's.

Behaviour invariance with the threaded gateway — protocol transcripts,
``FleetOverloaded`` semantics, per-message SimClock nanoseconds — is
asserted by ``tests/fleet/test_shards.py``, using deterministic board
entropy (``FleetConfig.shard_base_serial`` + ``shard_deterministic_rng``)
to make both gateways draw identical bytes.

Worker processes are created with the ``fork`` start method: the shard
spec carries the ``secret_provider`` callable by inheritance, and only
bytes ever cross the channel afterwards.
"""

from __future__ import annotations

import json
import multiprocessing
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.appraisal.audit import AuditEntry, entry_from_dict
from repro.core.server import SecretProvider
from repro.core.transport import Network
from repro.core.verifier import VerifierPolicy
from repro.crypto import ec, ecdsa
from repro.errors import (
    FleetOverloaded,
    FleetShardCrashed,
    TeeBadParameters,
)
from repro.fleet.asynccore import (
    LOOP_BACKEND,
    FrameError,
    FrameReader,
    FrameWriter,
    Reactor,
    encode_frame,
)
from repro.fleet.backpressure import AdmissionController, TokenBucket
from repro.fleet.cache import AppraisalCache, CacheKey, policy_fingerprint
from repro.fleet.fabric.store import (
    FabricStore,
    ReplicaState,
    decode_ticket_evict,
    decode_ticket_mint,
    decode_ticket_put,
    encode_ticket_evict,
    encode_ticket_mint,
    encode_ticket_put,
    ticket_key_from_message,
)
from repro.fleet.gateway import (
    CMD_FLEET_EVICT,
    CMD_FLEET_MESSAGE,
    FLEET_VERIFIER_UUID,
    AttestationGateway,
    FleetConfig,
    MessageRecord,
    _GatewayConnection,
    batch_candidate_from_message,
    make_fleet_verifier_ta,
    prewarm_msg2_tables,
)
from repro.fleet.metrics import FleetMetrics
from repro.fleet.sessions import SessionEntry, SessionTable
from repro.optee.ta import TaManifest, sign_ta

#: Eviction reason for sessions orphaned by a dead shard — distinct from
#: ``"ttl"``/``"lru"`` so metrics (and tests) can tell a crash apart.
CRASH_EVICT_REASON = "shard_crash"

# -- wire format ---------------------------------------------------------------
#
# Every frame is ``u32 length | u8 opcode | u64 request-id | body``; the
# body is opcode-specific packed binary (bytes in, bytes out). Requests
# travel parent->shard, responses shard->parent with the same request-id.

_FRAME_HEADER = struct.Struct(">I")
_FRAME_PREFIX = struct.Struct(">BQ")
_CONN_ID = struct.Struct(">Q")
#: Message response head: done, cache_hit, sim-transition ns, service s.
_MESSAGE_RESP = struct.Struct(">BBQd")
_PONG = struct.Struct(">Q")

OP_MESSAGE = 0x01
OP_EVICT = 0x02
OP_POLICY = 0x03
OP_PING = 0x04
OP_SNAPSHOT = 0x05
OP_SHUTDOWN = 0x06
#: Fabric opcodes (data channel): replicate a versioned ticket into a
#: shard, land a sequence-stamped tombstone, bulk-seed a fresh member.
OP_TICKET_PUT = 0x07
OP_TICKET_EVICT = 0x08
OP_TICKET_SYNC = 0x09
#: Hierarchy opcode (control channel): incremental audit-log export.
OP_AUDIT = 0x0A
#: Flame export (control channel): drain the shard's spans
#: as folded stacks + a per-name summary (``FleetConfig.shard_trace``).
OP_FLAME = 0x0B
OP_OK = 0x40
OP_ERR = 0x41


def _send_frame(sock: socket.socket, lock: threading.Lock, opcode: int,
                req_id: int, body: bytes = b"") -> None:
    frame = encode_frame(opcode, req_id, body)
    with lock:
        sock.sendall(frame)


def encode_policy(policy: VerifierPolicy) -> bytes:
    """Serialise a policy as deterministic length-prefixed binary."""
    parts = [struct.pack(">II", policy.minimum_version[0],
                         policy.minimum_version[1])]
    for group in (policy.endorsements, policy.reference_values,
                  policy.trusted_boot_measurements):
        members = sorted(group)
        parts.append(struct.pack(">I", len(members)))
        for item in members:
            parts.append(struct.pack(">I", len(item)))
            parts.append(bytes(item))
    return b"".join(parts)


def encode_policy_bundle(policy: VerifierPolicy,
                         appraisal_blob: bytes = b"") -> bytes:
    """OP_POLICY body: the legacy policy plus the declarative one.

    ``u32 vp_len || encode_policy(vp) || appraisal_policy_blob`` — the
    appraisal part is empty for engine-less deployments, so the legacy
    codecs (:func:`encode_policy` / :func:`decode_policy_into`) keep
    their pinned formats untouched.
    """
    vp_blob = encode_policy(policy)
    return struct.pack(">I", len(vp_blob)) + vp_blob + appraisal_blob


def decode_policy_bundle(body: bytes) -> Tuple[bytes, bytes]:
    (vp_len,) = struct.unpack_from(">I", body, 0)
    return body[4:4 + vp_len], body[4 + vp_len:]


def decode_policy_into(policy: VerifierPolicy, blob: bytes) -> None:
    """Replace ``policy``'s contents in place (verifiers hold references)."""
    major, minor = struct.unpack_from(">II", blob, 0)
    offset = 8
    groups = []
    for _ in range(3):
        (count,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        items = set()
        for _ in range(count):
            (length,) = struct.unpack_from(">I", blob, offset)
            offset += 4
            items.add(bytes(blob[offset:offset + length]))
            offset += length
        groups.append(items)
    policy.minimum_version = (major, minor)
    for target, items in zip((policy.endorsements, policy.reference_values,
                              policy.trusted_boot_measurements), groups):
        target.clear()
        target.update(items)


def _encode_error(exc: BaseException) -> bytes:
    name = type(exc).__name__.encode()
    message = str(exc).encode()
    return (struct.pack(">I", len(name)) + name
            + struct.pack(">I", len(message)) + message)


def _decode_error(body: bytes) -> Tuple[str, str]:
    (name_len,) = struct.unpack_from(">I", body, 0)
    name = body[4:4 + name_len].decode()
    (msg_len,) = struct.unpack_from(">I", body, 4 + name_len)
    start = 8 + name_len
    return name, body[start:start + msg_len].decode()


def _resolve_error(name: str, message: str) -> Exception:
    """Rebuild the shard's exception so callers see the same type the
    threaded gateway would raise (ProtocolError, EndorsementError, ...)."""
    from repro import errors as errors_module

    cls = getattr(errors_module, name, None)
    if isinstance(cls, type) and issubclass(cls, errors_module.ReproError):
        try:
            return cls(message)
        except TypeError:
            pass
    return errors_module.FleetError(f"{name}: {message}")


def _encode_message_response(done: bool, cache_hit: bool, sim_ns: int,
                             service_s: float,
                             reply: Optional[bytes]) -> bytes:
    head = _MESSAGE_RESP.pack(1 if done else 0, 1 if cache_hit else 0,
                              sim_ns, service_s)
    if reply is None:
        return head + b"\x00"
    return head + b"\x01" + reply


def _decode_message_response(body: bytes
                             ) -> Tuple[bool, bool, int, float,
                                        Optional[bytes]]:
    done, cache_hit, sim_ns, service_s = _MESSAGE_RESP.unpack_from(body)
    rest = body[_MESSAGE_RESP.size:]
    reply = rest[1:] if rest[:1] == b"\x01" else None
    return bool(done), bool(cache_hit), sim_ns, service_s, reply


def _encode_message_response_fabric(done: bool, cache_hit: bool,
                                    sim_ns: int, service_s: float,
                                    reply: Optional[bytes],
                                    mints: List[bytes]) -> bytes:
    """Fabric-mode message response: the reply gains a length prefix so
    freshly minted tickets can piggyback after it. Both ends key the
    format off ``config.fabric`` — the legacy encoding stays
    byte-identical when the fabric is off."""
    head = _MESSAGE_RESP.pack(1 if done else 0, 1 if cache_hit else 0,
                              sim_ns, service_s)
    if reply is None:
        head += b"\x00" + struct.pack(">I", 0)
    else:
        head += b"\x01" + struct.pack(">I", len(reply)) + reply
    parts = [head, struct.pack(">H", len(mints))]
    for mint in mints:
        parts.append(struct.pack(">I", len(mint)))
        parts.append(mint)
    return b"".join(parts)


def _decode_message_response_fabric(body: bytes
                                    ) -> Tuple[bool, bool, int, float,
                                               Optional[bytes],
                                               List[bytes]]:
    done, cache_hit, sim_ns, service_s = _MESSAGE_RESP.unpack_from(body)
    offset = _MESSAGE_RESP.size
    has_reply = body[offset:offset + 1] == b"\x01"
    offset += 1
    (reply_len,) = struct.unpack_from(">I", body, offset)
    offset += 4
    reply = bytes(body[offset:offset + reply_len]) if has_reply else None
    offset += reply_len
    (count,) = struct.unpack_from(">H", body, offset)
    offset += 2
    mints = []
    for _ in range(count):
        (length,) = struct.unpack_from(">I", body, offset)
        offset += 4
        mints.append(bytes(body[offset:offset + length]))
        offset += length
    return bool(done), bool(cache_hit), sim_ns, service_s, reply, mints


def encode_evict_batch(conn_ids: List[int]) -> bytes:
    """``OP_EVICT`` body: ``u32 count | u64 conn_id * count``."""
    return struct.pack(">I", len(conn_ids)) + b"".join(
        _CONN_ID.pack(conn_id) for conn_id in conn_ids)


def decode_evict_batch(body: bytes) -> Tuple[int, ...]:
    (count,) = struct.unpack_from(">I", body)
    return struct.unpack_from(f">{count}Q", body, 4) if count else ()


# -- the shard worker (child process) ------------------------------------------


@dataclass
class ShardSpec:
    """Everything a shard needs to boot its verifier stack.

    Shipped into the fork, never over the wire. ``secret_provider`` is a
    callable carried by fork inheritance; every later exchange with the
    worker is pure bytes on the IPC channel.
    """

    index: int
    serial: int
    vendor_private: int
    identity_private: int
    policy_blob: bytes
    secret_provider: SecretProvider
    config: FleetConfig
    deterministic_rng: bool = False
    #: Serialised :class:`repro.appraisal.AppraisalPolicy`; non-empty
    #: arms a per-shard appraisal engine (multi-TEE envelopes, audit
    #: log, revocation killswitch).
    appraisal_blob: bytes = b""


def shard_main(spec: ShardSpec, data_sock: socket.socket,
               ctrl_sock: socket.socket,
               inherited: Tuple[socket.socket, ...] = ()) -> None:
    """Entry point of one verifier shard process.

    Boots a fresh board, installs the fleet verifier TA, then runs ONE
    selector loop over both channels — no reader/control threads, no
    per-message thread wakeups, no locks. Control frames (heartbeats,
    snapshots) are answered the moment they arrive and re-checked
    between data frames, so supervision waits at most one verifier
    serve. Data frames queue in arrival order (fabric replication
    ordering — a ticket push sent before a msg2 is applied before it)
    and are served strictly sequentially, exactly like the threaded
    loop; what changed is *around* the serves: zero-copy incremental
    frame parsing, and a batch tick that joins the ECDSA checks of
    every independent plain msg2 waiting in the queue into one
    randomised multi-scalar chain whose time is split across them.
    """
    # Forked children inherit every parent fd: drop the other shards'
    # channel ends so their EOFs stay meaningful to the router.
    for stale in inherited:
        try:
            stale.close()
        except OSError:
            pass

    from repro.testbed import Testbed

    config = spec.config
    testbed = Testbed(deterministic_rng=spec.deterministic_rng,
                      first_serial=spec.serial)
    testbed.vendor_key = ecdsa.keypair_from_private(spec.vendor_private)
    device = testbed.create_device()
    identity = ecdsa.keypair_from_private(spec.identity_private)
    policy = VerifierPolicy()
    decode_policy_into(policy, spec.policy_blob)
    engine = None
    if spec.appraisal_blob:
        from repro.appraisal import AppraisalEngine, AppraisalPolicy

        engine = AppraisalEngine(AppraisalPolicy.decode(spec.appraisal_blob))
    cache = None
    if config.enable_cache:
        cache = AppraisalCache(capacity=config.cache_capacity,
                               ttl_s=config.cache_ttl_s)
    metrics = FleetMetrics()
    manifest = TaManifest(uuid=FLEET_VERIFIER_UUID,
                          name="watz-fleet-verifier",
                          heap_size=config.lane_heap_size)
    ta_class = make_fleet_verifier_ta(identity, policy, spec.secret_provider,
                                      appraisal_cache=cache, engine=engine)
    image = sign_ta(manifest, b"watz fleet verifier ta", ta_class,
                    testbed.vendor_key)
    device.kernel.install_ta(image)
    session = device.client.open_session(FLEET_VERIFIER_UUID)
    clock = device.soc.clock
    if config.prewarm_crypto:
        # Boot-time prewarm: the generator comb (msg1 signing) and the
        # identity key's tables, so the first handshake served by a
        # respawned shard does not pay table construction.
        ec.scalar_base_mult(2)
        ec.precompute_public_key(identity.public)

    tracer = None
    observing = ExitStack()
    if config.shard_trace:
        from repro.obs import Tracer

        # Shard-local dual-clock spans: this shard's board observed from
        # outside, under the loop's own request and batch spans. Spans
        # stay in the worker and export on demand over OP_FLAME.
        tracer = Tracer(sim_now=clock.now_ns)
        observing.enter_context(tracer.observe(device.soc))

    #: Data-loop progress counter, reported in pongs so the supervisor
    #: can tell "busy but alive" from "stuck on one frame".
    progress = {"frames": 0}

    # Fabric wiring: the cache reports every ticket it mints (a real
    # full-verify store, never a seed) into ``minted``; the data loop is
    # strictly sequential, so draining it after the TA invoke is safe.
    replica: Optional[ReplicaState] = None
    minted: List[Tuple[bytes, tuple, bytes, int]] = []
    if config.fabric and cache is not None:
        replica = ReplicaState()
        cache.set_store_listener(
            lambda fingerprint, key, resumption_key, stored_at:
            minted.append((fingerprint, key, resumption_key, stored_at)))

    def apply_ticket_put(put: bytes) -> bool:
        epoch, seq, age_ns, fingerprint, key, resumption_key = \
            decode_ticket_put(put)
        if replica is None or not replica.admit_put(epoch, seq, key):
            return False
        return cache.seed(fingerprint, key, resumption_key, age_ns=age_ns)

    ctrl_writer = FrameWriter(ctrl_sock)

    def serve_control(opcode: int, req_id: int, body: bytes) -> None:
        try:
            if opcode == OP_PING:
                ctrl_writer.send(OP_OK, req_id,
                                 _PONG.pack(progress["frames"]))
            elif opcode == OP_SNAPSHOT:
                state = {
                    "metrics": metrics.state(),
                    "cache": (cache.snapshot()
                              if cache is not None else None),
                    "live_states": session.ta.live_states,
                    "audit": (engine.audit.counts_by_reason()
                              if engine is not None else None),
                    "fabric": (replica.snapshot()
                               if replica is not None else None),
                }
                ctrl_writer.send(OP_OK, req_id, json.dumps(state).encode())
            elif opcode == OP_AUDIT:
                (since,) = _CONN_ID.unpack_from(body)
                entries = (engine.audit.entries_since(since)
                           if engine is not None else [])
                ctrl_writer.send(OP_OK, req_id,
                                 json.dumps([entry.to_dict()
                                             for entry in entries]).encode())
            elif opcode == OP_FLAME:
                from repro.obs.export import flame_summary, folded_stacks

                spans = tracer.drain() if tracer is not None else []
                payload = {
                    "folded_wall": folded_stacks(spans, clock="wall"),
                    "folded_sim": folded_stacks(spans, clock="sim"),
                    "summary": flame_summary(spans),
                    "spans": len(spans),
                }
                ctrl_writer.send(OP_OK, req_id,
                                 json.dumps(payload).encode())
            else:
                raise TeeBadParameters(
                    f"unknown control opcode {opcode:#x}")
        except Exception as exc:
            ctrl_writer.send(OP_ERR, req_id, _encode_error(exc))

    def serve_message(body: bytes, extra_s: float = 0.0,
                      batched: bool = False) -> bytes:
        (conn_id,) = _CONN_ID.unpack_from(body)
        data = body[_CONN_ID.size:]
        kind = AttestationGateway._kind(data)
        if config.prewarm_crypto and kind == "msg2" and not batched and \
                prewarm_msg2_tables(data):
            # A batch-covered msg2 skips the table build outright: its
            # verify settles from the memo, never touching the tables.
            metrics.increment("crypto_prewarms")
        hits_before = cache.hits if cache is not None else 0
        sim_before = clock.now_ns()
        started = time.perf_counter()
        try:
            if tracer is None:
                result = session.invoke(CMD_FLEET_MESSAGE,
                                        {"conn": conn_id, "data": data})
            else:
                with tracer.span("fleet.request", lane=spec.index,
                                 conn=conn_id, kind=kind):
                    result = session.invoke(CMD_FLEET_MESSAGE,
                                            {"conn": conn_id, "data": data})
        finally:
            # ``extra_s`` is this message's share of the batch tick that
            # verified its signature ahead of the invoke — the amortised
            # cost travels with the message, so the capacity model sees
            # the true service time, not a subsidised one.
            service_s = time.perf_counter() - started + extra_s
            metrics.observe(f"service.{kind}", service_s)
        sim_delta = clock.now_ns() - sim_before
        cache_hit = cache is not None and cache.hits > hits_before
        if kind == "msg2":
            suffix = "hit" if cache_hit else "miss"
            metrics.observe(f"service.msg2_{suffix}", service_s)
        metrics.increment("messages")
        if replica is None:
            return _encode_message_response(bool(result.get("done")),
                                            cache_hit, sim_delta, service_s,
                                            result.get("reply"))
        # Fabric mode: piggyback every ticket this invoke minted onto the
        # reply frame as relative ages — shard clocks never cross the IPC.
        shard_now = time.monotonic_ns()
        mints = [encode_ticket_mint(fingerprint,
                                    max(0, shard_now - stored_at),
                                    key, resumption_key)
                 for fingerprint, key, resumption_key, stored_at in minted]
        minted.clear()
        if mints:
            metrics.increment("fabric_minted", len(mints))
        return _encode_message_response_fabric(bool(result.get("done")),
                                               cache_hit, sim_delta,
                                               service_s,
                                               result.get("reply"), mints)

    data_writer = FrameWriter(data_sock)
    #: Data frames parsed but not yet served, in arrival order — the
    #: order the fabric's lazy-push-before-msg2 discipline relies on.
    queue: Deque[Tuple[int, int, bytes]] = deque()
    #: req-id -> this message's share of a batch tick's elapsed time.
    #: Membership doubles as "signature already settled, skip prewarm".
    batch_shares: Dict[int, float] = {}
    state = {"running": True, "ctrl_open": True}

    def batch_tick() -> None:
        """Jointly verify every independent plain msg2 waiting in line.

        Runs when the frame about to be served is a batchable msg2 and
        at least one more is queued behind it: ONE randomised
        multi-scalar chain (:func:`repro.crypto.batch.verify_batch`)
        settles them all and seeds the consume-once memo, so each later
        TA invoke's signature check is a dict hit. The elapsed time is
        split evenly across the covered messages (`batch_shares`). This
        is the handshake pipelining of the perf tentpole: while one
        lane's msg0 ECDH waits its turn, the hash+verify work of every
        queued msg2 has already been amortised.
        """
        from repro.crypto.batch import verify_batch

        staged: List[Tuple[int, tuple]] = []
        for opcode, req_id, body in queue:
            if opcode != OP_MESSAGE or req_id in batch_shares:
                continue
            item = batch_candidate_from_message(body[_CONN_ID.size:])
            if item is not None:
                staged.append((req_id, item))
        if len(staged) < 2:
            return
        started = time.perf_counter()
        if tracer is None:
            verify_batch([item for _, item in staged], seed_memo=True)
        else:
            with tracer.span("fleet.batch_verify", n=len(staged)):
                verify_batch([item for _, item in staged], seed_memo=True)
        share = (time.perf_counter() - started) / len(staged)
        for req_id, _ in staged:
            batch_shares[req_id] = share
        metrics.increment("batch_drains")
        metrics.increment("batch_verified", len(staged))
        metrics.observe("batch.drain", share * len(staged))

    def serve_data(opcode: int, req_id: int, body: bytes) -> None:
        progress["frames"] += 1
        try:
            if opcode == OP_MESSAGE:
                extra_s = batch_shares.pop(req_id, None)
                data_writer.send(OP_OK, req_id,
                                 serve_message(body, extra_s or 0.0,
                                               batched=extra_s is not None))
            elif opcode == OP_EVICT:
                if len(body) == _CONN_ID.size:
                    # Legacy single-conn frame: the exact TA invoke the
                    # pre-fabric gateway issued (SimClock invariance).
                    (conn_id,) = _CONN_ID.unpack_from(body)
                    session.invoke(CMD_FLEET_EVICT, {"conn": conn_id})
                else:
                    conns = decode_evict_batch(body)
                    if len(conns) == 1:
                        session.invoke(CMD_FLEET_EVICT, {"conn": conns[0]})
                    elif conns:
                        session.invoke(CMD_FLEET_EVICT,
                                       {"conns": list(conns)})
                data_writer.send(OP_OK, req_id)
            elif opcode == OP_TICKET_PUT:
                ok = apply_ticket_put(body)
                data_writer.send(OP_OK, req_id, b"\x01" if ok else b"\x00")
            elif opcode == OP_TICKET_EVICT:
                epoch, seq, key = decode_ticket_evict(body)
                ok = replica is not None and \
                    replica.admit_evict(epoch, seq, key)
                if ok:
                    cache.evict_key(key)
                data_writer.send(OP_OK, req_id, b"\x01" if ok else b"\x00")
            elif opcode == OP_TICKET_SYNC:
                (count,) = struct.unpack_from(">I", body)
                offset, applied = 4, 0
                for _ in range(count):
                    (length,) = struct.unpack_from(">I", body, offset)
                    offset += 4
                    if apply_ticket_put(body[offset:offset + length]):
                        applied += 1
                    offset += length
                data_writer.send(OP_OK, req_id, struct.pack(">I", applied))
            elif opcode == OP_POLICY:
                vp_blob, ap_blob = decode_policy_bundle(body)
                decode_policy_into(policy, vp_blob)
                if engine is not None and ap_blob:
                    from repro.appraisal import AppraisalPolicy

                    engine.replace_policy(AppraisalPolicy.decode(ap_blob))
                metrics.increment("policy_syncs")
                data_writer.send(OP_OK, req_id)
            elif opcode == OP_SHUTDOWN:
                data_writer.send(OP_OK, req_id)
                state["running"] = False
            else:
                raise TeeBadParameters(f"unknown data opcode {opcode:#x}")
        except OSError:
            # The router side of the channel is gone mid-reply; the
            # supervisor will reap us — stop serving.
            state["running"] = False
        except Exception as exc:
            data_writer.send(OP_ERR, req_id, _encode_error(exc))

    selector = selectors.DefaultSelector()
    data_reader = FrameReader()
    ctrl_reader = FrameReader()
    selector.register(data_sock, selectors.EVENT_READ,
                      (data_reader, False))
    selector.register(ctrl_sock, selectors.EVENT_READ,
                      (ctrl_reader, True))

    def pump(timeout: Optional[float]) -> None:
        """One selector pass: answer control, queue data, in that order.

        Called blocking (``None``) when idle and non-blocking (``0``)
        between data serves, which is what keeps heartbeat latency
        bounded by one verifier serve instead of one queue drain.
        """
        for key, _mask in selector.select(timeout):
            reader, is_ctrl = key.data
            status = reader.fill(key.fileobj)
            if status is False:
                selector.unregister(key.fileobj)
                if is_ctrl:
                    state["ctrl_open"] = False
                else:
                    # Router hung up: protocol state is worthless without
                    # a peer — drop anything unserved and wind down.
                    state["running"] = False
                    queue.clear()
                continue
            if status is None:
                continue
            try:
                frames = list(reader.frames())
            except FrameError:
                selector.unregister(key.fileobj)
                if is_ctrl:
                    state["ctrl_open"] = False
                else:
                    state["running"] = False
                    queue.clear()
                continue
            for opcode, req_id, body in frames:
                if is_ctrl:
                    serve_control(opcode, req_id, bytes(body))
                else:
                    queue.append((opcode, req_id, bytes(body)))

    try:
        while state["running"]:
            if not queue:
                pump(None)
                continue
            if config.batch_verify and len(queue) > 1 and \
                    queue[0][0] == OP_MESSAGE and \
                    queue[0][1] not in batch_shares:
                batch_tick()
            serve_data(*queue.popleft())
            # Control priority between serves: a ping that arrived while
            # we verified never waits behind the rest of the queue.
            pump(0)
    except OSError:
        pass
    try:
        session.close()
    except Exception:
        pass
    observing.close()
    selector.close()
    for sock in (data_sock, ctrl_sock):
        try:
            sock.close()
        except OSError:
            pass


# -- the router (parent process) -----------------------------------------------


class _Pending:
    """One outstanding request awaiting its response frame."""

    __slots__ = ("event", "response", "failure", "sent_at")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[Tuple[int, bytes]] = None
        self.failure: Optional[Exception] = None
        self.sent_at = time.monotonic()


class _ShardChannel:
    """One generation of a shard worker: process, sockets, reactor slots.

    Response frames are demultiplexed by the gateway's single
    :class:`~repro.fleet.asynccore.Reactor` — no per-channel reader
    threads; the only wakeup a response costs is the waiter's own event.
    """

    def __init__(self, spec: ShardSpec, context,
                 siblings: List[socket.socket], reactor: Reactor) -> None:
        self.spec = spec
        self.reactor = reactor
        data_parent, data_child = socket.socketpair()
        ctrl_parent, ctrl_child = socket.socketpair()
        self.data_sock = data_parent
        self.ctrl_sock = ctrl_parent
        self.data_lock = threading.Lock()
        self.ctrl_lock = threading.Lock()
        self.pending: Dict[int, _Pending] = {}
        self.pending_lock = threading.Lock()
        self._next_req = 1
        self.down = threading.Event()
        # Supervisor bookkeeping for stuck-detection.
        self.progress_frames = -1
        self.progress_stalled_since: Optional[float] = None
        self.process = context.Process(
            target=shard_main,
            args=(spec, data_child, ctrl_child, tuple(siblings)),
            daemon=True,
            name=f"fleet-shard-{spec.index}",
        )
        self.process.start()
        data_child.close()
        ctrl_child.close()
        # Request ids are unique across both sockets (one counter), so
        # one frame callback serves them both.
        for sock in (data_parent, ctrl_parent):
            reactor.register(sock, self._on_frame, self._on_eof)

    def _on_frame(self, opcode: int, req_id: int,
                  body: memoryview) -> None:
        with self.pending_lock:
            pending = self.pending.pop(req_id, None)
        if pending is not None:
            # The memoryview dies with the reactor's next fill; the
            # response outlives it, so this is the one copy a reply pays.
            pending.response = (opcode, bytes(body))
            pending.event.set()

    def _on_eof(self, _sock: socket.socket) -> None:
        self.mark_down()

    def request(self, opcode: int, body: bytes, timeout: float,
                control: bool = False) -> Tuple[int, bytes]:
        pending = _Pending()
        with self.pending_lock:
            if self.down.is_set():
                raise FleetShardCrashed(
                    f"verifier shard {self.spec.index} is down")
            req_id = self._next_req
            self._next_req += 1
            self.pending[req_id] = pending
        sock, lock = ((self.ctrl_sock, self.ctrl_lock) if control
                      else (self.data_sock, self.data_lock))
        try:
            _send_frame(sock, lock, opcode, req_id, body)
        except OSError:
            with self.pending_lock:
                self.pending.pop(req_id, None)
            self.mark_down()
            raise FleetShardCrashed(
                f"verifier shard {self.spec.index} channel is down")
        if not pending.event.wait(timeout):
            with self.pending_lock:
                self.pending.pop(req_id, None)
            raise FleetShardCrashed(
                f"verifier shard {self.spec.index} did not answer "
                f"within {timeout:.1f}s")
        if pending.failure is not None:
            raise pending.failure
        return pending.response

    def mark_down(self) -> None:
        """Fail every outstanding request; idempotent."""
        with self.pending_lock:
            if self.down.is_set():
                drained = []
            else:
                self.down.set()
                drained = list(self.pending.values())
                self.pending.clear()
        for pending in drained:
            pending.failure = FleetShardCrashed(
                f"verifier shard {self.spec.index} died mid-request")
            pending.event.set()

    def busy(self) -> bool:
        with self.pending_lock:
            return bool(self.pending)

    def kill(self) -> None:
        """Tear this generation down: detach from the reactor, reap."""
        for sock in (self.data_sock, self.ctrl_sock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        # Blocking unregister: once it returns the reactor no longer
        # touches these fds, so closing them below cannot race the loop.
        for sock in (self.data_sock, self.ctrl_sock):
            self.reactor.unregister(sock)
        self.mark_down()
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        else:
            process.join(timeout=0.5)
        for sock in (self.data_sock, self.ctrl_sock):
            try:
                sock.close()
            except OSError:
                pass


class _ShardHandle:
    """Stable per-shard slot; survives respawns (channels do not)."""

    def __init__(self, index: int, queue_depth: int) -> None:
        self.index = index
        self.channel: Optional[_ShardChannel] = None
        self.policy_fp: Optional[bytes] = None
        self.policy_lock = threading.Lock()
        self.respawns = 0
        self._queue = threading.BoundedSemaphore(queue_depth)

    def try_enter(self) -> bool:
        return self._queue.acquire(blocking=False)

    def leave(self) -> None:
        self._queue.release()


class _EvictCoalescer:
    """Batches session-evict fan-out into one ``OP_EVICT`` per shard.

    With a zero window (the default) every eviction ships inline as the
    legacy single-conn frame — byte-identical cadence to the pre-fabric
    gateway. A positive window queues victims per shard and a background
    flusher sends one batched frame per shard per window, so a
    1000-device revocation storm costs O(shards) frames, not O(devices).
    """

    def __init__(self, gateway: "ShardedGateway", window_s: float) -> None:
        self._gateway = gateway
        self._window_s = window_s
        self._lock = threading.Lock()
        self._pending: Dict[int, List[int]] = {}
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if window_s > 0:
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="fleet-evict-coalescer")
            self._thread.start()

    @property
    def batching(self) -> bool:
        return self._window_s > 0

    def enqueue(self, lane: int, conn_id: int) -> None:
        if not self.batching:
            self._gateway._send_evict(lane, [conn_id])
            return
        with self._lock:
            self._pending.setdefault(lane, []).append(conn_id)
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.wait()
            if self._stop.is_set():
                return
            self._wake.clear()
            # The coalescing window: everything evicted while we sleep
            # joins the flush that follows.
            time.sleep(self._window_s)
            self.flush()

    def flush(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for lane, conns in sorted(pending.items()):
            self._gateway._send_evict(lane, conns)

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.flush()


class ShardedGateway:
    """Session-affinity router in front of a pool of verifier shards.

    Same observable surface as :class:`AttestationGateway` — ``start`` /
    ``stop`` / ``snapshot`` / ``drain_records`` / ``metrics`` /
    ``sessions`` — but verifier work runs in ``config.shards`` worker
    processes, so aggregate throughput scales with host cores instead of
    pinning on the GIL.
    """

    #: Event-loop backend of the shard cores and the router's reactor,
    #: recorded in benchmark artifacts next to the host metadata.
    loop_backend = LOOP_BACKEND

    def __init__(self, network: Network, host: str, port: int,
                 vendor_key: ecdsa.KeyPair, identity: ecdsa.KeyPair,
                 policy: VerifierPolicy, secret_provider: SecretProvider,
                 config: FleetConfig, time_source=time.monotonic_ns,
                 engine=None) -> None:
        if config.shards < 1:
            raise ValueError("sharded gateway needs at least one shard")
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "process shards require the fork start method") from exc
        self.network = network
        self.host = host
        self.port = port
        self.vendor_key = vendor_key
        self.identity = identity
        self.policy = policy
        self.secret_provider = secret_provider
        self.config = config
        #: Router-side appraisal engine: the single source of truth for
        #: the declarative policy. Shards hold decoded *replicas*, synced
        #: lazily whenever the combined fingerprint moves (exactly the
        #: legacy policy-sync discipline); its audit log records only
        #: router-side decisions — per-shard logs live in the workers and
        #: surface through :meth:`snapshot`.
        self.engine = engine
        self.metrics = FleetMetrics()
        bucket = None
        if config.rate_per_s is not None:
            bucket = TokenBucket(config.rate_per_s, config.rate_burst,
                                 time_source=time_source)
        self._admission = AdmissionController(config.max_in_flight, bucket)
        self.sessions = SessionTable(capacity=config.max_sessions,
                                     ttl_s=config.session_ttl_s,
                                     time_source=time_source,
                                     on_evict=self._session_evicted)
        self.records: List[MessageRecord] = []
        self._records_lock = threading.Lock()
        self._conn_counter = 0
        self._conn_lock = threading.Lock()
        self._time_source = time_source
        #: The replicated resumption-ticket authority; armed by
        #: :meth:`start` when ``config.fabric`` and the cache are on.
        self.fabric: Optional[FabricStore] = None
        self._coalescer: Optional[_EvictCoalescer] = None
        self._shards: List[_ShardHandle] = []
        #: The single selector thread demultiplexing every shard
        #: channel's responses (see :mod:`repro.fleet.asynccore`).
        self._reactor: Optional[Reactor] = None
        self._respawn_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._running = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ShardedGateway":
        """Fork the shard pool, start supervision, listen."""
        if self._running:
            raise RuntimeError("gateway already started")
        depth = self.config.shard_queue_depth or self.config.max_in_flight
        if self.config.fabric and self.config.enable_cache:
            self.fabric = FabricStore(
                range(self.config.shards),
                capacity=self.config.fabric_capacity,
                ttl_s=self.config.cache_ttl_s,
                vnodes=self.config.fabric_vnodes,
                time_source=self._time_source)
        self._coalescer = _EvictCoalescer(self, self.config.evict_coalesce_s)
        self._reactor = Reactor()
        self._shards = [_ShardHandle(index, depth)
                        for index in range(self.config.shards)]
        for handle in self._shards:
            self._spawn(handle)
        self._stop_event.clear()
        self._running = True
        self._supervisor = threading.Thread(target=self._supervise,
                                            daemon=True,
                                            name="fleet-shard-supervisor")
        self._supervisor.start()
        self.network.listen(self.host, self.port, self._new_connection)
        return self

    def stop(self) -> None:
        """Stop listening, drain connections, shut the shard pool down."""
        if not self._running:
            return
        self._running = False
        self._stop_event.set()
        self.network.shutdown(self.host, self.port)
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        if self._coalescer is not None:
            self._coalescer.stop()
        for handle in self._shards:
            channel = handle.channel
            if channel is None:
                continue
            try:
                channel.request(OP_SHUTDOWN, b"", timeout=2.0)
            except FleetShardCrashed:
                pass
            channel.kill()
            handle.channel = None
        if self._reactor is not None:
            self._reactor.stop()
            self._reactor = None

    def _combined_fingerprint(self) -> bytes:
        """What shard policy replicas are versioned by.

        Folds the declarative policy's fingerprint (epoch included) into
        the legacy one, so a revocation on the router's engine is a
        policy change to every shard — synced lazily, ahead of the next
        message each shard serves.
        """
        fingerprint = policy_fingerprint(self.policy)
        if self.engine is not None:
            from repro.crypto.hashing import sha256

            fingerprint = sha256(fingerprint + self.engine.fingerprint())
        return fingerprint

    def _spawn(self, handle: _ShardHandle) -> None:
        # Fingerprint *before* encoding: if the policy mutates between
        # the two, the stale fingerprint forces a (redundant but safe)
        # resync on the next message instead of missing one.
        fingerprint = self._combined_fingerprint()
        spec = ShardSpec(
            index=handle.index,
            serial=self.config.shard_base_serial + handle.index,
            vendor_private=self.vendor_key.private,
            identity_private=self.identity.private,
            policy_blob=encode_policy(self.policy),
            secret_provider=self.secret_provider,
            config=self.config,
            deterministic_rng=self.config.shard_deterministic_rng,
            appraisal_blob=(self.engine.policy.encode()
                            if self.engine is not None else b""),
        )
        siblings = [sock for other in self._shards
                    if other.channel is not None
                    for sock in (other.channel.data_sock,
                                 other.channel.ctrl_sock)]
        handle.channel = _ShardChannel(spec, self._context, siblings,
                                       self._reactor)
        handle.policy_fp = fingerprint

    # -- supervision ------------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop_event.wait(self.config.heartbeat_interval_s):
            for handle in self._shards:
                if self._stop_event.is_set():
                    return
                channel = handle.channel
                if channel is None:
                    continue
                reason = self._probe(channel)
                if reason is not None and self._running:
                    self._respawn(handle, reason)

    def _probe(self, channel: _ShardChannel) -> Optional[str]:
        """Classify a shard's health; a non-None reason demands respawn."""
        if channel.down.is_set() or not channel.process.is_alive():
            return "death"
        try:
            _opcode, body = channel.request(
                OP_PING, b"", timeout=self.config.heartbeat_timeout_s,
                control=True)
        except FleetShardCrashed:
            # A closed channel is death even while the corpse awaits
            # reaping (is_alive can lag a SIGKILL); a ping *timeout*
            # leaves the channel up, which is the wedged signature.
            if channel.down.is_set() or not channel.process.is_alive():
                return "death"
            return "wedged"
        (frames,) = _PONG.unpack_from(body)
        if channel.busy() and frames == channel.progress_frames:
            # Requests outstanding, yet the data loop read nothing new
            # since the last probe: the worker is stuck inside one frame.
            now = time.monotonic()
            if channel.progress_stalled_since is None:
                channel.progress_stalled_since = now
            elif now - channel.progress_stalled_since > \
                    self.config.shard_request_timeout_s:
                return "stuck"
        else:
            channel.progress_frames = frames
            channel.progress_stalled_since = None
        return None

    def _respawn(self, handle: _ShardHandle, reason: str) -> None:
        """Replace a dead/wedged worker and invalidate its sessions."""
        with self._respawn_lock:
            if not self._running:
                return
            channel = handle.channel
            if channel is not None:
                channel.kill()
            # The shard's protocol state died with it: every session it
            # owned is evicted (distinct reason), and the attesters'
            # retries start from msg0 on the fresh worker.
            self.sessions.evict_lane(handle.index, CRASH_EVICT_REASON)
            if self.fabric is not None:
                # Replay the death into fabric membership: the ring
                # shrinks, and every ticket the dead member owned is
                # eagerly pushed to its deterministic new owner.
                moves = self.fabric.member_down(handle.index)
                self.metrics.increment("fabric_member_down")
                self.metrics.increment(f"fabric_member_down_{reason}")
                for key, new_owner in moves:
                    self._replicate_to(new_owner, key,
                                       "fabric_rebalance_pushes")
            self._spawn(handle)
            handle.respawns += 1
            self.metrics.increment("shard_respawns")
            self.metrics.increment(f"shard_respawns_{reason}")
            if self.fabric is not None:
                # The respawned member rejoins the ring and is bulk-seeded
                # with the slice it now owns, so devices resuming against
                # it hit without waiting for lazy pushes.
                keys = self.fabric.member_up(handle.index)
                self.metrics.increment("fabric_member_up")
                self._sync_member(handle, keys)

    # -- connection plumbing -----------------------------------------------------

    def _new_connection(self) -> _GatewayConnection:
        with self._conn_lock:
            self._conn_counter += 1
            conn_id = self._conn_counter
        # Session affinity: the shard owns this connection's protocol
        # state for the whole handshake.
        shard = conn_id % self.config.shards
        self.sessions.open(conn_id, shard)
        self.metrics.increment("connections")
        return _GatewayConnection(self, conn_id)

    def _connection_closed(self, conn_id: int) -> None:
        entry = self.sessions.discard(conn_id)
        if entry is not None:
            self._evict_shard_state(entry)

    def _session_evicted(self, entry: SessionEntry, reason: str) -> None:
        self.metrics.increment(f"sessions_evicted_{reason}")
        if reason != CRASH_EVICT_REASON:
            # On a crash the TA state is already gone — never ask the
            # fresh worker to evict connections it has never seen.
            self._evict_shard_state(entry)

    def _evict_shard_state(self, entry: SessionEntry) -> None:
        if not self._running or entry.lane >= len(self._shards):
            return
        coalescer = self._coalescer
        if coalescer is None:
            self._send_evict(entry.lane, [entry.conn_id])
        else:
            coalescer.enqueue(entry.lane, entry.conn_id)

    def _send_evict(self, lane: int, conn_ids: List[int]) -> None:
        if not self._running or lane >= len(self._shards) or not conn_ids:
            return
        handle = self._shards[lane]
        coalescer = self._coalescer
        if len(conn_ids) == 1 and (coalescer is None
                                   or not coalescer.batching):
            # Inline mode: the exact legacy frame and TA invoke cadence.
            body = _CONN_ID.pack(conn_ids[0])
        else:
            body = encode_evict_batch(sorted(conn_ids))
            self.metrics.increment("evict_batched")
            self.metrics.increment("evict_coalesced", len(conn_ids))
        try:
            self._request(handle, OP_EVICT, body, timeout=5.0)
        except FleetShardCrashed:
            pass  # the supervisor owns the respawn; state died anyway

    # -- the message path --------------------------------------------------------

    def _request(self, handle: _ShardHandle, opcode: int, body: bytes,
                 timeout: float, control: bool = False) -> Tuple[int, bytes]:
        channel = handle.channel
        if channel is None or channel.down.is_set():
            raise FleetShardCrashed(
                f"verifier shard {handle.index} is down")
        return channel.request(opcode, body, timeout, control=control)

    def _sync_policy(self, handle: _ShardHandle) -> bytes:
        """Lazily mirror parent-side policy mutations into the shard.

        The policy fingerprint (the same one that scopes the appraisal
        cache) is compared per message; only a change ships the policy
        over the channel, ordered on the data stream ahead of the
        message that needed it. Returns the combined fingerprint so the
        fabric can adopt the same scope without recomputing it.
        """
        fingerprint = self._combined_fingerprint()
        if handle.policy_fp == fingerprint:
            return fingerprint
        with handle.policy_lock:
            if handle.policy_fp == fingerprint:
                return fingerprint
            appraisal_blob = (self.engine.policy.encode()
                              if self.engine is not None else b"")
            self._request(handle, OP_POLICY,
                          encode_policy_bundle(self.policy, appraisal_blob),
                          timeout=self.config.shard_request_timeout_s)
            handle.policy_fp = fingerprint
            self.metrics.increment("shard_policy_syncs")
        return fingerprint

    def _dispatch(self, conn_id: int, data: bytes) -> Optional[bytes]:
        try:
            self._admission.admit()
        except FleetOverloaded as rejection:
            self.metrics.increment(f"rejected_{rejection.reason}")
            raise
        self.metrics.increment("accepted")
        self.metrics.enter_flight()
        try:
            return self._serve(conn_id, data)
        finally:
            self.metrics.exit_flight()
            self._admission.release()

    def _serve(self, conn_id: int, data: bytes) -> Optional[bytes]:
        entry = self.sessions.touch(conn_id)
        kind = AttestationGateway._kind(data)
        handle = self._shards[entry.lane]
        if not handle.try_enter():
            self.metrics.increment("rejected_queue")
            self.metrics.increment("rejected_shard_queue")
            raise FleetOverloaded(reason="queue")
        fabric_key: Optional[CacheKey] = None
        try:
            fingerprint = self._sync_policy(handle)
            if self.fabric is not None and kind == "msg2":
                # Scope the store to the fingerprint the shard serves
                # under (a change bumps the epoch, voiding every ticket),
                # then lazily push the replicated ticket — if any — ahead
                # of the message on the same ordered data stream.
                self.fabric.refresh(fingerprint)
                fabric_key = ticket_key_from_message(data)
                if fabric_key is not None:
                    self._replicate_to(handle.index, fabric_key,
                                       "fabric_lazy_pushes")
            opcode, body = self._request(
                handle, OP_MESSAGE, _CONN_ID.pack(conn_id) + data,
                timeout=self.config.shard_request_timeout_s)
        except FleetShardCrashed:
            self.metrics.increment("failed_messages")
            self.sessions.discard(conn_id)
            raise
        finally:
            handle.leave()
        if opcode == OP_ERR:
            name, message = _decode_error(body)
            self.metrics.increment("failed_messages")
            self.sessions.discard(conn_id)
            raise _resolve_error(name, message)
        if self.fabric is not None:
            done, cache_hit, sim_ns, service_s, reply, mints = \
                _decode_message_response_fabric(body)
            if mints:
                self._ingest_mints(entry.lane, mints)
            if cache_hit and fabric_key is not None:
                ticket = self.fabric.lookup(fabric_key)
                if ticket is not None and ticket.origin != entry.lane:
                    self.metrics.increment("fabric_cross_shard_hits")
        else:
            done, cache_hit, sim_ns, service_s, reply = \
                _decode_message_response(body)
        if done:
            self.metrics.increment("handshakes_completed")
            self.sessions.discard(conn_id)
        with self._records_lock:
            self.records.append(MessageRecord(
                conn_id=conn_id, kind=kind, service_s=service_s,
                sim_transition_ns=sim_ns, cache_hit=cache_hit,
            ))
        return reply

    # -- the replication bus -----------------------------------------------------

    def _replicate_to(self, member: int, key: CacheKey,
                      metric: str) -> bool:
        """Push the store's live ticket for ``key`` into one member.

        A no-op when the member already holds the current version (the
        common case on the lazy path). The shard's :class:`ReplicaState`
        re-checks the version on arrival, so even a racing duplicate
        push is harmless.
        """
        fabric = self.fabric
        if fabric is None or member >= len(self._shards):
            return False
        push = fabric.pending_push(key, member)
        if push is None:
            return False
        epoch, seq, age_ns, resumption_key = push
        body = encode_ticket_put(epoch, seq, age_ns, fabric.fingerprint,
                                 key, resumption_key)
        try:
            opcode, resp = self._request(
                self._shards[member], OP_TICKET_PUT, body,
                timeout=self.config.shard_request_timeout_s)
        except FleetShardCrashed:
            return False
        if opcode == OP_OK and resp == b"\x01":
            fabric.mark_replicated(key, member)
            self.metrics.increment(metric)
            return True
        return False

    def _ingest_mints(self, lane: int, mints: List[bytes]) -> None:
        """Record tickets a shard minted; eagerly push to ring owners."""
        fabric = self.fabric
        for blob in mints:
            fingerprint, age_ns, key, resumption_key = \
                decode_ticket_mint(blob)
            # Re-adopt the current scope first: a mint that raced a
            # revocation carries the old fingerprint and must drop.
            fabric.refresh(self._combined_fingerprint())
            ticket = fabric.record_mint(lane, fingerprint, key,
                                        resumption_key, age_ns=age_ns)
            if ticket is None:
                self.metrics.increment("fabric_stale_mints")
                continue
            self.metrics.increment("fabric_mints")
            owner = fabric.owner(key)
            if owner is not None and owner != lane:
                self._replicate_to(owner, key, "fabric_eager_pushes")

    def _sync_member(self, handle: _ShardHandle,
                     keys: List[CacheKey]) -> int:
        """Bulk-seed one member with every listed key it lacks."""
        fabric = self.fabric
        puts: List[Tuple[CacheKey, bytes]] = []
        for key in keys:
            push = fabric.pending_push(key, handle.index)
            if push is None:
                continue
            epoch, seq, age_ns, resumption_key = push
            puts.append((key, encode_ticket_put(
                epoch, seq, age_ns, fabric.fingerprint, key,
                resumption_key)))
        if not puts:
            return 0
        body = struct.pack(">I", len(puts)) + b"".join(
            struct.pack(">I", len(put)) + put for _, put in puts)
        try:
            opcode, _resp = self._request(
                handle, OP_TICKET_SYNC, body,
                timeout=self.config.shard_request_timeout_s)
        except FleetShardCrashed:
            return 0
        if opcode != OP_OK:
            return 0
        for key, _ in puts:
            fabric.mark_replicated(key, handle.index)
        self.metrics.increment("fabric_syncs")
        return len(puts)

    def fabric_evict_identity(self, identity: bytes) -> int:
        """Purge every replicated ticket of one device, fabric-wide.

        Tombstones land on every member holding a replica with a
        sequence newer than any outstanding ``TICKET_PUT``, so a late or
        replayed replication frame can never resurrect the ticket.
        Returns the number of tickets purged from the authority.
        """
        fabric = self.fabric
        if fabric is None:
            raise ValueError("the fabric is not enabled")
        purged = 0
        for key, epoch, seq, replicas in fabric.evict_identity(identity):
            body = encode_ticket_evict(epoch, seq, key)
            for member in replicas:
                if member >= len(self._shards):
                    continue
                try:
                    self._request(self._shards[member], OP_TICKET_EVICT,
                                  body,
                                  timeout=self.config.shard_request_timeout_s)
                except FleetShardCrashed:
                    continue
            purged += 1
            self.metrics.increment("fabric_ticket_evictions")
        return purged

    # -- the hierarchy surface ---------------------------------------------------

    def shard_audit(self, index: int, since: int = 0) -> List[AuditEntry]:
        """One shard's retained audit entries from ``since`` onwards."""
        handle = self._shards[index]
        channel = handle.channel
        if channel is None or channel.down.is_set():
            return []
        try:
            opcode, body = channel.request(OP_AUDIT, _CONN_ID.pack(since),
                                           timeout=5.0, control=True)
        except FleetShardCrashed:
            return []
        if opcode != OP_OK:
            return []
        return [entry_from_dict(item)
                for item in json.loads(body.decode())]

    def shard_flame(self, index: int) -> Optional[dict]:
        """Drain one shard's spans (``FleetConfig.shard_trace``).

        Returns ``{"folded_wall": [...], "folded_sim": [...],
        "summary": str, "spans": int}`` — folded flamegraph lines on
        both clocks plus the per-name aggregate — or ``None`` when the
        shard is unreachable. With tracing off the lists are empty.
        """
        handle = self._shards[index]
        channel = handle.channel
        if channel is None or channel.down.is_set():
            return None
        try:
            opcode, body = channel.request(OP_FLAME, b"", timeout=5.0,
                                           control=True)
        except FleetShardCrashed:
            return None
        if opcode != OP_OK:
            return None
        return json.loads(body.decode())

    def flame_report(self) -> str:
        """Every live shard's flame summary, concatenated for artifacts."""
        sections = []
        for handle in self._shards:
            flame = self.shard_flame(handle.index)
            if flame is None:
                continue
            sections.append(f"-- shard {handle.index} "
                            f"({flame['spans']} spans) --\n"
                            f"{flame['summary']}")
        return "\n\n".join(sections)

    def shard_generations(self) -> List[Tuple[int, int]]:
        """``(index, generation)`` per shard; a respawn bumps the
        generation, telling the audit relay the shard's log restarted."""
        return [(handle.index, handle.respawns)
                for handle in self._shards]

    # -- introspection -----------------------------------------------------------

    def drain_records(self) -> List[MessageRecord]:
        """Return and clear the accumulated per-message records."""
        with self._records_lock:
            records, self.records = self.records, []
        return records

    def shard_snapshots(self) -> List[Optional[dict]]:
        """Fetch each live shard's state over its control channel."""
        snapshots: List[Optional[dict]] = []
        for handle in self._shards:
            channel = handle.channel
            state = None
            if channel is not None and not channel.down.is_set():
                try:
                    opcode, body = channel.request(OP_SNAPSHOT, b"",
                                                   timeout=5.0,
                                                   control=True)
                    if opcode == OP_OK:
                        state = json.loads(body.decode())
                except FleetShardCrashed:
                    pass
            snapshots.append(state)
        return snapshots

    def snapshot(self) -> Dict[str, object]:
        """One aggregate dict across the router and every live shard.

        Shaped like the threaded gateway's snapshot (counters /
        in_flight / latency / sessions / admission / cache) plus a
        ``shards`` section. Metrics of a shard that died since the last
        respawn are gone with it — the respawn counter records that.
        """
        shard_states = self.shard_snapshots()
        merged = FleetMetrics.from_states(
            [self.metrics.state()]
            + [state["metrics"] for state in shard_states if state])
        snapshot = merged.snapshot()
        snapshot["sessions"] = self.sessions.snapshot()
        snapshot["admission"] = self._admission.snapshot()
        snapshot["cache"] = self._merge_cache(
            [state.get("cache") for state in shard_states if state])
        snapshot["shards"] = {
            "count": len(self._shards),
            "respawns": sum(handle.respawns for handle in self._shards),
            "per_shard": [
                {
                    "index": handle.index,
                    "respawns": handle.respawns,
                    "alive": bool(state),
                    "live_states": (state.get("live_states")
                                    if state else None),
                }
                for handle, state in zip(self._shards, shard_states)
            ],
        }
        snapshot["audit"] = self._merge_audit(
            [state.get("audit") for state in shard_states if state])
        if self.fabric is not None:
            snapshot["fabric"] = {
                "store": self.fabric.snapshot(),
                "replicas": [state.get("fabric") if state else None
                             for state in shard_states],
            }
        return snapshot

    @staticmethod
    def _merge_audit(states: List[Optional[dict]]) -> Optional[dict]:
        states = [state for state in states if state]
        if not states:
            return None
        merged: Dict[str, int] = {}
        for state in states:
            for reason, count in state.items():
                merged[reason] = merged.get(reason, 0) + int(count)
        return merged

    # -- revocation killswitch ---------------------------------------------------

    def revoke_measurement(self, claim: bytes) -> None:
        """Blocklist a code measurement fleet-wide, effective lazily.

        The revocation bumps the engine's policy epoch, which moves the
        combined fingerprint; every shard picks the new policy replica up
        ahead of the *next* message it serves, and the fingerprint shift
        also evicts the shards' appraisal-cache entries and outstanding
        resumption tickets.
        """
        self._require_engine().revoke_measurement(claim)
        self.metrics.increment("revocations")

    def revoke_identity(self, identity: bytes) -> None:
        """Blocklist a device attestation key fleet-wide (see above)."""
        self._require_engine().revoke_identity(identity)
        self.metrics.increment("revocations")

    def _require_engine(self):
        if self.engine is None:
            raise ValueError(
                "the revocation killswitch needs an appraisal engine")
        return self.engine

    @staticmethod
    def _merge_cache(states: List[Optional[dict]]) -> Optional[dict]:
        states = [state for state in states if state]
        if not states:
            return None
        merged = {key: sum(state.get(key, 0) for state in states)
                  for key in ("entries", "hits", "misses", "bad_tickets",
                              "invalidations", "expirations", "seeds")}
        total = merged["hits"] + merged["misses"]
        merged["hit_rate"] = merged["hits"] / total if total else 0.0
        return merged


def start_sharded_gateway(network: Network, host: str, port: int,
                          vendor_key: ecdsa.KeyPair,
                          identity: ecdsa.KeyPair, policy: VerifierPolicy,
                          secret_provider: SecretProvider,
                          config: FleetConfig,
                          engine=None) -> ShardedGateway:
    """Convenience mirror of :func:`repro.fleet.gateway.start_fleet_gateway`."""
    gateway = ShardedGateway(network, host, port, vendor_key, identity,
                             policy, secret_provider, config, engine=engine)
    return gateway.start()
