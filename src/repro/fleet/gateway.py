"""The concurrent attestation gateway.

The paper's verifier (§V) is a single normal-world listener forwarding
one connection's messages to one verifier TA session. This gateway turns
that into a service: many concurrent attester connections are multiplexed
onto a *pool* of verifier TA sessions (lanes), with

* per-connection protocol state kept in the lane's TA keyed by a
  connection id, so interleaved msg0/msg2 streams from different
  attesters can never cross;
* a session table (TTL + LRU) so a stalled attester cannot pin verifier
  state forever;
* an appraisal cache on the msg2 hot path (Table III: the asymmetric
  verify dominates);
* admission control (token bucket + bounded in-flight window) that sheds
  overload with :class:`~repro.errors.FleetOverloaded`;
* metrics for everything above.

Clock discipline: every forwarded message still pays the Fig. 3b
world-transition costs on the device's ``SimClock`` exactly as the
single-session server does — the costs *compose* out of
``TaSession.invoke``; nothing here hardcodes them. Queueing and service
time are measured in real ``perf_counter`` seconds. Per-message records
(real service seconds + simulated transition nanoseconds, kept separate)
feed the capacity model in :mod:`repro.fleet.loadgen`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import protocol
from repro.core.server import (SecretProvider, VerifierProtocolState,
                               message_param)
from repro.core.transport import Network, Service
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ec, ecdsa
from repro.errors import FleetOverloaded, TeeBadParameters
from repro.fleet.backpressure import AdmissionController, TokenBucket
from repro.fleet.cache import AppraisalCache
from repro.fleet.metrics import FleetMetrics
from repro.fleet.sessions import SessionEntry, SessionTable
from repro.optee.gp_api import OpTeeClient, TaSession
from repro.optee.ta import TaManifest, TrustedApplication, sign_ta

CMD_FLEET_MESSAGE = 1
CMD_FLEET_EVICT = 2

FLEET_VERIFIER_UUID = "watz-fleet-verifier"


#: Lazily built codec registry for prewarming multi-TEE msg2s; decoding
#: here is advisory (pure math over public bytes), so one shared default
#: registry is fine even when the verifier runs a restricted one.
_prewarm_registry = None


def prewarm_msg2_tables(data: bytes) -> bool:
    """Precompute the evidence key's EC tables for a plain msg2.

    Pure, idempotent math over *public* bytes, safe to run outside any
    device lock (threaded gateway) or before the TA invoke (shard
    worker). Plain msg2 and the multi-TEE envelope variant both carry
    the attestation public key in the clear; malformed input is ignored
    here — the protocol path reports the real error. Returns True when
    tables were (re)warmed.
    """
    global _prewarm_registry
    if not data:
        return False
    try:
        if data[0] == protocol.MSG2:
            message = protocol.decode_msg2(data)
            public_bytes = \
                message.signed_evidence.evidence.attestation_public_key
        elif data[0] == protocol.MSG2_MULTI:
            if _prewarm_registry is None:
                from repro.appraisal.envelope import default_registry

                _prewarm_registry = default_registry()
            multi = protocol.decode_msg2_multi(data)
            public_bytes = _prewarm_registry.decode(multi.envelope).identity
        else:
            return False
        ec.precompute_public_key(ec.decode_point(public_bytes))
    except Exception:
        return False
    return True


#: One batchable verification: (public key point, message, signature) —
#: exactly the triple :meth:`SignedEvidence.verify_signature` checks.
BatchCandidate = Tuple[ec.Point, bytes, bytes]


def batch_candidate_from_message(data: bytes) -> Optional[BatchCandidate]:
    """Extract the ECDSA triple a *plain, ticketless* msg2 will verify.

    Only those messages are admitted to a batch: a resumption ticket may
    satisfy the appraisal cache instead of the signature check, and the
    encrypted/multi-TEE variants verify through backend codecs. Like
    :func:`prewarm_msg2_tables` this is advisory math over public bytes:
    malformed input yields ``None`` and takes the normal path, where the
    protocol reports the real error.
    """
    if not data or data[0] != protocol.MSG2:
        return None
    try:
        message = protocol.decode_msg2(data)
    except Exception:
        return None
    if message.ticket:
        return None
    signed = message.signed_evidence
    try:
        public = ec.decode_point(signed.evidence.attestation_public_key)
    except Exception:
        return None
    return public, signed.evidence.encode(), signed.signature


class _Msg2Batcher:
    """Stage concurrently in-flight msg2 verifies and check them jointly.

    Worker threads stage their message's ECDSA triple on entry and call
    :meth:`drain` right after acquiring the device lock. The first
    drainer to find two or more staged items runs ONE randomised batch
    verification (:func:`repro.crypto.batch.verify_batch`) and seeds the
    consume-once memo, so every covered lane's in-lock TA invoke settles
    its signature check with a dict lookup. Because drains serialise on
    the device lock, a thread reaching its own drain either still holds
    its item (batch or solo) or finds the share an earlier drainer left
    for it — there is no window where a message's verify work can be
    double-counted or lost.

    Accounting is honest: the batch's elapsed wall time is split evenly
    across the covered messages and added to each one's ``service_s``,
    so the capacity model sees the amortised cost, not a fictitious
    zero-cost verify.
    """

    def __init__(self, metrics: FleetMetrics) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        self._staged: Dict[int, BatchCandidate] = {}
        self._shares: Dict[int, float] = {}
        self._next_token = 0

    def stage(self, data: bytes) -> Optional[int]:
        item = batch_candidate_from_message(data)
        if item is None:
            return None
        with self._lock:
            self._next_token += 1
            token = self._next_token
            self._staged[token] = item
        return token

    def should_prewarm(self, token: int) -> bool:
        """Solo so far: keep the legacy prewarm-outside-the-lock path.

        A second stager arriving later still batches this item — with
        warm tables then, which is a wash — while a message that stays
        alone behaves byte-for-byte like the unbatched gateway.
        """
        with self._lock:
            return token in self._staged and len(self._staged) == 1

    def drain(self, token: int) -> float:
        """Settle ``token`` under the device lock; returns its share.

        Exactly one of three things happens: an earlier drainer already
        covered us (collect the share), we are alone (withdraw — the TA
        verifies as usual), or we batch-verify everything staged.
        """
        from repro.crypto.batch import verify_batch

        with self._lock:
            if token not in self._staged:
                return self._shares.pop(token, 0.0)
            if len(self._staged) < 2:
                del self._staged[token]
                return 0.0
            staged, self._staged = self._staged, {}
        started = time.perf_counter()
        verify_batch(list(staged.values()), seed_memo=True)
        share = (time.perf_counter() - started) / len(staged)
        with self._lock:
            for other in staged:
                if other != token:
                    self._shares[other] = share
        self._metrics.increment("batch_drains")
        self._metrics.increment("batch_verified", len(staged))
        self._metrics.observe("batch.drain", share * len(staged))
        return share


@dataclass(frozen=True)
class FleetConfig:
    """Gateway sizing knobs."""

    #: Verifier TA lanes == worker threads.
    workers: int = 4
    #: LRU cap on live (half-open) attester sessions.
    max_sessions: int = 256
    #: An attester silent for this long forfeits its verifier state.
    session_ttl_s: float = 30.0
    #: Bounded accept queue: admitted-but-unfinished messages.
    max_in_flight: int = 64
    #: Sustained message rate cap; ``None`` disables the token bucket.
    rate_per_s: Optional[float] = None
    rate_burst: int = 32
    #: Appraisal cache on the msg2 hot path.
    enable_cache: bool = True
    cache_capacity: int = 1024
    cache_ttl_s: Optional[float] = 300.0
    #: Declared heap of each verifier TA lane. Lanes hold only protocol
    #: state, so they stay far under the paper's 10 MB single verifier.
    lane_heap_size: int = 256 * 1024
    #: Build the evidence key's EC tables in the worker thread *before*
    #: taking the secure-monitor lock, so concurrent lanes overlap the
    #: table construction and the in-lock ECDSA verify runs on warm
    #: tables (the critical-section shrink of the perf tentpole).
    prewarm_crypto: bool = True
    #: Process shards (:mod:`repro.fleet.shards`). ``0`` keeps the
    #: in-process thread-pool gateway above; ``n >= 1`` runs ``n``
    #: verifier shard *processes*, each booting its own simulated board
    #: and owning a slice of the session space, so verifier work scales
    #: with host cores instead of serialising on the GIL.
    shards: int = 0
    #: Bounded per-shard in-flight window; a message that finds its
    #: shard's queue full is shed with ``FleetOverloaded("queue")``.
    #: ``None`` sizes it as ``max_in_flight`` (the global window then
    #: bounds first).
    shard_queue_depth: Optional[int] = None
    #: Supervisor cadence: how often each shard is liveness-checked.
    heartbeat_interval_s: float = 0.25
    #: A shard that cannot answer a heartbeat within this window is
    #: declared wedged, killed and respawned.
    heartbeat_timeout_s: float = 2.0
    #: Upper bound a router thread waits for a shard's reply before the
    #: message fails with ``FleetShardCrashed``.
    shard_request_timeout_s: float = 30.0
    #: Board serial of shard 0 (shard ``i`` gets ``base + i``). With
    #: ``shard_deterministic_rng`` this pins the shard board's entropy
    #: stream — the lever the behaviour-invariance tests use to make a
    #: sharded gateway draw the very bytes the threaded one would.
    shard_base_serial: int = 1
    shard_deterministic_rng: bool = False
    #: Replicated resumption-ticket fabric (:mod:`repro.fleet.fabric`):
    #: any shard resumes any device. Off by default — disabled, the
    #: gateways are byte-identical in transcript and SimClock behaviour
    #: to the pre-fabric code.
    fabric: bool = False
    #: Capacity of the router-side replicated ticket store.
    fabric_capacity: int = 65_536
    #: Virtual nodes per member on the fabric's consistent-hash ring.
    fabric_vnodes: int = 64
    #: Coalescing window for shard-state evict fan-out: evicts arriving
    #: within the window ride one batched ``OP_EVICT`` frame per shard
    #: (O(shards) frames for a mass eviction instead of O(devices)).
    #: ``0`` flushes inline, one frame per evict — the pre-batching
    #: cadence.
    evict_coalesce_s: float = 0.0
    #: Batched ECDSA verification (:mod:`repro.crypto.batch`): when a
    #: loop tick (sharded) or a device-lock convoy (threaded) holds two
    #: or more independent plain msg2s, their signature checks ride one
    #: randomised multi-scalar chain and seed the consume-once memo the
    #: verifier TA then hits. Accept/reject behaviour, transcripts and
    #: SimClock ns are identical either way — the knob exists for A/B
    #: measurement. Observation never changes it: ``Tracer.observe``
    #: traces the batched path as it ships.
    batch_verify: bool = True
    #: Observe each worker process's board with a shard-local
    #: :class:`repro.obs.Tracer` and export folded flame stacks over the
    #: control channel (:meth:`ShardedGateway.shard_flame`) — the
    #: cross-process counterpart of ``Tracer.observe`` on the threaded
    #: gateway's board, for proving where the async core's time goes.
    shard_trace: bool = False


def make_fleet_verifier_ta(identity: ecdsa.KeyPair, policy: VerifierPolicy,
                           secret_provider: SecretProvider,
                           appraisal_cache: Optional[AppraisalCache] = None,
                           engine=None) -> type:
    """A verifier TA that serves many connections from one session.

    Unlike the single-session TA of :mod:`repro.core.server`, protocol
    state lives in a per-connection table so one TA session (one lane of
    the gateway pool) can interleave many attesters' handshakes.
    """

    class FleetVerifierTa(TrustedApplication):
        def open_session(self, api) -> None:
            super().open_session(api)
            self.verifier = Verifier(
                identity, policy, api.generate_random,
                appraisal_cache=appraisal_cache, engine=engine,
            )
            self._states: Dict[int, VerifierProtocolState] = {}

        def invoke(self, command: int, params: dict) -> dict:
            if command == CMD_FLEET_MESSAGE:
                conn_id = _conn_param(params.get("conn"))
                data = message_param(params)
                state = self._states.get(conn_id)
                if state is None:
                    state = VerifierProtocolState(self.verifier,
                                                  secret_provider)
                    self._states[conn_id] = state
                try:
                    reply = state.handle(data)
                except Exception:
                    # A protocol violation burns the connection's state;
                    # the attester must reconnect and start over.
                    self._states.pop(conn_id, None)
                    raise
                done = state.done
                if done:
                    del self._states[conn_id]
                return {"reply": reply, "done": done}
            if command == CMD_FLEET_EVICT:
                # One invoke may carry a whole batch ("conns", the
                # coalesced fan-out) or a single connection ("conn",
                # the original form — unchanged on the wire).
                conns = params.get("conns", ())
                if isinstance(conns, (str, bytes)) or \
                        not hasattr(conns, "__iter__"):
                    raise TeeBadParameters("conns must be an iterable of "
                                           "connection ids")
                conns = [_conn_param(conn) for conn in conns]
                if "conn" in params:
                    conns.append(_conn_param(params["conn"]))
                evicted = 0
                for conn in conns:
                    if self._states.pop(conn, None) is not None:
                        evicted += 1
                return {"evicted": evicted}
            raise TeeBadParameters(f"unknown fleet command {command}")

        def close_session(self) -> None:
            self._states.clear()

        @property
        def live_states(self) -> int:
            return len(self._states)

    return FleetVerifierTa


def _conn_param(conn) -> int:
    if not isinstance(conn, int) or isinstance(conn, bool):
        raise TeeBadParameters("conn must be an integer connection id")
    return conn


@dataclass
class _Lane:
    """One verifier TA session of the pool."""

    index: int
    session: TaSession


@dataclass
class MessageRecord:
    """One forwarded message, for the capacity model and the benchmark."""

    conn_id: int
    kind: str
    service_s: float
    sim_transition_ns: int
    cache_hit: bool


class _GatewayConnection(Service):
    """Transport-facing adapter: one per inbound attester connection."""

    def __init__(self, gateway: "AttestationGateway", conn_id: int) -> None:
        self._gateway = gateway
        self._conn_id = conn_id

    def on_message(self, data: bytes) -> Optional[bytes]:
        return self._gateway._dispatch(self._conn_id, data)

    def on_close(self) -> None:
        self._gateway._connection_closed(self._conn_id)


class AttestationGateway:
    """Front the verifier TA pool with a concurrent, bounded service."""

    def __init__(self, network: Network, host: str, port: int,
                 client: OpTeeClient, vendor_key: ecdsa.KeyPair,
                 identity: ecdsa.KeyPair, policy: VerifierPolicy,
                 secret_provider: SecretProvider,
                 config: FleetConfig = FleetConfig(),
                 time_source=time.monotonic_ns, engine=None) -> None:
        if config.workers < 1:
            raise ValueError("fleet gateway needs at least one worker lane")
        self.network = network
        self.host = host
        self.port = port
        self.client = client
        self.vendor_key = vendor_key
        self.identity = identity
        self.policy = policy
        self.secret_provider = secret_provider
        self.config = config
        #: Optional repro.appraisal.AppraisalEngine, shared by every lane
        #: verifier: enables the multi-TEE envelope handshake, audits all
        #: appraisals, and is the handle the revocation killswitch
        #: mutates (the combined policy fingerprint then invalidates the
        #: appraisal cache and every outstanding resumption ticket).
        self.engine = engine
        self.metrics = FleetMetrics()
        self.cache: Optional[AppraisalCache] = None
        if config.enable_cache:
            self.cache = AppraisalCache(capacity=config.cache_capacity,
                                        ttl_s=config.cache_ttl_s,
                                        time_source=time_source)
        #: In-process fabric mirror: the threaded gateway's single cache
        #: is already fleet-wide, so the fabric here is the *authority
        #: bookkeeping* (versioned store, hierarchy hooks, metrics) with
        #: one member — the same observable surface the sharded fabric
        #: exposes, minus the replication RPCs it does not need.
        self.fabric = None
        if config.fabric and self.cache is not None:
            from repro.fleet.fabric.store import FabricStore

            self.fabric = FabricStore([0], capacity=config.fabric_capacity,
                                      ttl_s=config.cache_ttl_s,
                                      vnodes=config.fabric_vnodes,
                                      time_source=time_source)
            self.cache.set_store_listener(self._fabric_mint)
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
        # One secure monitor: TA invocations across all lanes serialise on
        # the board's single world-transition path.
        self._device_lock = threading.Lock()
        #: Joint msg2 verification across lanes convoyed on that lock.
        self._batcher: Optional[_Msg2Batcher] = None
        if config.batch_verify:
            self._batcher = _Msg2Batcher(self.metrics)
        self._conn_counter = 0
        self._conn_lock = threading.Lock()
        self._lanes: List[_Lane] = []
        self._pool = None
        self._running = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "AttestationGateway":
        """Install the fleet verifier TA, open the lanes, listen."""
        if self._running:
            raise RuntimeError("gateway already started")
        manifest = TaManifest(uuid=FLEET_VERIFIER_UUID,
                              name="watz-fleet-verifier",
                              heap_size=self.config.lane_heap_size)
        ta_class = make_fleet_verifier_ta(
            self.identity, self.policy, self.secret_provider,
            appraisal_cache=self.cache, engine=self.engine,
        )
        image = sign_ta(manifest, b"watz fleet verifier ta", ta_class,
                        self.vendor_key)
        self.client.kernel.install_ta(image)
        self._lanes = [
            _Lane(index, self.client.open_session(FLEET_VERIFIER_UUID))
            for index in range(self.config.workers)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="fleet-worker",
        )
        self.network.listen(self.host, self.port, self._new_connection)
        self._running = True
        return self

    def stop(self) -> None:
        """Stop listening, close live connections and the lane pool."""
        if not self._running:
            return
        self._running = False
        self.network.shutdown(self.host, self.port)
        self._pool.shutdown(wait=True)
        with self._device_lock:
            for lane in self._lanes:
                lane.session.close()
        self._lanes = []

    # -- connection plumbing -----------------------------------------------------

    def _new_connection(self) -> Service:
        with self._conn_lock:
            self._conn_counter += 1
            conn_id = self._conn_counter
        # Sticky lane assignment: the lane's TA holds this connection's
        # protocol state for the whole handshake.
        lane = conn_id % self.config.workers
        self.sessions.open(conn_id, lane)
        self.metrics.increment("connections")
        return _GatewayConnection(self, conn_id)

    def _connection_closed(self, conn_id: int) -> None:
        entry = self.sessions.discard(conn_id)
        if entry is not None:
            self._evict_ta_state(entry)

    def _session_evicted(self, entry: SessionEntry, reason: str) -> None:
        self.metrics.increment(f"sessions_evicted_{reason}")
        self._evict_ta_state(entry)

    def _evict_ta_state(self, entry: SessionEntry) -> None:
        if not self._lanes:
            return
        lane = self._lanes[entry.lane]
        with self._device_lock:
            lane.session.invoke(CMD_FLEET_EVICT, {"conn": entry.conn_id})

    # -- the message path --------------------------------------------------------

    def _dispatch(self, conn_id: int, data: bytes) -> Optional[bytes]:
        try:
            self._admission.admit()
        except FleetOverloaded as rejection:
            self.metrics.increment(f"rejected_{rejection.reason}")
            raise
        self.metrics.increment("accepted")
        self.metrics.enter_flight()
        try:
            future = self._pool.submit(self._serve, conn_id, data)
            return future.result()
        finally:
            self.metrics.exit_flight()
            self._admission.release()

    def _serve(self, conn_id: int, data: bytes) -> Optional[bytes]:
        entry = self.sessions.touch(conn_id)
        kind = self._kind(data)
        lane = self._lanes[entry.lane]
        clock = self.client.kernel.soc.clock
        service_s = 0.0
        batch_token = None
        if kind == "msg2" and self._batcher is not None:
            batch_token = self._batcher.stage(data)
        if self.config.prewarm_crypto and kind == "msg2" and \
                (batch_token is None
                 or self._batcher.should_prewarm(batch_token)):
            # Critical-section shrink: the appraisal's expensive EC table
            # construction happens here, in the worker thread, before the
            # single secure-monitor lock serialises us. It is pure,
            # idempotent math over *public* bytes, so the simulation
            # contract (every world transition under the lock) is intact.
            # A message already convoyed into a batch skips it — its
            # verify settles from the memo, never touching the tables.
            self._prewarm_crypto(data)
        try:
            with self._device_lock:
                # Batched verification first: if other lanes staged msg2s
                # while we waited for the lock, ONE multi-scalar chain
                # settles all of them and seeds the memo the invokes
                # below consume. Our share of its wall time joins this
                # message's service_s — honest amortised accounting.
                batch_share = (self._batcher.drain(batch_token)
                               if batch_token is not None else 0.0)
                # Read inside the lock: invokes serialise here, so the
                # hits delta is unambiguously this message's.
                hits_before = (self.cache.hits
                               if self.cache is not None else 0)
                sim_before = clock.now_ns()
                started = time.perf_counter()
                try:
                    result = self._request(lane, conn_id, data)
                finally:
                    service_s = time.perf_counter() - started + batch_share
                    sim_delta = clock.now_ns() - sim_before
                cache_hit = (self.cache is not None
                             and self.cache.hits > hits_before)
        except Exception:
            # Outside the device lock: discard may one day notify an
            # evict callback that re-enters _evict_ta_state, which takes
            # the (non-reentrant) device lock.
            self.metrics.increment("failed_messages")
            self.metrics.observe(f"service.{kind}", service_s)
            self.sessions.discard(conn_id)
            raise
        self.metrics.observe(f"service.{kind}", service_s)
        if kind == "msg2":
            suffix = "hit" if cache_hit else "miss"
            self.metrics.observe(f"service.msg2_{suffix}", service_s)
        if result.get("done"):
            self.metrics.increment("handshakes_completed")
            self.sessions.discard(conn_id)
        with self._records_lock:
            self.records.append(MessageRecord(
                conn_id=conn_id, kind=kind, service_s=service_s,
                sim_transition_ns=sim_delta, cache_hit=cache_hit,
            ))
        return result.get("reply")

    def _request(self, lane: _Lane, conn_id: int, data: bytes) -> dict:
        """Forward one message to its lane's TA (under the device lock)."""
        return lane.session.invoke(CMD_FLEET_MESSAGE,
                                   {"conn": conn_id, "data": data})

    def _prewarm_crypto(self, data: bytes) -> None:
        """Precompute the evidence key's EC tables outside the device lock.

        Only plain (unsealed) msg2 carries the attestation public key in
        the clear; encrypted evidence is prewarmed implicitly by earlier
        plain handshakes from the same attester.
        """
        if prewarm_msg2_tables(data):
            self.metrics.increment("crypto_prewarms")

    def _fabric_mint(self, fingerprint: bytes, key, resumption_key: bytes,
                     stored_at_ns: int) -> None:
        """Cache store listener: mirror a fresh ticket into the fabric.

        Runs outside the cache lock, in whichever worker thread just
        completed the full verify. The fingerprint travels with the
        mint, so a mint racing a policy change is recognisably stale
        and dropped by the store's refresh-then-record discipline.
        """
        self.fabric.refresh(fingerprint)
        if self.fabric.record_mint(0, fingerprint, key,
                                   resumption_key) is not None:
            self.metrics.increment("fabric_mints")

    @staticmethod
    def _kind(data: bytes) -> str:
        if not data:
            return "empty"
        if data[0] in (protocol.MSG0, protocol.MSG0_MULTI):
            return "msg0"
        if data[0] in (protocol.MSG2, protocol.MSG2_ENC,
                       protocol.MSG2_MULTI):
            return "msg2"
        return f"kind_{data[0]:#x}"

    # -- the revocation killswitch ------------------------------------------------

    def revoke_measurement(self, digest: bytes) -> None:
        """Deny a measurement fleet-wide, effective from the next message.

        The engine's policy epoch bumps, so the combined fingerprint
        scoping the appraisal cache changes: cached appraisals clear and
        every outstanding resumption ticket is dead (its entry is gone),
        without touching per-lane state eagerly.
        """
        self._require_engine().revoke_measurement(digest)
        self.metrics.increment("revocations")

    def revoke_identity(self, identity_key: bytes) -> None:
        """Deny an attestation identity fleet-wide; see above."""
        self._require_engine().revoke_identity(identity_key)
        self.metrics.increment("revocations")

    def _require_engine(self):
        if self.engine is None:
            raise ValueError(
                "the revocation killswitch needs an appraisal engine")
        return self.engine

    # -- introspection -----------------------------------------------------------

    def drain_records(self) -> List[MessageRecord]:
        """Return and clear the accumulated per-message records."""
        with self._records_lock:
            records, self.records = self.records, []
        return records

    def snapshot(self) -> Dict[str, object]:
        """One observable dict: metrics + sessions + cache + admission."""
        snapshot = self.metrics.snapshot()
        snapshot["sessions"] = self.sessions.snapshot()
        snapshot["admission"] = self._admission.snapshot()
        snapshot["cache"] = (self.cache.snapshot()
                             if self.cache is not None else None)
        snapshot["audit"] = (self.engine.audit.counts_by_reason()
                             if self.engine is not None else None)
        if self.fabric is not None:
            snapshot["fabric"] = self.fabric.snapshot()
        return snapshot


def start_fleet_gateway(network: Network, host: str, port: int,
                        client: OpTeeClient, vendor_key: ecdsa.KeyPair,
                        identity: ecdsa.KeyPair, policy: VerifierPolicy,
                        secret_provider: SecretProvider,
                        config: FleetConfig = FleetConfig(),
                        engine=None):
    """Convenience mirror of :func:`repro.core.server.start_verifier`.

    With ``config.shards >= 1`` this starts the process-sharded gateway
    (:mod:`repro.fleet.shards`) instead of the in-process thread pool;
    ``client`` is then unused — every shard boots its own board.
    ``engine`` (a :class:`repro.appraisal.AppraisalEngine`) arms the
    multi-TEE envelope path and the revocation killswitch on either
    gateway flavour.
    """
    if config.shards:
        from repro.fleet.shards import ShardedGateway

        sharded = ShardedGateway(network, host, port, vendor_key, identity,
                                 policy, secret_provider, config,
                                 engine=engine)
        return sharded.start()
    gateway = AttestationGateway(network, host, port, client, vendor_key,
                                 identity, policy, secret_provider,
                                 config, engine=engine)
    return gateway.start()
