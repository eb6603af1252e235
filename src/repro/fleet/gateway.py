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
feed the fleet benchmark.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import protocol
from repro.core.server import (SecretProvider, VerifierProtocolState,
                               message_param)
from repro.core.transport import Network, Service
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa
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


@dataclass(frozen=True)
class FleetConfig:
    """Gateway sizing knobs.

    None of them touches evidence: the gateway reads only a message's
    type byte, and every signature, MAC and endorsement check runs in
    the verifier TA lane that owns the connection.
    """

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
                conn_id = _conn_param(params.get("conn"))
                evicted = self._states.pop(conn_id, None) is not None
                return {"evicted": int(evicted)}
            raise TeeBadParameters(f"unknown fleet command {command}")

        def close_session(self) -> None:
            self._states.clear()

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
    """One forwarded message, for the metrics and the benchmark."""

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
        kind = self._kind(data)
        clock = self.client.kernel.soc.clock
        service_s = 0.0
        try:
            # A session the table refused (expired, LRU-evicted) is a
            # failed message like any refusal from the lane's TA.
            entry = self.sessions.touch(conn_id)
            lane = self._lanes[entry.lane]
            with self._device_lock:
                # Read inside the lock: invokes serialise here, so the
                # hits delta is unambiguously this message's.
                hits_before = (self.cache.hits
                               if self.cache is not None else 0)
                sim_before = clock.now_ns()
                started = time.perf_counter()
                try:
                    result = self._request(lane, conn_id, data)
                finally:
                    service_s = time.perf_counter() - started
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
        return snapshot


def start_fleet_gateway(network: Network, host: str, port: int,
                        client: OpTeeClient, vendor_key: ecdsa.KeyPair,
                        identity: ecdsa.KeyPair, policy: VerifierPolicy,
                        secret_provider: SecretProvider,
                        config: FleetConfig = FleetConfig(),
                        engine=None) -> AttestationGateway:
    """Convenience mirror of :func:`repro.core.server.start_verifier`.

    ``engine`` (a :class:`repro.appraisal.AppraisalEngine`) arms the
    multi-TEE envelope path and the revocation killswitch.
    """
    gateway = AttestationGateway(network, host, port, client, vendor_key,
                                 identity, policy, secret_provider,
                                 config, engine=engine)
    return gateway.start()
