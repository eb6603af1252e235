"""The concurrent attestation gateway.

The paper's verifier (§V) is a single normal-world listener forwarding
one connection's messages to one verifier TA session. This gateway turns
that into a service: many concurrent attester connections share one
session of the same verifier TA (:func:`repro.core.server.make_verifier_ta`),
each message served on the thread that delivered it, with

* per-connection protocol state kept in the TA keyed by a connection id,
  so interleaved msg0/msg2 streams from different attesters can never
  cross;
* a session table (TTL + LRU) so a stalled attester cannot pin verifier
  state forever;
* an appraisal cache on the msg2 hot path (Table III: the asymmetric
  verify dominates);
* admission control (token bucket + bounded in-flight window) that sheds
  overload with :class:`~repro.errors.FleetOverloaded`;
* metrics for everything above.

The board has one secure monitor, so every TA invocation serialises on
the gateway's device lock; callers queue there, inside the in-flight
window.

Clock discipline: every forwarded message still pays the Fig. 3b
world-transition costs on the device's ``SimClock`` exactly as the
single-session server does — the costs *compose* out of
``TaSession.invoke``; nothing here hardcodes them. Service time is
measured in real ``perf_counter`` seconds into the ``service.*``
histograms; an observing tracer's ``fleet.request`` spans carry each
message's SimClock nanoseconds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import protocol
from repro.core.server import (CMD_EVICT, CMD_HANDLE_MESSAGE,
                               SecretProvider, make_verifier_ta)
from repro.core.transport import Network, Service
from repro.core.verifier import VerifierPolicy
from repro.crypto import ecdsa
from repro.errors import FleetOverloaded, TeeCommunicationError
from repro.fleet.backpressure import AdmissionController, TokenBucket
from repro.fleet.cache import AppraisalCache
from repro.fleet.metrics import FleetMetrics
from repro.fleet.sessions import SessionEntry, SessionTable
from repro.optee.gp_api import OpTeeClient, TaSession
from repro.optee.ta import TaManifest, sign_ta

FLEET_VERIFIER_UUID = "watz-fleet-verifier"

#: LRU cap on live (half-open) attester sessions.
MAX_SESSIONS = 256
#: An attester silent for this long forfeits its verifier state.
SESSION_TTL_S = 30.0
#: Bounded accept queue: admitted-but-unfinished messages.
MAX_IN_FLIGHT = 64
#: Appraisal cache bounds.
CACHE_CAPACITY = 1024
CACHE_TTL_S = 300.0
#: Declared heap of the gateway's verifier TA. It holds only protocol
#: state, so it stays far under the paper's 10 MB single verifier.
VERIFIER_HEAP_SIZE = 256 * 1024


@dataclass(frozen=True)
class FleetConfig:
    """Gateway knobs.

    None of them touches evidence: the gateway reads only a message's
    type byte, and every signature, MAC and endorsement check runs in
    the verifier TA.
    """

    #: Sustained message rate cap; ``None`` disables the token bucket.
    rate_per_s: Optional[float] = None
    rate_burst: int = 32
    #: Appraisal cache on the msg2 hot path.
    enable_cache: bool = True


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
    """Front one verifier TA session with a concurrent, bounded service."""

    def __init__(self, network: Network, host: str, port: int,
                 client: OpTeeClient, vendor_key: ecdsa.KeyPair,
                 identity: ecdsa.KeyPair, policy: VerifierPolicy,
                 secret_provider: SecretProvider,
                 config: FleetConfig = FleetConfig(),
                 time_source=time.monotonic_ns, engine=None) -> None:
        self.network = network
        self.host = host
        self.port = port
        self.client = client
        self.vendor_key = vendor_key
        self.identity = identity
        self.policy = policy
        self.secret_provider = secret_provider
        self.config = config
        #: Optional repro.appraisal.AppraisalEngine for the TA's verifier:
        #: enables the multi-TEE envelope handshake, audits all
        #: appraisals, and is the handle the revocation killswitch
        #: mutates (the combined policy fingerprint then invalidates the
        #: appraisal cache and every outstanding resumption ticket).
        self.engine = engine
        self.metrics = FleetMetrics()
        self.cache: Optional[AppraisalCache] = None
        if config.enable_cache:
            self.cache = AppraisalCache(capacity=CACHE_CAPACITY,
                                        ttl_s=CACHE_TTL_S,
                                        time_source=time_source)
        bucket = None
        if config.rate_per_s is not None:
            bucket = TokenBucket(config.rate_per_s, config.rate_burst,
                                 time_source=time_source)
        self._admission = AdmissionController(MAX_IN_FLIGHT, bucket)
        self.sessions = SessionTable(capacity=MAX_SESSIONS,
                                     ttl_s=SESSION_TTL_S,
                                     time_source=time_source,
                                     on_evict=self._session_evicted)
        # One secure monitor: TA invocations serialise on the board's
        # single world-transition path.
        self._device_lock = threading.Lock()
        self._conn_counter = 0
        self._conn_lock = threading.Lock()
        self._session: Optional[TaSession] = None
        self._running = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "AttestationGateway":
        """Install the verifier TA, open its session, listen."""
        if self._running:
            raise RuntimeError("gateway already started")
        manifest = TaManifest(uuid=FLEET_VERIFIER_UUID,
                              name="watz-fleet-verifier",
                              heap_size=VERIFIER_HEAP_SIZE)
        ta_class = make_verifier_ta(
            self.identity, self.policy, self.secret_provider,
            appraisal_cache=self.cache, engine=self.engine,
        )
        image = sign_ta(manifest, b"watz fleet verifier ta", ta_class,
                        self.vendor_key)
        self.client.kernel.install_ta(image)
        self._session = self.client.open_session(FLEET_VERIFIER_UUID)
        self.network.listen(self.host, self.port, self._new_connection)
        self._running = True
        return self

    def stop(self) -> None:
        """Stop listening, close live connections and the TA session."""
        if not self._running:
            return
        self._running = False
        self.network.shutdown(self.host, self.port)
        with self._device_lock:
            self._session.close()
            self._session = None

    # -- connection plumbing -----------------------------------------------------

    def _new_connection(self) -> Service:
        with self._conn_lock:
            self._conn_counter += 1
            conn_id = self._conn_counter
        self.sessions.open(conn_id)
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
        with self._device_lock:
            if self._session is not None:
                self._session.invoke(CMD_EVICT, {"conn": entry.conn_id})

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
            return self._serve(conn_id, data)
        finally:
            self.metrics.exit_flight()
            self._admission.release()

    def _serve(self, conn_id: int, data: bytes) -> Optional[bytes]:
        kind = self._kind(data)
        service_s = None  # set once the message reaches the verifier TA
        try:
            # A session the table refused (expired, LRU-evicted) is a
            # failed message like any refusal from the verifier TA, but
            # it never reached the TA, so it adds no service time.
            self.sessions.touch(conn_id)
            with self._device_lock:
                # Read inside the lock: invokes serialise here, so the
                # hits delta is unambiguously this message's.
                hits_before = (self.cache.hits
                               if self.cache is not None else 0)
                started = time.perf_counter()
                try:
                    result = self._request(conn_id, data)
                finally:
                    service_s = time.perf_counter() - started
                cache_hit = (self.cache is not None
                             and self.cache.hits > hits_before)
        except Exception:
            # Outside the device lock: discard may one day notify an
            # evict callback that re-enters _evict_ta_state, which takes
            # the (non-reentrant) device lock.
            self.metrics.increment("failed_messages")
            if service_s is not None:
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
        return result.get("reply")

    def _request(self, conn_id: int, data: bytes) -> dict:
        """Forward one message to the verifier TA (under the device lock)."""
        if self._session is None:
            raise TeeCommunicationError("the attestation gateway is stopped")
        return self._session.invoke(CMD_HANDLE_MESSAGE,
                                    {"conn": conn_id, "data": data})

    @staticmethod
    def _kind(data: bytes) -> str:
        # Untrusted type bytes name no metric: everything that is not a
        # msg0 or a msg2 shares one histogram.
        if data and data[0] in (protocol.MSG0, protocol.MSG0_MULTI):
            return "msg0"
        if data and data[0] in (protocol.MSG2, protocol.MSG2_ENC,
                                protocol.MSG2_MULTI):
            return "msg2"
        return "other"

    # -- the revocation killswitch ------------------------------------------------

    def revoke_measurement(self, digest: bytes) -> None:
        """Deny a measurement fleet-wide, effective from the next message.

        The engine's policy epoch bumps, so the combined fingerprint
        scoping the appraisal cache changes: cached appraisals clear and
        every outstanding resumption ticket is dead (its entry is gone),
        without touching per-connection TA state eagerly.
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
