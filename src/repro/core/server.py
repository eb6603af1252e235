"""The verifier server: a listener in the normal world + a verifier TA.

Paper §V, "The server (verifier)": the GP socket API cannot *listen* for
inbound connections, so the verifier needs a dedicated normal-world
listener application that receives protocol messages and forwards them to
the verifier TA in the secure world; replies travel the same path back.
Every forwarded message therefore pays the world-transition costs of
Fig. 3b — which the end-to-end benchmarks (Table IV, Fig. 8) include.

The single-connection listener below and the fleet gateway
(:mod:`repro.fleet.gateway`) both forward into this one verifier TA.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core import protocol
from repro.core.transport import Network, Service
from repro.core.verifier import Verifier, VerifierPolicy, VerifierSession
from repro.crypto import ecdsa
from repro.errors import ProtocolError, TeeBadParameters
from repro.optee.gp_api import OpTeeClient
from repro.optee.ta import TaManifest, TrustedApplication, sign_ta

CMD_HANDLE_MESSAGE = 1
CMD_EVICT = 2

VERIFIER_UUID = "watz-verifier"

SecretProvider = Callable[[], bytes]


def message_param(params: dict) -> bytes:
    """The protocol message a verifier TA command carries in ``data``."""
    data = params.get("data")
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TeeBadParameters("data must be a bytes-like protocol message")
    return bytes(data)


def _conn_param(conn) -> int:
    if not isinstance(conn, int) or isinstance(conn, bool):
        raise TeeBadParameters("conn must be an integer connection id")
    return conn


class VerifierProtocolState:
    """Verifier-side state machine for one attester's message stream.

    One instance per inbound connection: msg0 opens the handshake, msg2
    appraises the evidence and (on success) releases the secret. The
    verifier TA keeps a table of them keyed by connection id, which is
    what stops interleaved streams from different attesters crossing.
    """

    def __init__(self, verifier: Verifier,
                 secret_provider: SecretProvider) -> None:
        self._verifier = verifier
        self._secret_provider = secret_provider
        self._session: Optional[VerifierSession] = None
        self._done = False

    @property
    def done(self) -> bool:
        """True once msg3 has been released (the handshake is finished)."""
        return self._done

    def handle(self, data: bytes) -> bytes:
        if not data:
            raise ProtocolError("empty protocol message")
        kind = data[0]
        if kind in (protocol.MSG0, protocol.MSG0_MULTI):
            if self._session is not None:
                raise ProtocolError("msg0 after the handshake started")
            self._session, reply = self._verifier.handle_msg0(data)
            return reply
        if kind in (protocol.MSG2, protocol.MSG2_ENC, protocol.MSG2_MULTI):
            if self._session is None or self._done:
                raise ProtocolError("msg2 without a handshake")
            reply = self._verifier.handle_msg2(
                self._session, data, self._secret_provider()
            )
            self._done = True
            return reply
        raise ProtocolError(f"unexpected message type {kind}")


def make_verifier_ta(identity: ecdsa.KeyPair, policy: VerifierPolicy,
                     secret_provider: SecretProvider,
                     appraisal_cache=None, engine=None) -> type:
    """Build a verifier TA class closed over its configuration.

    The identity key and policy are baked into the TA the way the paper's
    verifier TA carries its key material in secure storage. Each
    ``CMD_HANDLE_MESSAGE`` names its connection, and protocol state lives
    in a per-connection table, so one session can interleave many
    attesters' handshakes. A protocol error burns that connection's state
    (the attester must start over from msg0), and the state is dropped
    once msg3 is out. ``CMD_EVICT`` drops a stalled connection's state.
    """

    class VerifierTa(TrustedApplication):
        def open_session(self, api) -> None:
            super().open_session(api)
            self.verifier = Verifier(
                identity, policy, api.generate_random,
                appraisal_cache=appraisal_cache, engine=engine,
            )
            self._states: Dict[int, VerifierProtocolState] = {}

        def invoke(self, command: int, params: dict) -> dict:
            if command == CMD_HANDLE_MESSAGE:
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
                    del self._states[conn_id]
                    raise
                if state.done:
                    del self._states[conn_id]
                return {"reply": reply, "done": state.done}
            if command == CMD_EVICT:
                conn_id = _conn_param(params.get("conn"))
                evicted = self._states.pop(conn_id, None) is not None
                return {"evicted": int(evicted)}
            raise TeeBadParameters(f"unknown verifier command {command}")

        def close_session(self) -> None:
            self._states.clear()

    return VerifierTa


class VerifierListener(Service):
    """Normal-world listener: one TA session per inbound connection."""

    #: The session serves one connection, so its state needs one key.
    CONN = 0

    def __init__(self, client: OpTeeClient) -> None:
        self._ta_session = client.open_session(VERIFIER_UUID)

    def on_message(self, data: bytes) -> Optional[bytes]:
        # Forward to the secure world (paying the Fig. 3b transition) and
        # relay the TA's reply back over the socket.
        result = self._ta_session.invoke(CMD_HANDLE_MESSAGE,
                                         {"conn": self.CONN, "data": data})
        return result.get("reply")

    def on_close(self) -> None:
        self._ta_session.close()


def start_verifier(network: Network, host: str, port: int,
                   client: OpTeeClient, vendor_key: ecdsa.KeyPair,
                   identity: ecdsa.KeyPair, policy: VerifierPolicy,
                   secret_provider: SecretProvider,
                   heap_size: int = 10 * 1024 * 1024) -> None:
    """Install the verifier TA and start listening on ``host:port``."""
    manifest = TaManifest(uuid=VERIFIER_UUID, name="watz-verifier",
                          heap_size=heap_size)
    ta_class = make_verifier_ta(identity, policy, secret_provider)
    image = sign_ta(manifest, b"watz verifier ta", ta_class, vendor_key)
    client.kernel.install_ta(image)
    network.listen(host, port, lambda: VerifierListener(client))
