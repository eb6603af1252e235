"""WASI-RA: the paper's WASI extension for remote attestation (§V).

Six host functions, exposed to hosted Wasm applications in the ``watz``
import namespace:

* ``wasi_ra_collect_quote`` / ``wasi_ra_dispose_quote`` — issue and
  release evidence for an arbitrary anchor (transport-agnostic);
* ``wasi_ra_net_handshake`` — run msg0/msg1 against a verifier address,
  returning an attestation context and the session anchor;
* ``wasi_ra_net_send_quote`` — send the evidence (msg2);
* ``wasi_ra_net_receive_data`` — receive and decrypt the secret blob
  (msg3);
* ``wasi_ra_net_dispose`` — release the context.

Errors are reported as negative WASI errno values, so the hosted
application always stays in control of the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import protocol
from repro.core.attester import Attester, AttesterSession
from repro.core.evidence import SignedEvidence
from repro.errors import ReproError
from repro.wasi import errno
from repro.wasm.runtime import HostFunction
from repro.wasm.types import FuncType, ValType

WATZ_MODULE = "watz"

I32 = ValType.I32


@dataclass
class _NetContext:
    session: AttesterSession
    socket: int
    received: Optional[bytes] = None


class WasiRa:
    """Per-application WASI-RA state, bound to the runtime's GP API."""

    def __init__(self, api, claim: bytes, attester: Attester) -> None:
        self._api = api
        self._claim = claim
        self._attester = attester
        self._contexts: Dict[int, _NetContext] = {}
        self._quotes: Dict[int, SignedEvidence] = {}
        self._next_handle = 1
        self.last_secret: Optional[bytes] = None

    # -- evidence ------------------------------------------------------------------

    def collect_quote(self, instance, anchor_ptr, anchor_len):
        """Issue evidence for an anchor; returns an opaque handle."""
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        if anchor_len != 32:
            return -errno.EINVAL
        anchor = instance.memory.read(anchor_ptr, anchor_len)
        try:
            signed = self._attester.collect_evidence(
                anchor,
                self._claim,
                self._api.attestation_public_key(),
                self._api.attestation_sign,
                boot_claim=self._api.boot_measurement(),
            )
        except ReproError:
            return -errno.EPROTO
        handle = self._next_handle
        self._next_handle += 1
        self._quotes[handle] = signed
        return handle

    def dispose_quote(self, instance, handle):
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        self._quotes.pop(handle, None)

    # -- networked protocol -----------------------------------------------------------

    def net_handshake(self, instance, host_ptr, host_len, port,
                      vkey_ptr, vkey_len, anchor_out):
        """msg0/msg1 exchange; returns a context handle, writes the anchor.

        The verifier's identity key is read from the application's own
        (measured) memory — hard-coding it in the Wasm binary is what lets
        the verifier detect tampering with the intended service identity.
        """
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        if vkey_len != 65:
            return -errno.EINVAL
        try:
            host = instance.memory.read(host_ptr, host_len).decode("utf-8")
        except UnicodeDecodeError:
            return -errno.EINVAL
        expected_key = instance.memory.read(vkey_ptr, vkey_len)
        try:
            session = self._attester.start_session(expected_key)
            socket = self._api.tcp_connect(host, port)
            self._api.tcp_send(socket, self._attester.make_msg0(session))
            msg1 = self._api.tcp_receive(socket)
            self._attester.handle_msg1(session, msg1)
        except ReproError:
            return -errno.EPROTO
        instance.memory.write(anchor_out, session.anchor)
        handle = self._next_handle
        self._next_handle += 1
        self._contexts[handle] = _NetContext(session, socket)
        return handle

    def net_send_quote(self, instance, context_handle, quote_handle):
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        context = self._contexts.get(context_handle)
        signed = self._quotes.get(quote_handle)
        if context is None or signed is None:
            return -errno.EINVAL
        try:
            message = self._attester.make_msg2(context.session, signed)
            self._api.tcp_send(context.socket, message)
        except ReproError:
            return -errno.EPROTO
        return errno.SUCCESS

    def net_receive_data(self, instance, context_handle, buf_ptr, buf_cap):
        """Receive msg3; returns the blob size (or a negative errno).

        If the buffer is too small nothing is lost: the plaintext is kept
        in the context, and the call can be retried with a larger buffer.
        """
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        context = self._contexts.get(context_handle)
        if context is None:
            return -errno.EINVAL
        if context.received is None:
            try:
                msg3 = self._api.tcp_receive(context.socket)
                context.received = self._attester.handle_msg3(
                    context.session, msg3
                )
            except ReproError:
                return -errno.EPROTO
            self.last_secret = context.received
        received = context.received
        if len(received) > buf_cap:
            return -errno.E2BIG
        # Place the blob into linear memory in pipeline-sized pieces: the
        # plaintext crosses into sandbox memory exactly once, without a
        # full-size intermediate slice.
        view = memoryview(received)
        for offset in range(0, len(view), protocol.MSG3_CHUNK_SIZE):
            instance.memory.write(
                buf_ptr + offset,
                view[offset : offset + protocol.MSG3_CHUNK_SIZE])
        return len(received)

    def net_dispose(self, instance, context_handle):
        self._api.charge_ns(self._api.costs.wasi_dispatch_ns)
        context = self._contexts.pop(context_handle, None)
        if context is not None:
            self._api.tcp_close(context.socket)


_SIGNATURES = {
    "wasi_ra_collect_quote": FuncType((I32, I32), (I32,)),
    "wasi_ra_dispose_quote": FuncType((I32,), ()),
    "wasi_ra_net_handshake": FuncType((I32, I32, I32, I32, I32, I32), (I32,)),
    "wasi_ra_net_send_quote": FuncType((I32, I32), (I32,)),
    "wasi_ra_net_receive_data": FuncType((I32, I32, I32), (I32,)),
    "wasi_ra_net_dispose": FuncType((I32,), ()),
}

_METHODS = {
    "wasi_ra_collect_quote": "collect_quote",
    "wasi_ra_dispose_quote": "dispose_quote",
    "wasi_ra_net_handshake": "net_handshake",
    "wasi_ra_net_send_quote": "net_send_quote",
    "wasi_ra_net_receive_data": "net_receive_data",
    "wasi_ra_net_dispose": "net_dispose",
}


def build_wasi_ra_imports(wasi_ra: WasiRa):
    """Build the ``watz`` import namespace for instantiation."""
    namespace = {}
    for name, signature in _SIGNATURES.items():
        namespace[name] = HostFunction(
            signature, getattr(wasi_ra, _METHODS[name]), name
        )
    return {WATZ_MODULE: namespace}
