"""Single-loop IPC core for the fleet: framing without thread wakeups.

The first sharded gateway spent its router budget on threads: two
blocking reader threads per shard plus a control thread inside every
worker, each message paying a GIL handoff and a condition-variable
wakeup per hop. This module is the replacement substrate, shared by the
router and the shard workers:

* :class:`FrameReader` — incremental, zero-copy parsing of the
  length-prefixed frame format (``u32 len | u8 opcode | u64 req-id |
  body``). Bytes land straight in one growable buffer via
  ``recv_into``; parsed bodies are :class:`memoryview` slices of that
  buffer, valid until the next fill, so a frame is copied at most once
  (when the consumer keeps it) instead of the join-plus-slice per frame
  of the blocking reader. An oversized length is rejected when the
  four header bytes arrive — before any body buffering.

* :class:`FrameWriter` — frame encoding plus short-write-safe delivery
  on sockets that may be non-blocking; partial sends keep a pending
  buffer and drain it with an explicit writability wait.

* :class:`Reactor` — ONE selector thread multiplexing every registered
  socket (the router runs one per gateway, replacing ``2 * shards``
  reader threads). Callbacks run on the loop thread; registration and
  removal are thread-safe through a self-pipe wakeup.

The shard worker does not use :class:`Reactor` — its whole process *is*
a single loop (see :func:`repro.fleet.shards.shard_main`) — but it
parses with the same :class:`FrameReader`, so the framing edge cases
are pinned once, in ``tests/fleet/test_asynccore.py``, for both ends.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import FleetError

#: Name of the event-loop backend, recorded in ``BENCH_fleet.json`` so a
#: benchmark artifact says what core produced it.
LOOP_BACKEND = "selectors"

_HEADER = struct.Struct(">I")
_PREFIX = struct.Struct(">BQ")

#: Hard ceiling on one frame's length field. The largest legitimate
#: frame is a ticket-sync bundle (well under a megabyte); anything
#: claiming more is a corrupt or hostile peer and is rejected before a
#: single body byte is buffered for it.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class FrameError(FleetError):
    """Corrupt framing: oversized or impossible length prefix."""


class FrameReader:
    """Incremental parser for ``u32 len | u8 opcode | u64 req-id | body``.

    Feed it bytes (``fill`` from a socket, ``feed`` from tests) and
    iterate ``frames()``. Yielded bodies are memoryviews into the
    internal buffer — valid until the next ``fill``/``feed`` — so
    consumers that retain a body must copy it (``bytes(body)``), and
    consumers that only parse it in place never pay a copy at all.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES,
                 recv_chunk: int = 65536) -> None:
        if max_frame < _PREFIX.size:
            raise ValueError("max_frame cannot be below the frame prefix")
        self._max_frame = max_frame
        self._recv_chunk = recv_chunk
        self._buf = bytearray(recv_chunk)
        self._rpos = 0  # first unparsed byte
        self._wpos = 0  # first free byte

    def _reserve(self, need: int) -> None:
        """Make ``need`` contiguous free bytes, compacting parsed space."""
        if len(self._buf) - self._wpos >= need:
            return
        pending = self._wpos - self._rpos
        if self._rpos and len(self._buf) - pending >= need:
            # Slide the unparsed tail to the front; cheaper than growing.
            self._buf[:pending] = self._buf[self._rpos:self._wpos]
        else:
            grown = bytearray(max(len(self._buf) * 2, pending + need))
            grown[:pending] = self._buf[self._rpos:self._wpos]
            self._buf = grown
        self._rpos, self._wpos = 0, pending

    def fill(self, sock: socket.socket) -> Optional[bool]:
        """Pull one chunk from ``sock`` into the buffer.

        Returns ``True`` when bytes arrived, ``False`` on EOF (or a
        closed/reset socket), ``None`` when a non-blocking socket had
        nothing ready. One call makes at most one ``recv_into``, so a
        caller woken by a selector never blocks here.
        """
        self._reserve(self._recv_chunk)
        view = memoryview(self._buf)
        try:
            received = sock.recv_into(view[self._wpos:])
        except (BlockingIOError, InterruptedError):
            return None
        except OSError:
            return False
        finally:
            view.release()
        if received == 0:
            return False
        self._wpos += received
        return True

    def feed(self, data: bytes) -> None:
        """Append raw bytes (the test-side twin of :meth:`fill`)."""
        self._reserve(len(data))
        self._buf[self._wpos:self._wpos + len(data)] = data
        self._wpos += len(data)

    def frames(self) -> Iterator[Tuple[int, int, memoryview]]:
        """Yield every complete ``(opcode, req_id, body)`` buffered so far.

        Raises :class:`FrameError` as soon as a length prefix is
        readable and out of range — the body may not even have been
        sent yet, so a hostile length can never make us buffer for it.
        """
        while True:
            avail = self._wpos - self._rpos
            if avail < _HEADER.size:
                return
            (length,) = _HEADER.unpack_from(self._buf, self._rpos)
            if length < _PREFIX.size or length > self._max_frame:
                raise FrameError(
                    f"frame length {length} outside "
                    f"[{_PREFIX.size}, {self._max_frame}]")
            if avail < _HEADER.size + length:
                return
            start = self._rpos + _HEADER.size
            opcode, req_id = _PREFIX.unpack_from(self._buf, start)
            body = memoryview(self._buf)[start + _PREFIX.size:
                                         start + length]
            self._rpos += _HEADER.size + length
            yield opcode, req_id, body

    @property
    def buffered(self) -> int:
        """Unparsed bytes currently held (for tests and introspection)."""
        return self._wpos - self._rpos


def encode_frame(opcode: int, req_id: int, body: bytes = b"") -> bytes:
    """One wire frame: ``u32 len | u8 opcode | u64 req-id | body``."""
    return (_HEADER.pack(_PREFIX.size + len(body))
            + _PREFIX.pack(opcode, req_id) + body)


class FrameWriter:
    """Short-write-safe frame delivery on a (possibly non-blocking) socket.

    ``send`` queues the encoded frame and pumps the socket; a partial
    send keeps the remainder in the pending buffer. ``pump(block=True)``
    waits for writability (via ``select``) until drained — correct for
    both blocking and non-blocking sockets, and exercised byte-by-byte
    in the frame-parser edge-case suite.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._pending = bytearray()

    def send(self, opcode: int, req_id: int, body: bytes = b"") -> None:
        self._pending += encode_frame(opcode, req_id, body)
        self.pump(block=True)

    def pump(self, block: bool = False) -> bool:
        """Push pending bytes out; returns True when fully drained."""
        while self._pending:
            try:
                sent = self._sock.send(self._pending)
            except (BlockingIOError, InterruptedError):
                if not block:
                    return False
                selectors_wait_writable(self._sock)
                continue
            del self._pending[:sent]
        return True

    @property
    def pending(self) -> int:
        return len(self._pending)


def selectors_wait_writable(sock: socket.socket) -> None:
    """Block until ``sock`` accepts more bytes (one-shot selector)."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_WRITE)
        selector.select()


#: ``on_frame(opcode, req_id, body)`` — body is a memoryview valid only
#: for the duration of the callback.
FrameCallback = Callable[[int, int, memoryview], None]
EofCallback = Callable[[socket.socket], None]


class _Registration:
    __slots__ = ("reader", "on_frame", "on_eof")

    def __init__(self, reader: FrameReader, on_frame: FrameCallback,
                 on_eof: EofCallback) -> None:
        self.reader = reader
        self.on_frame = on_frame
        self.on_eof = on_eof


class Reactor:
    """One selector thread demultiplexing frames for many sockets.

    The router registers every shard channel's data and control sockets
    here; response frames resolve their pending requests from the loop
    thread. Compared with two blocking reader threads per shard, the
    scheduler wakes exactly one thread per readiness burst no matter
    how many shards answered.

    Registration and removal are thread-safe: both enqueue an operation
    and prod the loop through a self-pipe, and ``unregister`` blocks
    until the loop has dropped the socket, so the caller can close the
    fd without racing the selector.
    """

    def __init__(self, name: str = "fleet-reactor") -> None:
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._lock = threading.Lock()
        self._ops: List[tuple] = []
        self._stopping = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)
        self._thread.start()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def register(self, sock: socket.socket, on_frame: FrameCallback,
                 on_eof: EofCallback,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        registration = _Registration(FrameReader(max_frame=max_frame),
                                     on_frame, on_eof)
        with self._lock:
            self._ops.append(("add", sock, registration, None))
        self._wake()

    def unregister(self, sock: socket.socket,
                   timeout: float = 5.0) -> None:
        """Drop ``sock`` and wait until the loop no longer touches it."""
        done = threading.Event()
        with self._lock:
            self._ops.append(("drop", sock, None, done))
        self._wake()
        done.wait(timeout)

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
        self._wake()
        self._thread.join(timeout)
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()

    def _apply_ops(self) -> bool:
        with self._lock:
            ops, self._ops = self._ops, []
            stopping = self._stopping
        for kind, sock, registration, done in ops:
            try:
                if kind == "add":
                    self._selector.register(sock, selectors.EVENT_READ,
                                            registration)
                else:
                    self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
            if done is not None:
                done.set()
        return stopping

    def _drop(self, sock: socket.socket,
              registration: _Registration) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass
        registration.on_eof(sock)

    def _run(self) -> None:
        while True:
            if self._apply_ops():
                return
            try:
                events = self._selector.select()
            except OSError:
                # A registered fd was closed out from under us (worker
                # teardown racing the loop): sweep and carry on.
                self._sweep_closed()
                continue
            for key, _mask in events:
                registration = key.data
                if registration is None:
                    # Self-pipe prod: drain and loop back to the op queue.
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:
                        pass
                    continue
                sock = key.fileobj
                status = registration.reader.fill(sock)
                if status is False:
                    self._drop(sock, registration)
                    continue
                if status is None:
                    continue
                try:
                    for opcode, req_id, body in \
                            registration.reader.frames():
                        registration.on_frame(opcode, req_id, body)
                except FrameError:
                    self._drop(sock, registration)

    def _sweep_closed(self) -> None:
        dead = []
        for key in list(self._selector.get_map().values()):
            sock = key.fileobj
            if getattr(sock, "fileno", lambda: -1)() == -1:
                dead.append((sock, key.data))
        for sock, registration in dead:
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
            if registration is not None:
                registration.on_eof(sock)
