"""Framing edge cases for the single-loop IPC core.

The async core parses ``u32 len | u8 opcode | u64 req-id | body`` frames
incrementally from whatever byte boundaries the kernel hands it. These
tests pin the parser at EVERY split point of the 13-byte header, the
oversized-length rejection (which must fire at header-parse time, before
any body byte is buffered), short-write handling in the writer, and the
reactor's register/EOF/unregister lifecycle.
"""

import socket
import threading

import pytest

from repro.errors import FleetError, ReproError
from repro.fleet.asynccore import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    FrameWriter,
    Reactor,
    encode_frame,
)

_HEADER_SIZE = 4 + 1 + 8  # u32 len | u8 opcode | u64 req-id


def _drain(reader):
    return [(opcode, req_id, bytes(body))
            for opcode, req_id, body in reader.frames()]


# -- incremental parsing -------------------------------------------------------

def test_single_frame_roundtrip():
    reader = FrameReader()
    reader.feed(encode_frame(0x01, 42, b"hello"))
    assert _drain(reader) == [(0x01, 42, b"hello")]
    assert reader.buffered == 0


def test_empty_body_frame():
    reader = FrameReader()
    reader.feed(encode_frame(0x04, 7))
    assert _drain(reader) == [(0x04, 7, b"")]


@pytest.mark.parametrize("split", range(1, _HEADER_SIZE + 1))
def test_partial_reads_split_at_every_header_boundary(split):
    # One frame delivered as two reads, cut at byte `split` — including
    # mid-length-prefix, between length and opcode, and mid-req-id.
    frame = encode_frame(0x02, 0xDEADBEEFCAFE, b"payload-bytes")
    reader = FrameReader()
    reader.feed(frame[:split])
    assert _drain(reader) == []  # incomplete: nothing yielded yet
    reader.feed(frame[split:])
    assert _drain(reader) == [(0x02, 0xDEADBEEFCAFE, b"payload-bytes")]


def test_byte_by_byte_delivery():
    frames = [encode_frame(0x01, 1, b"a"),
              encode_frame(0x02, 2, b""),
              encode_frame(0x03, 3, b"x" * 300)]
    reader = FrameReader()
    got = []
    for byte in b"".join(frames):
        reader.feed(bytes([byte]))
        got.extend(_drain(reader))
    assert got == [(0x01, 1, b"a"), (0x02, 2, b""),
                   (0x03, 3, b"x" * 300)]


def test_many_frames_in_one_fill():
    reader = FrameReader()
    reader.feed(b"".join(encode_frame(i, i * 10, bytes([i]) * i)
                         for i in range(1, 20)))
    assert _drain(reader) == [(i, i * 10, bytes([i]) * i)
                              for i in range(1, 20)]


def test_frame_straddling_buffer_growth():
    # A body larger than the initial recv chunk forces _reserve to grow
    # while a partial frame is pending; bytes must survive the copy.
    reader = FrameReader(recv_chunk=64)
    body = bytes(range(256)) * 20  # 5120 bytes > 64
    frame = encode_frame(0x05, 99, body)
    for start in range(0, len(frame), 50):
        reader.feed(frame[start:start + 50])
    assert _drain(reader) == [(0x05, 99, body)]


def test_interleaved_parse_and_feed_compacts():
    # Parse some frames, then keep feeding: the reader must reuse the
    # parsed-out space (compaction) rather than grow without bound.
    reader = FrameReader(recv_chunk=128)
    frame = encode_frame(0x01, 5, b"y" * 40)
    for _ in range(1000):
        reader.feed(frame)
        assert _drain(reader) == [(0x01, 5, b"y" * 40)]
    assert len(reader._buf) <= 1024


def test_bodies_are_memoryviews_into_shared_buffer():
    reader = FrameReader()
    reader.feed(encode_frame(0x01, 1, b"zero-copy"))
    for _opcode, _req_id, body in reader.frames():
        assert isinstance(body, memoryview)
        assert bytes(body) == b"zero-copy"


# -- hostile length prefixes ---------------------------------------------------

def test_oversized_length_rejected_at_header_time():
    # Only the four length bytes arrive; the claimed 2 GiB body never
    # does. The parser must raise NOW, not buffer-and-wait.
    reader = FrameReader()
    reader.feed((2**31).to_bytes(4, "big"))
    with pytest.raises(FrameError):
        _drain(reader)


def test_frame_error_is_a_typed_fleet_error():
    reader = FrameReader()
    reader.feed((2**31).to_bytes(4, "big"))
    with pytest.raises(FleetError):
        _drain(reader)
    assert issubclass(FrameError, ReproError)


def test_oversized_length_never_allocates_body_space():
    reader = FrameReader(recv_chunk=64)
    reader.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    with pytest.raises(FrameError):
        _drain(reader)
    # The internal buffer must not have been grown toward the bogus
    # length — rejection happened before any body reservation.
    assert len(reader._buf) < 1024


def test_undersized_length_rejected():
    # A length below the opcode+req-id prefix cannot frame anything.
    reader = FrameReader()
    reader.feed((4).to_bytes(4, "big") + b"\x00" * 4)
    with pytest.raises(FrameError):
        _drain(reader)


def test_max_frame_boundary_is_inclusive():
    reader = FrameReader(max_frame=64)
    body = b"b" * (64 - 9)  # length field == max_frame exactly
    reader.feed(encode_frame(0x01, 1, body))
    assert _drain(reader) == [(0x01, 1, body)]
    reader.feed(encode_frame(0x01, 2, b"b" * (64 - 8)))  # one over
    with pytest.raises(FrameError):
        _drain(reader)


def test_max_frame_below_prefix_rejected():
    with pytest.raises(ValueError):
        FrameReader(max_frame=8)


# -- socket fill ---------------------------------------------------------------

def test_fill_from_socketpair_and_eof():
    left, right = socket.socketpair()
    try:
        reader = FrameReader()
        left.sendall(encode_frame(0x01, 3, b"over the wire"))
        assert reader.fill(right) is True
        assert _drain(reader) == [(0x01, 3, b"over the wire")]
        left.close()
        assert reader.fill(right) is False  # EOF
    finally:
        right.close()


def test_fill_nonblocking_empty_returns_none():
    left, right = socket.socketpair()
    try:
        right.setblocking(False)
        assert FrameReader().fill(right) is None
    finally:
        left.close()
        right.close()


# -- short-write-safe writer ---------------------------------------------------

class _TrickleSocket:
    """A socket stand-in that accepts one byte per send call."""

    def __init__(self):
        self.received = bytearray()

    def send(self, data):
        self.received += data[:1]
        return 1


def test_writer_survives_short_writes():
    sock = _TrickleSocket()
    writer = FrameWriter(sock)
    writer.send(0x01, 77, b"short-write payload")
    assert writer.pending == 0
    reader = FrameReader()
    reader.feed(bytes(sock.received))
    assert _drain(reader) == [(0x01, 77, b"short-write payload")]


def test_writer_pump_nonblocking_keeps_remainder():
    class _FullSocket:
        def __init__(self):
            self.calls = 0

        def send(self, data):
            self.calls += 1
            if self.calls == 1:
                return 3
            raise BlockingIOError

    sock = _FullSocket()
    writer = FrameWriter(sock)
    writer._pending += encode_frame(0x02, 1, b"abc")
    assert writer.pump(block=False) is False
    assert writer.pending == len(encode_frame(0x02, 1, b"abc")) - 3


def test_writer_roundtrip_over_real_socketpair():
    left, right = socket.socketpair()
    try:
        writer = FrameWriter(left)
        bodies = [bytes([i]) * (i * 7) for i in range(10)]
        for i, body in enumerate(bodies):
            writer.send(0x03, i, body)
        reader = FrameReader()
        got = []
        while len(got) < len(bodies):
            assert reader.fill(right) is True
            got.extend(_drain(reader))
        assert got == [(0x03, i, body) for i, body in enumerate(bodies)]
    finally:
        left.close()
        right.close()


# -- reactor lifecycle ---------------------------------------------------------

def test_reactor_dispatches_frames_and_eof():
    reactor = Reactor(name="test-reactor")
    left, right = socket.socketpair()
    frames = []
    eof = threading.Event()
    arrived = threading.Event()
    try:
        def on_frame(opcode, req_id, body):
            frames.append((opcode, req_id, bytes(body)))
            arrived.set()

        reactor.register(right, on_frame, lambda sock: eof.set())
        left.sendall(encode_frame(0x01, 11, b"via reactor"))
        assert arrived.wait(5.0)
        assert frames == [(0x01, 11, b"via reactor")]
        left.close()
        assert eof.wait(5.0)
    finally:
        reactor.stop()
        right.close()
        left.close()


def test_reactor_unregister_blocks_until_dropped():
    reactor = Reactor(name="test-reactor-2")
    left, right = socket.socketpair()
    try:
        reactor.register(right, lambda *a: None, lambda sock: None)
        reactor.unregister(right)
        # After unregister returns, closing the fd must not disturb the
        # loop: a different socket still gets served.
        right.close()
        left2, right2 = socket.socketpair()
        arrived = threading.Event()
        try:
            reactor.register(
                right2,
                lambda opcode, req_id, body: arrived.set(),
                lambda sock: None)
            left2.sendall(encode_frame(0x02, 1, b"still alive"))
            assert arrived.wait(5.0)
        finally:
            left2.close()
            right2.close()
    finally:
        reactor.stop()
        left.close()


def test_reactor_frame_error_drops_connection():
    reactor = Reactor(name="test-reactor-3")
    left, right = socket.socketpair()
    eof = threading.Event()
    try:
        reactor.register(right, lambda *a: None, lambda sock: eof.set())
        left.sendall((2**31).to_bytes(4, "big"))  # hostile length
        assert eof.wait(5.0)
    finally:
        reactor.stop()
        left.close()
        right.close()
