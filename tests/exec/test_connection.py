"""Framed message transport: round trips, framing errors and deadlines."""

from __future__ import annotations

import io
import socket
import struct
import threading

import numpy as np
import pytest

from repro.exec.transport import (
    Connection,
    TransportClosedError,
    TransportError,
    TransportTimeoutError,
    connect,
    listen,
)


def _frames(*messages) -> bytes:
    """The bytes a connection writes for ``messages``."""
    buffer = io.BytesIO()
    sender = Connection(io.BytesIO(), buffer)
    for message in messages:
        sender.send(message)
    return buffer.getvalue()


def _receiver(data: bytes) -> Connection:
    return Connection(io.BytesIO(data), io.BytesIO())


@pytest.fixture()
def socket_pair():
    left, right = socket.socketpair()
    first, second = Connection.from_socket(left, peer="a"), \
        Connection.from_socket(right, peer="b")
    yield first, second
    first.close()
    second.close()


class TestFraming:
    @pytest.mark.parametrize("message", [
        None, 0, "text", b"\x00\xff", (1, "two", 3.0),
        {"shard": 3, "units": [1, 2]},
    ], ids=["none", "int", "str", "bytes", "tuple", "dict"])
    def test_messages_round_trip(self, message):
        assert _receiver(_frames(message)).recv() == message

    def test_arrays_round_trip_bit_exactly(self):
        array = np.random.default_rng(0).standard_normal((3, 5))
        received = _receiver(_frames(array)).recv()
        np.testing.assert_array_equal(received, array)
        assert received.dtype == array.dtype

    def test_messages_arrive_in_order_with_traffic_counters(self):
        data = _frames("a", "b", "c")
        receiver = _receiver(data)
        assert [receiver.recv() for _ in range(3)] == ["a", "b", "c"]
        assert receiver.messages_received == 3
        assert receiver.bytes_received == len(data)

    def test_bad_magic_is_a_transport_error(self):
        data = bytearray(_frames("payload"))
        data[0] ^= 0xFF
        with pytest.raises(TransportError, match="magic"):
            _receiver(bytes(data)).recv()

    def test_oversized_frame_is_refused(self):
        """A length past the frame bound is rejected before any read."""
        magic = _frames(None)[:4]
        with pytest.raises(TransportError, match="exceeds"):
            _receiver(magic + struct.pack(">Q", 1 << 40)).recv()

    def test_truncated_frame_is_a_closed_error(self):
        data = _frames({"big": "x" * 100})
        with pytest.raises(TransportClosedError, match="mid-message"):
            _receiver(data[:-10]).recv()

    def test_empty_stream_is_a_closed_error(self):
        with pytest.raises(TransportClosedError):
            _receiver(b"").recv()


class TestSocketConnections:
    def test_socket_pair_round_trip(self, socket_pair):
        first, second = socket_pair
        first.send({"ping": 1})
        assert second.recv() == {"ping": 1}
        second.send("pong")
        assert first.recv() == "pong"

    def test_armed_deadline_raises_timeout(self, socket_pair):
        first, _ = socket_pair
        first.settimeout(0.05)
        with pytest.raises(TransportTimeoutError, match="deadline"):
            first.recv()

    def test_shutdown_wakes_a_blocked_reader(self, socket_pair):
        first, _ = socket_pair
        errors = []

        def reader():
            try:
                first.recv()
            except TransportError as error:
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        first.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], TransportClosedError)
        assert first.closed

    def test_send_after_close_is_a_closed_error(self, socket_pair):
        first, _ = socket_pair
        first.close()
        first.close()
        with pytest.raises(TransportClosedError):
            first.send("late")

    def test_listen_and_connect_over_loopback(self):
        server = listen("127.0.0.1", 0)
        port = server.getsockname()[1]
        try:
            client = connect(("127.0.0.1", port), timeout=5.0)
            accepted, _ = server.accept()
            peer = Connection.from_socket(accepted)
            try:
                assert client.peer == f"127.0.0.1:{port}"
                assert peer.peer.startswith("127.0.0.1:")
                client.send([1, 2, 3])
                assert peer.recv() == [1, 2, 3]
            finally:
                client.close()
                peer.close()
        finally:
            server.close()
