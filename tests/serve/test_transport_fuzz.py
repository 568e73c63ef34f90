"""Frame fuzzing: a mutated frame is the sent message or a typed error.

One encoded frame is mutated (flipped bytes, truncation, appended junk,
a rewritten length or CRC header field) and fed through a socket pair.
:func:`recv_frame` must return a message equal to the one sent or raise
a :class:`TransportError` subclass; any other exception, a different
message, or a stall fails.
"""

from __future__ import annotations

import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.transport import (
    TransportError,
    recv_frame,
    send_frame,
    worker_channel,
)

messages = st.dictionaries(
    st.text(max_size=8),
    st.one_of(
        st.integers(),
        st.text(max_size=16),
        st.lists(st.integers(-(2**31), 2**31), max_size=16),
        st.none(),
    ),
    max_size=6,
)


def encode(message):
    """The exact bytes :func:`send_frame` puts on the wire."""
    a, b = worker_channel()
    try:
        send_frame(a, message)
        a.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = b.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        a.close()
        b.close()


@st.composite
def mutated_frames(draw):
    """An encoded message and one mutation of its frame bytes."""
    message = draw(messages)
    frame = bytearray(encode(message))
    kind = draw(
        st.sampled_from(["flip", "truncate", "append", "length", "crc"])
    )
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            index = draw(st.integers(0, len(frame) - 1))
            frame[index] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        frame = frame[: draw(st.integers(0, len(frame) - 1))]
    elif kind == "append":
        frame += draw(st.binary(min_size=1, max_size=64))
    elif kind == "length":
        length = draw(st.integers(0, 2**64 - 1))
        frame[0:8] = length.to_bytes(8, "big")
    else:
        frame[8:12] = draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big")
    return message, bytes(frame)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_frames())
    def test_mutated_frame_is_the_message_or_a_transport_error(self, case):
        message, wire = case
        a, b = worker_channel()
        try:
            a.sendall(wire)
            # EOF after the bytes: a length prefix that promises more
            # than arrives must end as TransportClosed, not a stall.
            a.shutdown(socket.SHUT_WR)
            try:
                received = recv_frame(b, timeout=2.0)
            except TransportError:
                return
            assert received == message
        finally:
            a.close()
            b.close()
