"""Length-prefixed, checksummed message frames over a stream socket.

The wire format between the serving front door and its process-isolated
workers (:mod:`repro.serve.proc`).  Each frame is::

    8 bytes  big-endian payload length (of the bytes on the wire)
    4 bytes  CRC32 of the payload *as pickled* (before any corruption)
    N bytes  pickled message

The CRC is computed over the payload the sender intended, so a frame
that is truncated, garbled in flight, or deliberately corrupted by the
chaos harness fails :func:`recv_frame`'s checksum instead of being
deserialised into garbage.  A checksum or pickle failure raises
:class:`TransportError`; the stream itself stays aligned (the length
prefix was honest), but callers treat any transport error as poisoning
the connection — the supervisor tears the worker down and respawns it
rather than trusting a channel that has already lied once.

Fault injection: outbound payloads route through the
``proc:frame`` I/O site (:func:`repro.testing.filter_bytes`), so tests
can tear or garble frames without touching the transport code, and the
worker-side chaos op flips payload bytes explicitly (``corrupt=True``)
to simulate a worker returning damaged responses.

Timeouts: :func:`recv_frame` takes a ``timeout`` in seconds and raises
:class:`TransportTimeout` when no whole frame arrived by then — the
heartbeat deadline and the per-request wait both ride on it.  The
deadline is enforced by polling for readability; the socket itself stays
blocking.  A socket-level timeout (``settimeout``) would be shared with
every other thread using the socket, so a reader's deadline would also
cut short a concurrent :func:`send_frame` — which the pipelined worker
channel (one thread sending while another reads) must never see.  A peer
that closed (or was SIGKILL'd) surfaces as :class:`TransportClosed`.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import time
import zlib
from typing import Any, Optional, Tuple

from .. import testing

#: Frame header: payload length (u64) + CRC32 of the pickled payload.
HEADER = struct.Struct(">QI")

#: Refuse frames beyond this many payload bytes (a corrupt or hostile
#: length prefix must not make the receiver allocate gigabytes).
MAX_FRAME_BYTES = 1 << 28


class TransportError(RuntimeError):
    """The worker channel produced something unusable (corrupt frame,
    undecodable payload, oversized length prefix)."""


class TransportClosed(TransportError):
    """The peer hung up — process exit, SIGKILL, or an explicit close."""


class TransportTimeout(TransportError):
    """No complete frame arrived inside the allotted time."""


def worker_channel() -> Tuple[socket.socket, socket.socket]:
    """A connected, blocking socket pair: ``(parent_end, child_end)``.

    Plain ``AF_UNIX`` stream sockets, inherited by a forked worker; both
    ends default to blocking with no timeout (receivers set their own).
    """
    parent, child = socket.socketpair()
    parent.settimeout(None)
    child.settimeout(None)
    return parent, child


def _flip_bytes(payload: bytes) -> bytes:
    """Deterministically damage a payload (chaos: corrupt responses).

    XORs a slice in the middle so the length prefix still matches but
    the CRC cannot.
    """
    if not payload:
        return payload
    buffer = bytearray(payload)
    start = len(buffer) // 3
    stop = min(len(buffer), start + max(len(buffer) // 3, 1))
    for i in range(start, stop):
        buffer[i] ^= 0xFF
    return bytes(buffer)


def send_frame(sock: socket.socket, message: Any, *,
               corrupt: bool = False) -> None:
    """Pickle ``message`` and write one frame to ``sock``.

    ``corrupt=True`` sends a frame whose payload bytes were damaged
    *after* the checksum was computed — the receiver's CRC check fails,
    which is exactly how a worker under corruption chaos looks from the
    front door.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload)
    wire = testing.filter_bytes(testing.PROC_FRAME, payload)
    if corrupt:
        wire = _flip_bytes(wire)
    try:
        sock.sendall(HEADER.pack(len(wire), crc) + wire)
    except (OSError, ValueError) as err:
        raise TransportClosed(f"peer unreachable while sending: {err}") from err


def _wait_readable(sock: socket.socket, deadline: Optional[float]) -> None:
    """Block until ``sock`` has bytes (or EOF) or ``deadline`` passes.

    ``deadline`` is a :func:`time.monotonic` instant, or ``None`` to wait
    without limit.
    """
    wait_ms = None
    if deadline is not None:
        wait_ms = max(deadline - time.monotonic(), 0.0) * 1000.0
    try:
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        ready = poller.poll(wait_ms)
    except (OSError, ValueError) as err:
        raise TransportClosed(f"peer unreachable: {err}") from err
    if not ready:
        raise TransportTimeout("no frame within the receive deadline")


def _recv_exact(
    sock: socket.socket, count: int, deadline: Optional[float]
) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            # Take what is buffered and poll only when nothing is: a
            # payload usually arrives together with its header.
            chunk = sock.recv(min(remaining, 1 << 20), socket.MSG_DONTWAIT)
        except BlockingIOError:
            _wait_readable(sock, deadline)
            continue
        except socket.timeout as err:
            raise TransportTimeout(
                f"no frame within the receive deadline ({err})"
            ) from err
        except (OSError, ValueError) as err:
            raise TransportClosed(f"peer unreachable: {err}") from err
        if not chunk:
            raise TransportClosed(
                "connection closed mid-frame (peer exited?)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, timeout: Optional[float] = None) -> Any:
    """Read one frame from ``sock`` and return the unpickled message.

    Never changes the socket's blocking mode or timeout, so a concurrent
    :func:`send_frame` on the same socket is unaffected by ``timeout``.

    Args:
        sock: the channel to read from.
        timeout: seconds to wait for the *whole* frame (``None`` blocks
            forever — the worker side's idle wait).

    Raises:
        TransportTimeout: the deadline passed before a full frame.
        TransportClosed: the peer hung up (or the socket died).
        TransportError: the frame failed its CRC, exceeded
            :data:`MAX_FRAME_BYTES`, or would not unpickle.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    header = _recv_exact(sock, HEADER.size, deadline)
    length, crc = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap "
            f"(corrupt prefix?)"
        )
    payload = _recv_exact(sock, length, deadline)
    if zlib.crc32(payload) != crc:
        raise TransportError(
            "frame checksum mismatch (torn or corrupted payload)"
        )
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise TransportError(f"undecodable frame payload: {err}") from err


__all__ = [
    "HEADER",
    "MAX_FRAME_BYTES",
    "TransportClosed",
    "TransportError",
    "TransportTimeout",
    "recv_frame",
    "send_frame",
    "worker_channel",
]
