"""Process-isolated serving workers: real OS fault domains per shard.

PR 8's :class:`~repro.serve.shard.ShardedService` scales across
threads, but every worker shares one process — a segfault, OOM kill, or
hung native call in per-intent scoring takes the whole pool with it.
This module puts each shard in its own **subprocess**:

- :class:`WorkerSpec` describes how a worker builds its service (model
  builder or checkpoint directory, popularity fallback, retry/breaker
  tuning) so the thread and process backends construct *identical*
  services — ``backend="process"`` recommendations are bit-identical to
  ``backend="thread"`` (property-tested);
- :func:`_worker_main` is the child: it loads its model, answers a
  request loop over a length-prefixed CRC-checked socket
  (:mod:`repro.serve.transport`), and runs a daemon heartbeat thread on
  a second channel so liveness pings keep flowing while the data thread
  scores;
- :class:`ProcWorker` is the parent-side client satisfying the worker
  protocol :class:`ShardedService` expects (``recommend / poll_reload /
  ready / health``).  Its data channel is **pipelined**: a caller sends
  as soon as the previous send is on the wire, so a second request goes
  out while the child still scores the first.  The child answers
  strictly in order, so each caller reads the socket once the reply
  before its own has been read (its *turn*), then hands the turn on.
  Any transport problem — timeout, EOF after a SIGKILL, a corrupt or
  out-of-sequence frame — **poisons** the connection: every caller
  queued on it gives up at once, the worker is marked broken, the front
  door reroutes, and the :class:`~repro.serve.supervisor.Supervisor`
  respawns it.  A channel that lied once is never trusted again;
- :class:`ProcessPool` wires N workers behind the existing
  :class:`ShardMap` + front door, starts a supervisor, and exposes
  ``inject_fault`` (SIGKILL / hang-without-exit / corrupt-response
  frames) for the chaos-under-load suite, which kills *real processes*
  mid-run and asserts zero request errors.

Fork safety: workers default to the ``fork`` start method (fast, no
pickling of model builders).  The parent is multithreaded, so the child
begins with :func:`_child_hygiene` — it disarms the lockset sanitizer
*without taking its state lock* (which another parent thread may have
held at fork time), resets the lock factory, replaces the process-global
metrics/tracer with fresh instances, and clears armed faults.  The
child then never touches inherited locks whose owners died with the
fork.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs, testing
from ..concurrency import (
    new_lock,
    require_fork_start_method,
    set_lock_factory,
    shared_state,
)
from ..testing import lockset
from .breaker import CircuitBreaker
from .provider import CheckpointModelProvider, StaticModelProvider
from .service import RecommendationService, RetryPolicy, ServeResponse
from .shard import ShardMap, ShardedService
from .supervisor import Supervisor
from .transport import (
    TransportError,
    TransportTimeout,
    recv_frame,
    send_frame,
    worker_channel,
)


class WorkerUnavailable(RuntimeError):
    """The worker process cannot answer (dead, hung, or poisoned).

    The front door treats this like any worker failure: mark down,
    reroute, degrade — never surface it to the caller.
    """


@dataclass
class WorkerSpec:
    """Everything a worker needs to build its service, in one place.

    Both backends construct their per-shard
    :class:`RecommendationService` from the same spec via
    :func:`build_worker_service`, which is what makes thread and
    process scoring bit-identical by construction.

    Args:
        builder: zero-argument callable returning the model to serve
            (for ``checkpoint_dir`` workers: a *fresh untrained*
            instance the snapshot is restored into).
        checkpoint_dir: when set, the worker serves from a
            :class:`CheckpointModelProvider` over this directory
            (hot-reloadable); otherwise ``builder()`` is served
            statically.
        popularity: per-item counts for the last-resort fallback rung.
        default_top_n / default_deadline / retry / stale_ttl /
        reload_every: forwarded to the service.
        breaker_failures / breaker_recovery: circuit-breaker tuning.
        start_delay: seconds the child sleeps before loading its model
            (slow-start chaos; also exercised by real cold checkpoints).
        jitter_seed: seeds both the retry jitter and any policy built
            by default, so chaos retry traces are deterministic.
    """

    builder: Callable[[], Any]
    checkpoint_dir: Optional[str] = None
    popularity: Optional[np.ndarray] = field(default=None, repr=False)
    default_top_n: int = 20
    default_deadline: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker_failures: int = 3
    breaker_recovery: float = 0.25
    stale_ttl: float = 300.0
    reload_every: int = 0
    start_delay: float = 0.0
    jitter_seed: int = 0


def build_worker_service(spec: WorkerSpec) -> RecommendationService:
    """One shard's service, built identically in-thread or in-child."""
    if spec.checkpoint_dir is not None:
        provider: Any = CheckpointModelProvider(spec.checkpoint_dir, spec.builder)
        provider.poll()
    else:
        provider = StaticModelProvider(spec.builder())
    return RecommendationService(
        provider,
        popularity=spec.popularity,
        default_top_n=spec.default_top_n,
        default_deadline=spec.default_deadline,
        retry=spec.retry or RetryPolicy(seed=spec.jitter_seed),
        breaker=CircuitBreaker(
            failure_threshold=spec.breaker_failures,
            recovery_time=spec.breaker_recovery,
        ),
        stale_ttl=spec.stale_ttl,
        reload_every=spec.reload_every,
        jitter_seed=spec.jitter_seed,
    )


# ----------------------------------------------------------------------
# the child process
# ----------------------------------------------------------------------
def _child_hygiene() -> None:
    """Reset inherited global state right after the fork.

    The parent is multithreaded, so any lock another thread held at
    fork time is locked *forever* in the child.  In particular the
    sanitizer's state lock may be mid-acquire — which is why this sets
    ``lockset._armed`` directly (a plain store the instrumented paths
    read first) instead of calling ``lockset.disarm()`` (which takes
    that lock).  Fresh metrics/tracer instances replace the inherited
    globals so the child never touches their possibly-held mutexes, and
    parent-armed faults are cleared: process chaos is injected over the
    wire, not inherited.
    """
    lockset._armed = False
    set_lock_factory(None)
    obs.set_metrics(obs.MetricsRegistry())
    obs.set_tracer(obs.Tracer(enabled=False))
    testing.reset()


@shared_state(guard="_lock")
class _ChaosState:
    """Child-side chaos switchboard shared by both worker threads."""

    def __init__(self) -> None:
        self._lock = new_lock("serve.proc.ChaosState")
        self._hang_until = 0.0
        self._corrupt_remaining = 0

    def hang_for(self, seconds: float) -> None:
        with self._lock:
            self._hang_until = max(
                self._hang_until, time.monotonic() + float(seconds)
            )

    def stall(self) -> None:
        """Block while a hang window is active (both threads call this,
        so a hung worker stops serving *and* stops answering pings —
        alive to the OS, dead to the pool)."""
        while True:
            with self._lock:
                remaining = self._hang_until - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.05))

    def corrupt(self, frames: int) -> None:
        with self._lock:
            self._corrupt_remaining += int(frames)

    def take_corrupt(self) -> bool:
        with self._lock:
            if self._corrupt_remaining > 0:
                self._corrupt_remaining -= 1
                return True
            return False


def _heartbeat_loop(sock: Any, state: _ChaosState) -> None:
    """Child control channel: answer pings, absorb hang orders."""
    while True:
        try:
            message = recv_frame(sock, None)
        except TransportError:
            return  # parent went away; the data loop decides shutdown
        op = message.get("op")
        if op == "hang":
            # Send-only op (a delayed reply would desync the ping
            # stream); takes effect on the next stall() in any thread.
            state.hang_for(float(message.get("seconds", 0.0)))
            continue
        state.stall()
        if op == "ping":
            try:
                send_frame(sock, {"op": "pong", "seq": message.get("seq")})
            except TransportError:
                return


def _handle(
    service: RecommendationService, state: _ChaosState, message: Dict[str, Any]
) -> Dict[str, Any]:
    """Execute one data-channel request; never raises."""
    op = message.get("op")
    if op == "recommend":
        try:
            response = service.recommend(
                message["user"],
                top_n=message.get("top_n"),
                exclude=message.get("exclude"),
                deadline=message.get("deadline"),
            )
        except ValueError as err:
            # Malformed request: the contract says surface it — relayed
            # as data so the parent re-raises it caller-side.
            return {"ok": False, "error": "ValueError", "message": str(err)}
        return {
            "ok": True,
            "items": response.items,
            "level": response.level,
            "latency": response.latency,
            "retries": response.retries,
            "deadline_hit": response.deadline_hit,
            "breaker_state": response.breaker_state,
            "model_version": response.model_version,
        }
    if op == "poll_reload":
        return {"ok": True, "outcome": service.poll_reload()}
    if op == "ready":
        return {"ok": True, "ready": service.ready()}
    if op == "health":
        return {"ok": True, "health": service.health()}
    if op == "chaos-corrupt":
        state.corrupt(int(message.get("count", 1)))
        return {"ok": True, "armed": True}
    return {"ok": False, "error": "UnknownOp", "message": f"unknown op {op!r}"}


def _data_loop(
    sock: Any, service: RecommendationService, state: _ChaosState
) -> None:
    """Child main thread: one request, one reply, in order."""
    while True:
        try:
            message = recv_frame(sock, None)
        except TransportError:
            return
        state.stall()
        op = message.get("op")
        if op == "shutdown":
            try:
                send_frame(sock, {"op": "bye", "seq": message.get("seq"), "ok": True})
            except TransportError:
                return
            return
        reply = _handle(service, state, message)
        reply["seq"] = message.get("seq")
        # Corruption chaos damages scoring responses only, so the ack
        # that armed it (and health probes) stay trustworthy.
        corrupt = state.take_corrupt() if op == "recommend" else False
        try:
            send_frame(sock, reply, corrupt=corrupt)
        except TransportError:
            return


def _report_start_failure(sock: Any, worker_id: int, err: BaseException) -> None:
    try:
        send_frame(
            sock,
            {
                "op": "failed",
                "worker": worker_id,
                "message": f"{type(err).__name__}: {err}",
            },
        )
    except TransportError:
        return  # parent already gone; the exit code is the only signal


def _worker_main(
    spec: WorkerSpec, worker_id: int, data_sock: Any, ctrl_sock: Any
) -> None:
    """Entry point of one worker subprocess."""
    _child_hygiene()
    if spec.start_delay > 0:
        time.sleep(spec.start_delay)
    try:
        service = build_worker_service(spec)
    except BaseException as err:
        _report_start_failure(ctrl_sock, worker_id, err)
        os._exit(1)
    try:
        send_frame(
            ctrl_sock, {"op": "up", "worker": worker_id, "pid": os.getpid()}
        )
    except TransportError:
        os._exit(1)
    state = _ChaosState()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(ctrl_sock, state),
        name=f"repro-serve-proc-{worker_id}-heartbeat",
        daemon=True,
    )
    heartbeat.start()
    _data_loop(data_sock, service, state)
    # _exit instead of a normal return: a forked child must not run the
    # parent's atexit hooks or flush inherited handles it does not own.
    os._exit(0)


# ----------------------------------------------------------------------
# the parent-side client
# ----------------------------------------------------------------------
def _close_quietly(sock: Optional[Any]) -> None:
    if sock is None:
        return
    try:
        sock.close()
    except OSError:
        return  # already gone — exactly what close wanted


def _reap(proc: Optional[Any]) -> None:
    """Force a process down and collect it (idempotent)."""
    if proc is None:
        return
    if proc.is_alive():
        proc.kill()
    proc.join(timeout=2.0)


@shared_state
class _DataChannel:
    """One data connection to a worker, pipelined in send order.

    ``_send_lock`` guards sequence numbering and ``send_frame``, so
    frames never interleave and sequence order is wire order.  The child
    replies strictly in order, so the caller holding sequence *s* reads
    the socket only once reply *s − 1* has been read: ``_turn_lock``
    guards that reply counter and the failure flag, and ``_turn`` is the
    condition queued callers wait on.  Whoever reads must either advance
    the counter or :meth:`fail` the channel, so the queue never stalls
    behind a caller that gave up.

    Built by :meth:`ProcWorker.start` next to the socket it wraps: a
    caller still holding a torn-down channel can only ever touch that
    channel's counters, never those of a respawned one.
    """

    def __init__(self, sock: Any, worker_id: int) -> None:
        self.sock = sock
        self._send_lock = new_lock(f"serve.ProcWorker{worker_id}.send")
        self._turn_lock = new_lock(f"serve.ProcWorker{worker_id}.turn")
        self._turn = threading.Condition(self._turn_lock)
        self._next_seq = 1
        self._next_reply = 1
        self._failure: Optional[str] = None

    def send(self, message: Dict[str, Any]) -> int:
        """Number ``message``, put it on the wire, return its sequence."""
        with self._send_lock:
            seq = self._next_seq
            self._next_seq = seq + 1
            message["seq"] = seq
            send_frame(self.sock, message)
        return seq

    def receive(self, seq: int, timeout: float) -> Dict[str, Any]:
        """Wait for the turn of reply ``seq``, then read it.

        ``timeout`` starts when the turn begins, so a request queued
        behind a slow one is not charged for the wait.  Raises
        :class:`TransportError` when the channel failed (here or in an
        earlier caller) — immediately, not after ``timeout``.
        """
        with self._turn_lock:
            while self._next_reply != seq and self._failure is None:
                self._turn.wait()
            if self._failure is not None:
                raise TransportError(f"channel poisoned: {self._failure}")
        try:
            reply = recv_frame(self.sock, timeout)
            if reply.get("seq") != seq:
                raise TransportError(
                    f"answered out of sequence "
                    f"(got {reply.get('seq')}, wanted {seq})"
                )
        except BaseException as err:
            self.fail(f"{type(err).__name__}: {err}")
            raise
        with self._turn_lock:
            self._next_reply = seq + 1
            self._turn.notify_all()
        return reply

    def fail(self, reason: str) -> None:
        """Poison the channel and release every caller queued on it."""
        with self._turn_lock:
            if self._failure is None:
                self._failure = reason
            self._turn.notify_all()

    def close(self) -> None:
        self.fail("channel closed")
        _close_quietly(self.sock)


@shared_state(guard="_lock")
class ProcWorker:
    """Parent-side handle to one worker subprocess.

    Satisfies the worker protocol :class:`ShardedService` routes to
    (``recommend / poll_reload / ready / health``) plus the lifecycle
    the :class:`Supervisor` drives (``ping / kill / respawn / alive /
    broken``).

    Failure semantics: every transport problem on the data channel
    marks the worker **broken** — callers already queued on the channel
    and all subsequent calls raise :class:`WorkerUnavailable`
    immediately (the front door reroutes) until :meth:`respawn` brings
    up a fresh process on fresh channels.
    ``recommend`` raises ``ValueError`` only for malformed requests,
    matching the in-process service contract.

    Locking: ``_lock`` guards the mutable slots (process handle,
    channels, flags, in-flight count).  The data channel is pipelined by
    :class:`_DataChannel`: its send lock is held only to number and send
    one frame, and callers then read their replies in send order, each
    waiting on the channel's turn condition for the reply before its
    own.  ``_ctrl_lock`` serialises the heartbeat channel, one ping and
    its pong at a time.  Channel locks are never taken while holding
    ``_lock``, and socket reads happen outside every lock.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        worker_id: int = 0,
        *,
        start_timeout: float = 10.0,
        request_timeout: float = 2.0,
        heartbeat_timeout: float = 0.5,
        start_method: str = "fork",
    ) -> None:
        if start_timeout <= 0 or request_timeout <= 0 or heartbeat_timeout <= 0:
            raise ValueError("timeouts must be > 0")
        self.spec = spec
        self.worker_id = int(worker_id)
        self.start_timeout = start_timeout
        self.request_timeout = request_timeout
        self.heartbeat_timeout = heartbeat_timeout
        if start_method == "fork":
            require_fork_start_method(
                "process-isolated serving workers (start_method='fork')"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = new_lock(f"serve.ProcWorker{self.worker_id}")
        self._ctrl_lock = new_lock(f"serve.ProcWorker{self.worker_id}.ctrl")
        self._ctrl_seq = count(1)
        self._proc: Optional[Any] = None
        self._data: Optional[_DataChannel] = None
        self._ctrl: Optional[Any] = None
        self._broken = True  # nothing to talk to until start()
        self._closed = False
        self._inflight = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: Optional[float] = None) -> "ProcWorker":
        """Fork the worker and wait for its ``up`` handshake."""
        budget = self.start_timeout if timeout is None else timeout
        testing.delay(testing.PROC_START)
        parent_data, child_data = worker_channel()
        parent_ctrl, child_ctrl = worker_channel()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.spec, self.worker_id, child_data, child_ctrl),
            name=f"repro-serve-proc-{self.worker_id}",
            daemon=True,
        )
        proc.start()
        # The child inherited its ends across the fork; drop ours so a
        # dead child reads as EOF instead of a silent stall.
        child_data.close()
        child_ctrl.close()
        try:
            hello = recv_frame(parent_ctrl, budget)
        except TransportError as err:
            _reap(proc)
            _close_quietly(parent_data)
            _close_quietly(parent_ctrl)
            raise WorkerUnavailable(
                f"worker {self.worker_id} did not come up within {budget}s: {err}"
            ) from err
        if hello.get("op") != "up":
            _reap(proc)
            _close_quietly(parent_data)
            _close_quietly(parent_ctrl)
            raise WorkerUnavailable(
                f"worker {self.worker_id} failed to start: "
                f"{hello.get('message', hello)}"
            )
        channel = _DataChannel(parent_data, self.worker_id)
        with self._lock:
            self._proc = proc
            self._data = channel
            self._ctrl = parent_ctrl
            self._broken = False
            self._closed = False
        return self

    def respawn(self, timeout: Optional[float] = None) -> "ProcWorker":
        """Tear down whatever is left and bring up a fresh process."""
        with self._lock:
            proc, data, ctrl = self._proc, self._data, self._ctrl
            self._proc = None
            self._data = None
            self._ctrl = None
            self._broken = True
        if data is not None:
            data.close()
        _close_quietly(ctrl)
        _reap(proc)
        self.start(timeout)
        with self._lock:
            self.restarts += 1
        return self

    def kill(self) -> Optional[int]:
        """SIGKILL the worker (supervisor's answer to a hang) and mark
        it broken; returns the pid that was signalled."""
        with self._lock:
            proc = self._proc
            self._broken = True
        if proc is None or proc.pid is None or not proc.is_alive():
            return None
        os.kill(proc.pid, signal.SIGKILL)
        return proc.pid

    def shutdown(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting requests, drain in-flight ones, stop the
        child (politely, then with SIGKILL), close the channels."""
        with self._lock:
            already = self._closed
            self._closed = True
            proc, data, ctrl = self._proc, self._data, self._ctrl
            broken = self._broken
        deadline = time.monotonic() + max(timeout, 0.0)
        if drain and not already:
            while time.monotonic() < deadline:
                with self._lock:
                    inflight = self._inflight
                if inflight == 0:
                    break
                time.sleep(0.005)
        if proc is not None and not broken and proc.is_alive():
            self._request_shutdown(data, deadline)
        if proc is not None:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        _reap(proc)
        if data is not None:
            data.close()
        _close_quietly(ctrl)
        with self._lock:
            self._proc = None
            self._data = None
            self._ctrl = None
            self._broken = True

    def _request_shutdown(
        self, channel: _DataChannel, deadline: float
    ) -> bool:
        """Queue a ``shutdown`` behind any requests still in flight."""
        try:
            self._roundtrip(
                channel,
                {"op": "shutdown"},
                timeout=max(0.1, deadline - time.monotonic()),
            )
        except WorkerUnavailable:
            return False  # already dead; _reap finishes the job
        return True

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def alive(self) -> bool:
        with self._lock:
            proc = self._proc
        return proc is not None and proc.is_alive()

    def broken(self) -> bool:
        with self._lock:
            return self._broken or self._closed

    @property
    def pid(self) -> Optional[int]:
        with self._lock:
            return None if self._proc is None else self._proc.pid

    def ping(self, timeout: Optional[float] = None) -> bool:
        """One heartbeat round trip; ``False`` on any miss.

        A late pong from an earlier missed ping is drained (matched by
        sequence number), so one slow beat does not poison the stream.
        """
        wait = self.heartbeat_timeout if timeout is None else timeout
        with self._lock:
            if self._broken or self._closed or self._ctrl is None:
                return False
            ctrl = self._ctrl
        deadline = time.monotonic() + wait
        with self._ctrl_lock:
            seq = next(self._ctrl_seq)
            try:
                send_frame(ctrl, {"op": "ping", "seq": seq})
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    reply = recv_frame(ctrl, remaining)
                    if reply.get("op") == "pong" and reply.get("seq") == seq:
                        return True
            except TransportTimeout:
                return False
            except TransportError:
                self._poison()
                return False

    # ------------------------------------------------------------------
    # chaos hooks (driven by ProcessPool.inject_fault)
    # ------------------------------------------------------------------
    def hang(self, seconds: float) -> None:
        """Order the child to stall both its threads (hang-without-exit
        chaos); send-only, so the control stream stays aligned."""
        with self._lock:
            if self._broken or self._closed or self._ctrl is None:
                raise WorkerUnavailable(
                    f"worker {self.worker_id} is down; nothing to hang"
                )
            ctrl = self._ctrl
        with self._ctrl_lock:
            try:
                send_frame(ctrl, {"op": "hang", "seconds": float(seconds)})
            except TransportError as err:
                self._poison()
                raise WorkerUnavailable(
                    f"worker {self.worker_id} unreachable: {err}"
                ) from err

    def corrupt_next(self, frames: int = 1) -> bool:
        """Arm the child to damage its next ``frames`` scoring replies."""
        reply = self._roundtrip(
            self._data_channel(), {"op": "chaos-corrupt", "count": int(frames)}
        )
        return bool(reply.get("armed", False))

    # ------------------------------------------------------------------
    # the worker protocol (what ShardedService calls)
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int,
        top_n: Optional[int] = None,
        exclude: Optional[Any] = None,
        deadline: Optional[float] = None,
    ) -> ServeResponse:
        sock = self._data_channel()
        with self._lock:
            self._inflight += 1
        try:
            reply = self._roundtrip(
                sock,
                {
                    "op": "recommend",
                    "user": int(user),
                    "top_n": top_n,
                    "exclude": (
                        None
                        if exclude is None
                        else sorted(int(i) for i in exclude)
                    ),
                    "deadline": deadline,
                },
            )
        finally:
            with self._lock:
                self._inflight -= 1
        if not reply.get("ok", False):
            if reply.get("error") == "ValueError":
                raise ValueError(reply.get("message", "invalid request"))
            raise WorkerUnavailable(
                f"worker {self.worker_id} rejected the request: "
                f"{reply.get('message', reply)}"
            )
        return ServeResponse(
            user=int(user),
            items=np.asarray(reply["items"]),
            level=str(reply["level"]),
            latency=float(reply["latency"]),
            retries=int(reply.get("retries", 0)),
            deadline_hit=bool(reply.get("deadline_hit", False)),
            breaker_state=str(reply.get("breaker_state", "closed")),
            model_version=str(reply.get("model_version", "unknown")),
        )

    def poll_reload(self) -> str:
        try:
            reply = self._roundtrip(
                self._data_channel(),
                {"op": "poll_reload"},
                timeout=max(self.request_timeout, 5.0),
            )
        except WorkerUnavailable:
            return "down"
        return str(reply.get("outcome", "error"))

    def ready(self) -> bool:
        try:
            reply = self._roundtrip(self._data_channel(), {"op": "ready"})
        except WorkerUnavailable:
            return False
        return bool(reply.get("ready", False))

    def health(self) -> Dict[str, Any]:
        try:
            reply = self._roundtrip(self._data_channel(), {"op": "health"})
        except WorkerUnavailable:
            return {
                "status": "down",
                "ready": False,
                "worker": self.worker_id,
                "alive": self.alive(),
            }
        health = dict(reply.get("health", {}))
        health["worker"] = self.worker_id
        health["alive"] = True
        return health

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _data_channel(self) -> _DataChannel:
        with self._lock:
            if self._closed:
                raise WorkerUnavailable(
                    f"worker {self.worker_id} is shut down"
                )
            if self._broken or self._data is None:
                raise WorkerUnavailable(f"worker {self.worker_id} is down")
            return self._data

    def _roundtrip(
        self,
        channel: _DataChannel,
        message: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        wait = self.request_timeout if timeout is None else timeout
        try:
            seq = channel.send(message)
            return channel.receive(seq, wait)
        except TransportError as err:
            self._poison(channel, str(err))
            raise WorkerUnavailable(
                f"worker {self.worker_id} transport failed: {err}"
            ) from err

    def _poison(
        self, channel: Optional[_DataChannel] = None, reason: str = "poisoned"
    ) -> None:
        """Mark the worker broken and fail its data channel.

        ``channel`` names the connection that failed; a caller still
        holding one that a respawn already replaced leaves the new
        process alone.
        """
        with self._lock:
            current = self._data
            if channel is None or channel is current:
                self._broken = True
        if channel is None:
            channel = current
        if channel is not None:
            channel.fail(reason)


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ProcessPool:
    """N process-isolated workers behind the sharded front door.

    Builds one :class:`ProcWorker` per shard, routes through
    :class:`ShardedService` (so failover, the never-error ladder, the
    stale and hot-key caches, and all ``serve.pool.*`` metrics work
    unchanged), and runs a :class:`Supervisor` that respawns crashed or
    hung workers with backoff and a restart-budget circuit.

    All attributes are assigned once in ``__init__`` and treated as
    immutable; the mutable state lives inside the workers, the front
    door, and the supervisor, each of which guards its own.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        num_workers: int,
        *,
        shard_seed: int = 0,
        popularity: Optional[np.ndarray] = None,
        hot_ttl: float = 0.0,
        down_cooldown: float = 0.25,
        max_failover: Optional[int] = None,
        start_timeout: float = 10.0,
        request_timeout: float = 2.0,
        heartbeat_timeout: float = 0.5,
        start_method: str = "fork",
        supervise: bool = True,
        supervisor_interval: float = 0.05,
        max_missed: int = 3,
        restart_budget: int = 5,
        budget_window: float = 30.0,
        respawn_backoff: Optional[RetryPolicy] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.spec = spec
        self.workers: List[ProcWorker] = [
            ProcWorker(
                spec,
                worker_id,
                start_timeout=start_timeout,
                request_timeout=request_timeout,
                heartbeat_timeout=heartbeat_timeout,
                start_method=start_method,
            )
            for worker_id in range(num_workers)
        ]
        started: List[ProcWorker] = []
        try:
            for worker in self.workers:
                worker.start()
                started.append(worker)
        except WorkerUnavailable:
            for worker in started:
                worker.shutdown(drain=False, timeout=1.0)
            raise
        self.service = ShardedService(
            self.workers,
            shard_map=ShardMap(num_workers, seed=shard_seed),
            popularity=popularity if popularity is not None else spec.popularity,
            down_cooldown=down_cooldown,
            max_failover=max_failover,
            hot_ttl=hot_ttl,
            metrics=metrics,
        )
        self.metrics = metrics
        self.supervisor: Optional[Supervisor] = None
        if supervise:
            self.supervisor = Supervisor(
                self.workers,
                interval=supervisor_interval,
                heartbeat_timeout=heartbeat_timeout,
                max_missed=max_missed,
                restart_budget=restart_budget,
                budget_window=budget_window,
                backoff=respawn_backoff,
                metrics=metrics,
            )
            self.supervisor.start()

    # ------------------------------------------------------------------
    # the service protocol (what run_load and the CLI drive)
    # ------------------------------------------------------------------
    def recommend(self, *args: Any, **kwargs: Any) -> Any:
        return self.service.recommend(*args, **kwargs)

    def poll_reload(self) -> List[str]:
        return self.service.poll_reload()

    def ready(self) -> bool:
        return self.service.ready()

    def health(self) -> Dict[str, Any]:
        health = self.service.health()
        if self.supervisor is not None:
            health["supervisor"] = self.supervisor.status()
        return health

    @property
    def shard_map(self) -> ShardMap:
        return self.service.shard_map

    # ------------------------------------------------------------------
    # chaos
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        kind: str,
        worker: int = 0,
        seconds: float = 0.5,
        frames: int = 1,
    ) -> Any:
        """Process-level fault injection for the chaos harness.

        ``proc-kill`` SIGKILLs the worker *without* telling its handle —
        the pool finds out the way production would (transport EOF,
        missed heartbeats).  ``proc-hang`` stalls both child threads for
        ``seconds``; ``proc-corrupt`` damages the next ``frames``
        scoring replies.  A fault aimed at an already-down worker is a
        no-op returning ``None`` (chaos must not error the harness).
        """
        target = self.workers[int(worker) % len(self.workers)]
        if kind == "proc-kill":
            pid = target.pid
            if pid is not None and target.alive():
                os.kill(pid, signal.SIGKILL)
                return pid
            return None
        if kind == "proc-hang":
            try:
                target.hang(seconds)
            except WorkerUnavailable:
                return None
            return seconds
        if kind == "proc-corrupt":
            try:
                return target.corrupt_next(frames)
            except WorkerUnavailable:
                return None
        raise ValueError(f"unknown process fault kind {kind!r}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop supervision (no respawns during teardown), then drain
        and stop every worker."""
        if self.supervisor is not None:
            self.supervisor.stop()
        for worker in self.workers:
            worker.shutdown(drain=drain)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def build_service(
    spec: WorkerSpec,
    num_workers: int,
    *,
    backend: str = "thread",
    shard_seed: int = 0,
    hot_ttl: float = 0.0,
    **pool_kwargs: Any,
) -> Any:
    """A sharded service over ``num_workers`` replicas of ``spec``.

    ``backend="thread"`` keeps every worker in-process (PR 8 semantics);
    ``backend="process"`` isolates each worker in its own supervised
    subprocess.  Both score bit-identically for the same spec and
    requests — the process backend adds fault domains, not behavior.
    """
    if backend == "process":
        return ProcessPool(
            spec,
            num_workers,
            shard_seed=shard_seed,
            hot_ttl=hot_ttl,
            **pool_kwargs,
        )
    if backend != "thread":
        raise ValueError(
            f"backend must be 'thread' or 'process', got {backend!r}"
        )
    if pool_kwargs:
        raise ValueError(
            f"thread backend does not take {sorted(pool_kwargs)} "
            f"(process-pool options)"
        )
    workers = [build_worker_service(spec) for _ in range(num_workers)]
    return ShardedService(
        workers,
        shard_map=ShardMap(num_workers, seed=shard_seed),
        popularity=spec.popularity,
        hot_ttl=hot_ttl,
    )


__all__ = [
    "ProcWorker",
    "ProcessPool",
    "WorkerSpec",
    "WorkerUnavailable",
    "build_service",
    "build_worker_service",
]
