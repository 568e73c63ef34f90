"""Process-isolated worker pool: lifecycle, chaos, and bit-identity.

Each worker here is a real forked subprocess serving over the framed
socket transport, so these tests exercise genuine process death
(``SIGKILL``), genuine hangs (both child threads stalled), and genuine
respawns — not simulations.  Timings are tuned tight (50 ms supervisor
sweeps, sub-second heartbeat windows) to keep the suite fast while
still crossing real scheduler boundaries.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import testing
from repro.ckpt import CheckpointManager
from repro.models import BPRMF
from repro.obs import MetricsRegistry
from repro.serve import (
    LEVEL_LIVE,
    LEVEL_POPULARITY,
    ProcessPool,
    ProcWorker,
    RetryPolicy,
    WorkerSpec,
    WorkerUnavailable,
    build_service,
)
from repro.serve import proc
from repro.serve.provider import RELOADED
from repro.serve.transport import (
    TransportTimeout,
    recv_frame,
    send_frame,
    worker_channel,
)

NUM_USERS, NUM_ITEMS, DIM = 32, 12, 6
POPULARITY = np.arange(NUM_ITEMS, dtype=np.float64)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    testing.reset()


def make_model():
    return BPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=np.random.default_rng(7))


def make_spec(**overrides):
    defaults = dict(
        builder=make_model,
        popularity=POPULARITY,
        default_top_n=3,
        breaker_recovery=0.1,
    )
    defaults.update(overrides)
    return WorkerSpec(**defaults)


def wait_until(predicate, timeout=8.0, interval=0.02):
    """Poll ``predicate`` until truthy; returns its final value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def pool():
    with ProcessPool(
        make_spec(),
        4,
        supervisor_interval=0.05,
        heartbeat_timeout=0.3,
        request_timeout=1.0,
        down_cooldown=0.1,
        metrics=MetricsRegistry(),
    ) as active:
        yield active


class TestLifecycle:
    def test_workers_start_and_serve_live(self, pool):
        for worker in pool.workers:
            assert worker.alive()
            assert worker.pid not in (None, os.getpid())
        response = pool.recommend(5, top_n=3)
        assert response.level == LEVEL_LIVE
        assert len(response.items) == 3
        assert response.worker == pool.shard_map.shard_of(5)

    def test_every_user_lands_on_their_shard(self, pool):
        for user in range(NUM_USERS):
            response = pool.recommend(user, top_n=2)
            assert response.level == LEVEL_LIVE
            assert response.worker == pool.shard_map.shard_of(user)

    def test_malformed_requests_still_raise_value_error(self, pool):
        with pytest.raises(ValueError):
            pool.recommend(-1)
        with pytest.raises(ValueError):
            pool.recommend(1, top_n=0)

    def test_worker_relays_child_side_value_error(self, pool):
        # Validation that only the child's service performs must come
        # back as ValueError, not as a worker failure.
        with pytest.raises(ValueError):
            pool.workers[0].recommend(user=NUM_USERS + 10, top_n=3)
        assert not pool.workers[0].broken()

    def test_health_and_ready_reflect_live_children(self, pool):
        assert pool.ready()
        health = pool.health()
        assert health["status"] == "ok"
        assert len(health["workers"]) == 4
        assert len(health["supervisor"]) == 4
        for entry in health["supervisor"]:
            assert entry["alive"] and not entry["disabled"]

    def test_shutdown_leaves_no_processes(self):
        pool = ProcessPool(make_spec(), 2, supervise=False)
        pids = [worker.pid for worker in pool.workers]
        pool.close()
        for worker in pool.workers:
            assert not worker.alive()
        for pid in pids:
            # After close every child must be reaped (waitpid would
            # raise ChildProcessError) or at least dead.
            with pytest.raises(OSError):
                os.kill(pid, 0)
        # Requests after close fail over to the popularity rung rather
        # than erroring: the never-error contract survives shutdown.
        response = pool.recommend(3, top_n=2)
        assert response.level == LEVEL_POPULARITY

    def test_slow_start_beyond_timeout_is_unavailable(self):
        spec = make_spec(start_delay=2.0)
        with pytest.raises(WorkerUnavailable):
            ProcessPool(spec, 2, start_timeout=0.3, supervise=False)

    def test_slow_start_within_timeout_succeeds(self):
        spec = make_spec(start_delay=0.2)
        with ProcessPool(spec, 1, start_timeout=5.0, supervise=False) as pool:
            assert pool.recommend(1, top_n=2).level == LEVEL_LIVE


class TestBitIdentity:
    def test_process_backend_matches_thread_backend(self):
        spec = make_spec()
        threaded = build_service(spec, 4, backend="thread")
        with build_service(
            spec, 4, backend="process", supervise=False
        ) as process:
            for user in range(NUM_USERS):
                exclude = [user % NUM_ITEMS] if user % 3 == 0 else None
                top_n = 2 + user % 4
                a = threaded.recommend(user, top_n=top_n, exclude=exclude)
                b = process.recommend(user, top_n=top_n, exclude=exclude)
                assert a.level == b.level == LEVEL_LIVE
                assert a.worker == b.worker
                assert a.model_version == b.model_version
                np.testing.assert_array_equal(a.items, b.items)


class TestChaos:
    def test_sigkill_is_detected_rerouted_and_respawned(self, pool):
        victim_user = 5
        victim = pool.shard_map.shard_of(victim_user)
        old_pid = pool.workers[victim].pid
        pool.inject_fault("proc-kill", worker=victim)
        wait_until(lambda: not pool.workers[victim].alive(), timeout=2.0)

        # The very next request must not error: the front door reroutes.
        response = pool.recommend(victim_user, top_n=3)
        assert response.level == LEVEL_LIVE
        assert response.worker != victim

        # The supervisor notices the corpse and respawns it.
        assert wait_until(
            lambda: pool.workers[victim].alive()
            and not pool.workers[victim].broken()
        )
        assert pool.workers[victim].pid != old_pid
        assert pool.metrics.get("serve.supervisor.restarts") >= 1

        # Traffic returns to the home shard once the cooldown lapses.
        assert wait_until(
            lambda: pool.recommend(victim_user, top_n=3).worker == victim
        )

    def test_hang_is_convicted_by_heartbeats_and_killed(self):
        metrics = MetricsRegistry()
        with ProcessPool(
            make_spec(),
            2,
            supervisor_interval=0.05,
            heartbeat_timeout=0.2,
            max_missed=2,
            request_timeout=0.5,
            down_cooldown=0.1,
            metrics=metrics,
        ) as pool:
            pool.inject_fault("proc-hang", worker=0, seconds=30.0)
            # Requests during the hang reroute within request_timeout.
            start = time.monotonic()
            response = pool.recommend(0, top_n=2) if (
                pool.shard_map.shard_of(0) == 0
            ) else pool.recommend(1, top_n=2)
            assert response.level == LEVEL_LIVE
            assert time.monotonic() - start < 5.0
            # Conviction: missed heartbeats -> SIGKILL -> respawn.
            assert wait_until(
                lambda: metrics.get("serve.supervisor.hangs") >= 1
            )
            assert wait_until(
                lambda: pool.workers[0].alive()
                and not pool.workers[0].broken()
            )
            assert metrics.get("serve.supervisor.heartbeat_misses") >= 2
            assert metrics.get("serve.supervisor.worker.0.restarts") >= 1

    def test_corrupt_frames_poison_reroute_and_recover(self, pool):
        victim_user = next(
            user for user in range(NUM_USERS)
            if pool.shard_map.shard_of(user) == 1
        )
        assert pool.inject_fault("proc-corrupt", worker=1, frames=1)
        response = pool.recommend(victim_user, top_n=3)
        assert response.level == LEVEL_LIVE
        assert response.worker != 1
        assert response.rerouted >= 1
        # The poisoned channel reads as down until the supervisor
        # replaces the worker.
        assert wait_until(
            lambda: pool.workers[1].alive() and not pool.workers[1].broken()
        )

    def test_restart_budget_trips_the_circuit(self):
        metrics = MetricsRegistry()
        with ProcessPool(
            make_spec(),
            2,
            supervisor_interval=0.05,
            heartbeat_timeout=0.3,
            restart_budget=2,
            budget_window=60.0,
            respawn_backoff=RetryPolicy(
                max_attempts=1, base_delay=0.02, multiplier=1.0,
                max_delay=0.02,
            ),
            down_cooldown=0.05,
            metrics=metrics,
        ) as pool:
            for round_index in range(2):
                pool.inject_fault("proc-kill", worker=0)
                # Wait for the respawn itself (the freshly killed
                # process can still look alive for a beat, so liveness
                # alone would race the supervisor).
                assert wait_until(
                    lambda want=round_index + 1: metrics.get(
                        "serve.supervisor.worker.0.restarts"
                    ) == want
                )
                assert wait_until(
                    lambda: pool.workers[0].alive()
                    and not pool.workers[0].broken()
                )
            # Third death within the window exhausts the budget.
            pool.inject_fault("proc-kill", worker=0)
            assert wait_until(
                lambda: metrics.get("serve.supervisor.disabled") >= 1
            )
            status = pool.supervisor.status()
            assert status[0]["disabled"]
            assert status[0]["restarts"] == 2
            # A disabled shard is routed around forever, never an error.
            for user in range(8):
                assert pool.recommend(user, top_n=2).level == LEVEL_LIVE

    def test_all_workers_dead_falls_back_to_popularity(self):
        with ProcessPool(
            make_spec(), 2, supervise=False, down_cooldown=5.0,
            request_timeout=0.5,
        ) as pool:
            for worker in pool.workers:
                os.kill(worker.pid, signal.SIGKILL)
            wait_until(lambda: not any(w.alive() for w in pool.workers),
                       timeout=2.0)
            response = pool.recommend(3, top_n=3)
            assert response.level == LEVEL_POPULARITY
            np.testing.assert_array_equal(
                response.items, [NUM_ITEMS - 1, NUM_ITEMS - 2, NUM_ITEMS - 3]
            )


class TestDrain:
    def test_shutdown_drains_inflight_requests(self):
        spec = make_spec()
        pool = ProcessPool(spec, 1, supervise=False, request_timeout=5.0)
        results = []

        def client():
            results.append(pool.workers[0].recommend(user=1, top_n=2))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        pool.close(drain=True)
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert all(r.level == LEVEL_LIVE for r in results)
        assert not pool.workers[0].alive()


class TestSupervisorUnit:
    def test_sweep_is_idempotent_on_healthy_workers(self, pool):
        before = [worker.pid for worker in pool.workers]
        for _ in range(5):
            pool.supervisor.sweep()
        assert [worker.pid for worker in pool.workers] == before
        assert all(not s["disabled"] for s in pool.supervisor.status())

    def test_status_reports_missed_and_respawn_eta(self, pool):
        entries = pool.supervisor.status()
        assert len(entries) == 4
        for index, entry in enumerate(entries):
            assert entry["worker"] == index
            assert entry["alive"] is True
            assert entry["missed"] == 0
            assert entry["respawn_in"] is None


# ----------------------------------------------------------------------
# the pipelined data channel
# ----------------------------------------------------------------------
SLOW_SCORE_S = 0.05


class SlowBPRMF(BPRMF):
    """BPRMF that stalls before scoring, so requests overlap in flight."""

    def all_scores(self, users):
        time.sleep(SLOW_SCORE_S)
        return super().all_scores(users)


def make_slow_model():
    return SlowBPRMF(NUM_USERS, NUM_ITEMS, DIM, rng=np.random.default_rng(7))


class SlowReloadBuilder:
    """Builds instantly the first time (start-up), slowly afterwards
    (every hot reload).  Called only inside the forked worker."""

    def __init__(self, delay):
        self.delay = delay
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls > 1:
            time.sleep(self.delay)
        return make_model()


def snapshot(step):
    return {
        "fingerprint": "fp-pipeline",
        "step": step,
        "model": make_model().state_dict(),
    }


def record_wire(monkeypatch):
    """Log the parent's data frames as ``(direction, seq)`` in order.

    Install *after* the worker started, so the fork and the start-up
    handshake run on the real transport.
    """
    log = []
    lock = threading.Lock()
    real_send, real_recv = proc.send_frame, proc.recv_frame

    def send(sock, message, **kwargs):
        real_send(sock, message, **kwargs)
        with lock:
            log.append(("send", message.get("seq")))

    def recv(sock, timeout=None):
        reply = real_recv(sock, timeout)
        with lock:
            log.append(("recv", reply.get("seq")))
        return reply

    monkeypatch.setattr(proc, "send_frame", send)
    monkeypatch.setattr(proc, "recv_frame", recv)
    return log


def sends(log):
    return sum(1 for direction, _ in log if direction == "send")


def in_thread(fn):
    """Run ``fn`` in a thread; the returned dict gets its outcome."""
    outcome = {}

    def body():
        start = time.monotonic()
        try:
            outcome["value"] = fn()
        except Exception as err:  # noqa: BLE001 - recorded for the assert
            outcome["error"] = err
        outcome["elapsed"] = time.monotonic() - start

    thread = threading.Thread(target=body)
    thread.start()
    outcome["thread"] = thread
    return outcome


def two_in_flight(log, first, second):
    """Start ``first``; once its frame is on the wire, start ``second``;
    return once both requests have been sent."""
    a = in_thread(first)
    assert wait_until(lambda: sends(log) >= 1, timeout=2.0)
    b = in_thread(second)
    assert wait_until(lambda: sends(log) >= 2, timeout=2.0)
    return a, b


class TestPipelining:
    def test_second_request_is_sent_before_the_first_reply_is_read(
        self, monkeypatch
    ):
        worker = ProcWorker(make_spec(builder=make_slow_model)).start()
        try:
            log = record_wire(monkeypatch)
            a, b = two_in_flight(
                log,
                lambda: worker.recommend(1, top_n=2),
                lambda: worker.recommend(2, top_n=2),
            )
            for outcome in (a, b):
                outcome["thread"].join(5.0)
                assert "error" not in outcome
                assert outcome["value"].level == LEVEL_LIVE
            assert log == [("send", 1), ("send", 2), ("recv", 1), ("recv", 2)]
        finally:
            worker.shutdown(drain=False, timeout=1.0)

    @pytest.mark.parametrize("fault", ["sigkill", "corrupt", "hang"])
    def test_fault_fails_both_in_flight_callers_within_one_timeout(
        self, monkeypatch, fault
    ):
        timeout = 1.0
        worker = ProcWorker(
            make_spec(builder=make_slow_model), request_timeout=timeout
        ).start()
        try:
            if fault == "corrupt":
                assert worker.corrupt_next(1)
            if fault == "hang":
                worker.hang(30.0)
                # The control stream is in order: a missed ping proves
                # the child took the hang before any request arrives.
                assert not worker.ping(0.2)
            log = record_wire(monkeypatch)
            a, b = two_in_flight(
                log,
                lambda: worker.recommend(1, top_n=2),
                lambda: worker.recommend(2, top_n=2),
            )
            if fault == "sigkill":
                os.kill(worker.pid, signal.SIGKILL)
            # A hang is only detected by the first reply's deadline; the
            # queued caller must then fail at once, not after its own.
            limit = timeout * (1.5 if fault == "hang" else 1.0)
            for outcome in (a, b):
                outcome["thread"].join(5.0)
                assert isinstance(outcome.get("error"), WorkerUnavailable)
                assert outcome["elapsed"] < limit
            assert worker.broken()
            worker.respawn()
            assert not worker.broken()
            assert worker.recommend(1, top_n=2).level == LEVEL_LIVE
        finally:
            worker.shutdown(drain=False, timeout=1.0)

    def test_request_queued_behind_a_slow_reload_is_answered(
        self, monkeypatch, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        manager = CheckpointManager(directory)
        manager.save(snapshot(1), step=1)
        # The reload outlasts the request timeout; the queued request's
        # deadline starts at its turn, so it must still be answered.
        worker = ProcWorker(
            make_spec(
                builder=SlowReloadBuilder(0.8), checkpoint_dir=directory
            ),
            request_timeout=0.5,
        ).start()
        try:
            manager.save(snapshot(2), step=2)
            log = record_wire(monkeypatch)
            reload, request = two_in_flight(
                log, worker.poll_reload, lambda: worker.recommend(1, top_n=2)
            )
            for outcome in (reload, request):
                outcome["thread"].join(5.0)
                assert "error" not in outcome
            assert reload["value"] == RELOADED
            assert request["value"].level == LEVEL_LIVE
            assert request["value"].model_version == "ckpt-step-2"
            assert request["elapsed"] > 0.5
            assert not worker.broken()
        finally:
            worker.shutdown(drain=False, timeout=1.0)

    def test_receive_deadline_never_times_out_a_concurrent_send(self):
        # The reader waits with a short deadline while another thread
        # sends a frame larger than the socket buffer to a peer that
        # drains it late: the send must outlast the reader's deadline.
        parent, child = worker_channel()
        try:
            message = {"op": "bulk", "payload": b"x" * (4 << 20)}
            reader = in_thread(lambda: recv_frame(parent, 0.3))
            time.sleep(0.05)
            sender = in_thread(lambda: send_frame(parent, message))
            reader["thread"].join(5.0)
            assert isinstance(reader.get("error"), TransportTimeout)
            time.sleep(0.5)  # the sender is still blocked, past 0.3 s
            assert recv_frame(child, 5.0) == message
            sender["thread"].join(5.0)
            assert "error" not in sender
        finally:
            parent.close()
            child.close()
