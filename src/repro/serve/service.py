"""The resilient recommendation service.

:class:`RecommendationService` wraps any :class:`repro.models.base.
Recommender` (via a provider) behind a request API that *always
answers*.  Failure handling is layered:

- **deadlines** — each request carries a time budget; scoring that
  overruns it is treated as a failure and the request degrades instead
  of blocking the caller;
- **bounded retry** — transient scoring errors are retried with
  exponential backoff and jitter, but only while the deadline budget
  allows;
- **circuit breaker** — consecutive live-path failures open the
  breaker, short-circuiting straight to the degraded rungs until a
  half-open probe proves the model healthy again;
- **degradation ladder** — live model score → the user's last good
  response (TTL'd LRU stale cache) → global popularity ranking.  The
  rung that answered is recorded on every response.

The only exceptions that escape :meth:`RecommendationService.recommend`
are ``ValueError`` for malformed requests (non-positive ``top_n``,
out-of-range user); infrastructure failure is absorbed into degraded
responses, which is the property the chaos tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set

import numpy as np

from .. import obs, testing
from ..concurrency import new_lock, shared_state
from ..eval.metrics import rank_items
from ..perf import CounterRegistry, StopwatchRegistry
from .breaker import CLOSED, CircuitBreaker
from .cache import TTLCache
from .provider import ModelUnavailable, StaticModelProvider

#: Degradation-ladder rungs, best to worst (response.level values).
LEVEL_LIVE = "live"
LEVEL_STALE = "stale"
LEVEL_POPULARITY = "popularity"
LEVELS = (LEVEL_LIVE, LEVEL_STALE, LEVEL_POPULARITY)


class DeadlineExceeded(RuntimeError):
    """A request's time budget ran out on the live-scoring path."""


class Deadline:
    """Absolute expiry computed once per request from a relative budget.

    ``seconds=None`` means unbounded (never expires).
    """

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"deadline must be >= 0, got {seconds}")
        self._clock = clock
        self._expires = None if seconds is None else clock() + seconds

    def remaining(self) -> float:
        if self._expires is None:
            return float("inf")
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        return self._expires is not None and self._clock() >= self._expires


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    ``max_attempts`` counts the first try: 3 means one try plus at most
    two retries.  Backoff for retry *k* is
    ``min(base_delay * multiplier**(k-1), max_delay)`` scaled by a
    uniform jitter in ``[0.5, 1.0]`` so synchronized clients do not
    retry in lockstep.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        # Jitter draws from this seeded generator unless the caller
        # injects their own, so two policies built with the same seed
        # produce identical backoff traces (deterministic chaos runs).
        self._rng = np.random.default_rng(self.seed)

    def backoff(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        cap = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        draw = rng if rng is not None else self._rng
        return cap * (0.5 + 0.5 * float(draw.random()))


@dataclass
class ServeResponse:
    """One answered request, whatever it took.

    ``level`` names the degradation rung that produced ``items``:
    ``"live"`` (fresh model score), ``"stale"`` (re-served from the
    user's last good response), or ``"popularity"`` (global fallback).
    """

    user: int
    items: np.ndarray = field(repr=False)
    level: str
    latency: float
    retries: int = 0
    deadline_hit: bool = False
    breaker_state: str = CLOSED
    model_version: str = "static"

    @property
    def degraded(self) -> bool:
        return self.level != LEVEL_LIVE


@shared_state(guard="_lock")
class RecommendationService:
    """Hardened top-N serving over any provider/model.

    Thread safety: the service's own mutable state — the request
    counter driving piggybacked reloads and the lazily-built popularity
    fallback — sits under one mutex; everything else it touches
    (breaker, stale cache, provider, perf registries) synchronises
    itself.  Scoring, retries, and backoff sleeps all run outside the
    lock, so concurrent requests only serialise for a few counter
    updates.

    Args:
        provider: a model provider (``model() / ready() / version() /
            poll()``) or a bare model, which gets wrapped in a
            :class:`StaticModelProvider`.
        popularity: per-item interaction counts used by the last-resort
            fallback rung (typically ``split.train.item_degrees()``).
            ``None`` degrades the rung to an arbitrary-but-valid
            ranking over the model's item range.
        default_top_n: list length when a request does not specify one.
        default_deadline: per-request time budget in seconds (``None``
            disables deadlines unless a request sets its own).
        retry: live-path retry policy.
        breaker: circuit breaker (a default one is built when omitted).
        stale_ttl / stale_entries: stale-response cache tuning.
        reload_every: when positive, ``provider.poll()`` runs every
            N-th request (hot reload piggybacked on traffic).
        batcher: optional :class:`repro.serve.batching.MicroBatcher`;
            the live rung then scores through the shared micro-batch
            (one matmul per batch of concurrent requests) instead of a
            per-request ``model.recommend`` call.  Batched answers rank
            exactly like the single-user call (tested against the
            offline ranking), so the ladder, breaker, and deadline
            semantics are unchanged —
            batch-level failures surface per request exactly like model
            failures.  When both ``retrieval`` and ``batcher`` are set
            the retrieval tier wins (it already shortlists per user).
        retrieval: optional :class:`repro.retrieval.RetrievalTier`; the
            live rung then answers from the cluster-routed shortlist
            (sub-linear in the catalogue) and any retrieval-layer
            problem — stale index, build failure, thin shortlist —
            falls back to exact scoring within the same rung, counted
            under ``serve.retrieval.*``.  The degradation ladder and
            breaker semantics are unchanged.
        counters / timers: perf registries to share with a wider app
            (a :class:`repro.obs.MetricsRegistry` drops in for
            ``counters`` unchanged).
        tracer: optional :class:`repro.obs.Tracer`; falls back to the
            process-global tracer.  Each answered request records a
            ``serve:request`` span tagged with the degradation rung,
            retry count, breaker state, and deadline outcome, with one
            ``serve:attempt`` child per live-scoring try; request
            latencies also feed the ``serve.request_seconds`` histogram
            of :func:`repro.obs.get_metrics`.
        clock / sleep / jitter_seed: injectable time sources for tests.
    """

    def __init__(
        self,
        provider: Any,
        popularity: Optional[np.ndarray] = None,
        *,
        default_top_n: int = 20,
        default_deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        stale_ttl: float = 300.0,
        stale_entries: int = 1024,
        reload_every: int = 0,
        batcher: Optional[Any] = None,
        retrieval: Optional[Any] = None,
        counters: Optional[CounterRegistry] = None,
        timers: Optional[StopwatchRegistry] = None,
        tracer: Optional[obs.Tracer] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: int = 0,
    ) -> None:
        if default_top_n < 1:
            raise ValueError(f"default_top_n must be >= 1, got {default_top_n}")
        if reload_every < 0:
            raise ValueError(f"reload_every must be >= 0, got {reload_every}")
        if not callable(getattr(provider, "model", None)):
            provider = StaticModelProvider(provider)
        self.provider = provider
        self.default_top_n = default_top_n
        self.default_deadline = default_deadline
        self.retry = retry or RetryPolicy()
        self.counters = counters if counters is not None else CounterRegistry()
        self.timers = timers if timers is not None else StopwatchRegistry()
        self.tracer = obs.resolve_tracer(tracer)
        self.breaker = breaker or CircuitBreaker(clock=clock)
        # Route breaker transitions into counters even for a caller-built
        # breaker that has no listener yet.
        if self.breaker._on_transition is None:
            self.breaker._on_transition = self._on_breaker_transition
        self.stale_cache = TTLCache(
            max_entries=stale_entries, ttl=stale_ttl, clock=clock
        )
        self.reload_every = reload_every
        self.batcher = batcher
        if batcher is not None and getattr(batcher, "counters", None) is None:
            batcher.counters = self.counters
        self.retrieval = retrieval
        if retrieval is not None and getattr(retrieval, "counters", None) is None:
            # Tier outcomes surface in health() with the other counters.
            retrieval.counters = self.counters
        self._clock = clock
        self._sleep = sleep
        self._rng = np.random.default_rng(jitter_seed)
        self._lock = new_lock("serve.RecommendationService")
        self._popularity = (
            None if popularity is None
            else np.asarray(popularity, dtype=np.float64)
        )
        self._requests_seen = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model: Any, train_data: Any = None, **kwargs: Any
    ) -> "RecommendationService":
        """Serve a trained model, deriving the popularity fallback from
        its training interactions (a :class:`~repro.data.TagRecDataset`)."""
        popularity = None if train_data is None else train_data.item_degrees()
        return cls(model, popularity=popularity, **kwargs)

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int,
        top_n: Optional[int] = None,
        exclude: Optional[Iterable[int]] = None,
        deadline: Optional[float] = None,
    ) -> ServeResponse:
        """Answer one top-N request; never raises for backend failure.

        Args:
            user: user index (``ValueError`` when malformed).
            top_n: list length (default ``default_top_n``).
            exclude: item indices that must not be recommended on any
                rung (typically the user's training items).
            deadline: per-request budget in seconds, overriding
                ``default_deadline``.
        """
        top_n = self.default_top_n if top_n is None else int(top_n)
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        user = int(user)
        if user < 0:
            raise ValueError(f"user must be >= 0, got {user}")
        self._validate_user_range(user)

        start = self._clock()
        with self.tracer.span("serve:request", user=user) as span:
            self.counters.add("serve.requests")
            with self._lock:
                self._requests_seen += 1
                seen = self._requests_seen
            # Reload outside the lock: provider polls do file I/O.
            if self.reload_every and seen % self.reload_every == 0:
                self.poll_reload()

            budget = deadline if deadline is not None else self.default_deadline
            request_deadline = Deadline(budget, self._clock)
            excluded: Set[int] = (
                set() if exclude is None else set(int(i) for i in exclude)
            )

            items: Optional[np.ndarray] = None
            level = LEVEL_POPULARITY
            retries = 0
            if self.breaker.allow():
                try:
                    items, retries = self._score_live(
                        user, top_n, excluded, request_deadline
                    )
                    self.breaker.record_success()
                    level = LEVEL_LIVE
                    self.stale_cache.put(user, items)
                except DeadlineExceeded:
                    self.counters.add("serve.deadline_exceeded")
                    self.breaker.record_failure()
                except ModelUnavailable:
                    self.counters.add("serve.unready")
                except Exception:
                    self.counters.add("serve.errors")
                    self.breaker.record_failure()
            else:
                self.counters.add("serve.breaker.short_circuit")

            if items is None:
                items = self._from_stale(user, top_n, excluded)
                if items is not None:
                    level = LEVEL_STALE

            if items is None:
                items = self._popular(top_n, excluded)
                level = LEVEL_POPULARITY

            self.counters.add(f"serve.responses.{level}")
            if level != LEVEL_LIVE:
                self.counters.add("serve.degraded")
            latency = self._clock() - start
            self.timers.record("serve.request", latency)
            breaker_state = self.breaker.state
            deadline_hit = request_deadline.expired()
            span.set_attributes(
                level=level,
                retries=retries,
                breaker=breaker_state,
                deadline_hit=deadline_hit,
            )
        obs.get_metrics().histogram("serve.request_seconds").observe(latency)
        return ServeResponse(
            user=user,
            items=items,
            level=level,
            latency=latency,
            retries=retries,
            deadline_hit=deadline_hit,
            breaker_state=breaker_state,
            model_version=self.provider.version(),
        )

    # ------------------------------------------------------------------
    # ladder rungs
    # ------------------------------------------------------------------
    def _score_live(
        self, user: int, top_n: int, exclude: Set[int], deadline: Deadline
    ):
        """Live rung: score with retry/backoff inside the deadline."""
        attempt = 0
        while True:
            if deadline.expired():
                raise DeadlineExceeded(
                    f"deadline expired before scoring attempt {attempt + 1}"
                )
            attempt += 1
            try:
                self.counters.add("serve.score.attempts")
                with self.timers.timed("serve.score"), self.tracer.span(
                    "serve:attempt", attempt=attempt
                ):
                    testing.check(testing.SERVE_SCORE)
                    testing.delay(testing.SERVE_SCORE)
                    model = self.provider.model()
                    items = None
                    if self.retrieval is not None:
                        items = self.retrieval.recommend(
                            self.provider, user, top_n=top_n, exclude=exclude
                        )
                    if items is None and self.batcher is not None:
                        items = self.batcher.recommend(
                            user, top_n=top_n, exclude=exclude
                        )
                    if items is None:
                        items = model.recommend(
                            user, top_n=top_n, exclude=exclude
                        )
            except ModelUnavailable:
                raise
            except Exception:
                self.counters.add("serve.score.errors")
                if attempt >= self.retry.max_attempts:
                    raise
                backoff = self.retry.backoff(attempt, self._rng)
                if deadline.remaining() <= backoff:
                    raise
                self.counters.add("serve.retries")
                self._sleep(backoff)
                continue
            if deadline.expired():
                # The answer arrived after the caller's budget: the
                # caller has already timed out, so treat it as a miss
                # (and a breaker failure signal — slow is broken).
                raise DeadlineExceeded("scoring completed after the deadline")
            return np.asarray(items), attempt - 1

    def _from_stale(
        self, user: int, top_n: int, exclude: Set[int]
    ) -> Optional[np.ndarray]:
        """Stale rung: the user's last good list, minus excluded items."""
        cached = self.stale_cache.get(user)
        if cached is None:
            self.counters.add("serve.cache.misses")
            return None
        usable = np.asarray([i for i in cached if int(i) not in exclude])
        if usable.size == 0:
            self.counters.add("serve.cache.misses")
            return None
        self.counters.add("serve.cache.hits")
        return usable[:top_n]

    def _popular(self, top_n: int, exclude: Set[int]) -> np.ndarray:
        """Last-resort rung: global popularity order (always answers)."""
        scores = self._popularity_scores()
        if scores is None:
            return np.empty(0, dtype=np.int64)
        return rank_items(scores, exclude, top_n)

    def _popularity_scores(self) -> Optional[np.ndarray]:
        # Lazy init under the lock: two degraded requests racing here
        # would otherwise both build (and one would clobber) the table.
        with self._lock:
            if self._popularity is None:
                try:
                    num_items = self.provider.model().num_items
                except Exception:
                    return None
                # Uniform scores: an arbitrary but valid, in-range ranking.
                self._popularity = np.zeros(num_items, dtype=np.float64)
            return self._popularity

    def _validate_user_range(self, user: int) -> None:
        if not self.provider.ready():
            return
        num_users = getattr(self.provider.model(), "num_users", None)
        if num_users is not None and user >= num_users:
            raise ValueError(
                f"user {user} out of range (model serves {num_users} users)"
            )

    # ------------------------------------------------------------------
    # hot reload
    # ------------------------------------------------------------------
    def poll_reload(self) -> str:
        """Ask the provider for a newer model; outcome lands in the
        ``serve.reload.*`` counters and is returned.  Never raises."""
        try:
            outcome = self.provider.poll()
        except Exception:  # a broken reload must not break serving
            outcome = "error"
        self.counters.add(f"serve.reload.{outcome}")
        return outcome

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Readiness probe: can this process answer live traffic at all?"""
        return bool(self.provider.ready())

    def health(self) -> Dict[str, Any]:
        """Liveness/health probe snapshot.

        ``status`` is ``"ok"`` (ready, breaker closed), ``"degraded"``
        (ready but the breaker is open or half-open), or ``"unready"``
        (no model loaded yet).
        """
        breaker_state = self.breaker.state
        ready = self.ready()
        if not ready:
            status = "unready"
        elif breaker_state == CLOSED:
            status = "ok"
        else:
            status = "degraded"
        self.stale_cache.purge_expired()
        return {
            "status": status,
            "ready": ready,
            "breaker": breaker_state,
            "model_version": self.provider.version(),
            "stale_entries": len(self.stale_cache),
            "counters": self.counters.as_dict(),
        }

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.counters.add(f"serve.breaker.{new}")
