"""Cross-layer robustness: circuit breaking, admission control, hot index reload.

The paper's host↔board contract assumes the wavefront never stalls
mid-scan; a service has to *engineer* that guarantee.  This module
holds the guard-rail machinery the request path threads through:

* :class:`CircuitBreaker` — a per-endpoint closed/open/half-open
  breaker keyed on the :class:`~repro.service.resilience.ServiceError`
  taxonomy.  A backend that keeps failing stops absorbing retries:
  after ``failure_threshold`` consecutive countable failures the
  breaker opens and callers fail fast with :class:`CircuitOpen`; after
  ``recovery_time`` (or at once, when a heartbeat probe gets an
  answer) it half-opens and lets ``half_open_max`` trial calls
  through, closing again on the first success.  It is also the one
  health verdict per cluster node.
* :class:`AdaptiveLimiter` — an AIMD concurrency limit for the TCP
  front-end: on-time completions grow the admission limit additively
  (one extra slot per window of completions), deadline misses and
  timeouts shrink it multiplicatively, so under overload the server
  converges onto the concurrency it can actually serve within budget
  instead of queueing work that will expire — TCP congestion control
  applied to admission.
* :class:`ServiceTimeTracker` — a sliding-window percentile estimator
  over observed service times; the front-end uses its p90 to shed
  requests *at admission* whose remaining deadline budget cannot
  cover the service time they are about to need, so overload drops
  exactly the work that would expire anyway.
* :class:`IndexManager` — generational hot reload.  The live
  :class:`~repro.service.index.DatabaseIndex` is swapped atomically
  under a lock; in-flight sweeps keep the generation they snapshotted
  at admission, new requests see the new one, and every result-cache
  entry from an older generation is evicted on swap (the cache keys on
  content hash *and* generation, so a stale ranking is unreachable
  even before eviction).  This is the software form of the paper's
  reconfigure-between-queries step: the board is reloaded while the
  host keeps its query stream open.

Deadline propagation itself lives in
:mod:`repro.service.resilience` (:class:`Deadline` /
:class:`DeadlineExceeded`) because the supervised pool consumes it;
this module re-exports both so ``guard`` is the one import a caller
needs for the robustness surface.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..obs import NULL_OBS, Observability
from .cache import ResultCache
from .index import DatabaseIndex
from .resilience import (
    Deadline,
    DeadlineExceeded,
    Overloaded,
    RequestTimeout,
    ServiceError,
)

__all__ = [
    "BREAKER_FAILURE_CODES",
    "AdaptiveLimiter",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "IndexManager",
    "ServiceTimeTracker",
]


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitOpen(Overloaded):
    """The endpoint's breaker is open; the call failed fast, unsent.

    Subclasses :class:`~repro.service.resilience.Overloaded` — "this
    endpoint cannot take your request right now, try later" is the
    same contract whether the server said it or the client's breaker
    inferred it — but carries its own code so telemetry can tell a
    local fail-fast from a server-side rejection.
    """

    code = "circuit-open"


#: Taxonomy codes that count as endpoint failures.  Requests the
#: *caller* got wrong (``bad-request``, ``protocol``) say nothing about
#: the endpoint's health and never trip the breaker.
BREAKER_FAILURE_CODES = frozenset(
    {
        "overloaded",
        "timeout",
        "deadline-exceeded",
        "shard-failure",
        "worker-timeout",
        "index-corrupt",
        "internal",
    }
)


class CircuitBreaker:
    """Per-endpoint closed → open → half-open breaker.

    State machine:

    * **closed** — traffic flows; ``failure_threshold`` *consecutive*
      countable failures (see :func:`counts_as_failure`) trip it open.
    * **open** — :meth:`allow` raises :class:`CircuitOpen` without
      touching the network, until ``recovery_time`` seconds have
      passed since the trip.
    * **half-open** — up to ``half_open_max`` concurrent trial
      calls are admitted; the first success closes the breaker and
      resets the failure count, any failure re-opens it (and restarts
      the recovery clock).  An outcome that says nothing about the
      endpoint (an uncountable error) hands its trial slot back.

    A heartbeat feeds the same verdict through :meth:`record_probe`.

    ``clock`` is injectable for deterministic tests.  All transitions
    are metered on ``obs``: ``breaker_state`` gauge (0 closed,
    1 half-open, 2 open), ``breaker_open_total`` and
    ``breaker_short_circuits_total`` counters.
    """

    CLOSED, HALF_OPEN, OPEN = "closed", "half-open", "open"
    _STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 1.0,
        half_open_max: int = 1,
        name: str = "endpoint",
        clock: Callable[[], float] = time.monotonic,
        obs: Observability | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if recovery_time < 0:
            raise ValueError(f"recovery_time cannot be negative, got {recovery_time}")
        if half_open_max < 1:
            raise ValueError(f"half_open_max must be positive, got {half_open_max}")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_max = half_open_max
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0
        self.opens = 0
        self.short_circuits = 0
        self.bind_obs(obs if obs is not None else NULL_OBS)

    def bind_obs(self, obs: Observability) -> None:
        self.obs = obs
        registry = obs.registry
        self._g_state = registry.gauge(
            "breaker_state", "Circuit breaker state (0 closed, 1 half-open, 2 open)"
        )
        self._m_opens = registry.counter(
            "breaker_open_total", "Circuit breaker trips to open"
        )
        self._m_short = registry.counter(
            "breaker_short_circuits_total",
            "Requests failed fast by an open circuit breaker",
        )

    # ------------------------------------------------------------------
    @staticmethod
    def counts_as_failure(error: BaseException) -> bool:
        """Whether ``error`` says anything about the *endpoint's* health."""
        if isinstance(error, ServiceError):
            return error.code in BREAKER_FAILURE_CODES
        # Transport breakage (connection refused/reset, EOF mid-frame)
        # is the clearest endpoint-health signal there is.
        return isinstance(error, (ConnectionError, OSError, EOFError))

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        """Current state with the open→half-open clock applied (locked)."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.recovery_time
        ):
            self._half_open()
        return self._state

    def _half_open(self) -> None:
        self._state = self.HALF_OPEN
        self._probes = 0
        self._g_state.set(self._STATE_VALUE[self._state])

    def allow(self) -> None:
        """Admit one call, or raise :class:`CircuitOpen` immediately."""
        with self._lock:
            state = self._peek_state()
            if state == self.CLOSED:
                return
            if state == self.HALF_OPEN and self._probes < self.half_open_max:
                self._probes += 1
                return
            self.short_circuits += 1
            self._m_short.inc()
            wait = max(self.recovery_time - (self._clock() - self._opened_at), 0.0)
            raise CircuitOpen(
                f"circuit for {self.name} is {state}; retry in {wait:.3g}s"
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probes = 0
            if self._state != self.CLOSED:
                self.obs.log.info("breaker.closed", endpoint=self.name)
            self._state = self.CLOSED
            self._g_state.set(self._STATE_VALUE[self._state])

    def record_failure(self, error: BaseException | None = None) -> None:
        """Record one countable failure.

        An uncountable error leaves the failure streak alone; on a
        half-open breaker it hands its trial slot back, so a trial that
        proved nothing cannot wedge the breaker half-open.
        """
        if error is not None and not self.counts_as_failure(error):
            with self._lock:
                if self._state == self.HALF_OPEN:
                    self._probes = max(self._probes - 1, 0)
            return
        with self._lock:
            state = self._peek_state()
            self._failures += 1
            if state == self.HALF_OPEN or self._failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    self.opens += 1
                    self._m_opens.inc()
                    self.obs.log.warning(
                        "breaker.open",
                        endpoint=self.name,
                        failures=self._failures,
                        error="" if error is None else str(error),
                    )
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._g_state.set(self._STATE_VALUE[self._state])

    def record_probe(self, answered: bool) -> None:
        """Feed one heartbeat probe's outcome into the verdict.

        A probe nobody answered is a countable failure.  A probe that
        got an answer half-opens an open breaker at once — the endpoint
        is back, so its next call is the trial that closes or re-opens
        it — and otherwise changes nothing: answering a ping does not
        prove the endpoint serves calls, so it never clears a closed
        breaker's failure streak.
        """
        if not answered:
            self.record_failure()
            return
        with self._lock:
            if self._peek_state() == self.OPEN:
                self._half_open()

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self._peek_state(),
                "failures": self._failures,
                "opens": self.opens,
                "short circuits": self.short_circuits,
            }


# ----------------------------------------------------------------------
# Adaptive admission control (AIMD)
# ----------------------------------------------------------------------
class AdaptiveLimiter:
    """AIMD concurrency limit: grow on on-time work, cut on misses.

    The classic congestion-control loop, applied to request
    admission:

    * **additive increase** — each on-time completion adds
      ``increase / limit`` to the limit, i.e. one extra admission slot
      per full window of successful completions, capped at
      ``max_limit`` (the operator's hard ceiling, the old static
      ``max_inflight``);
    * **multiplicative decrease** — a deadline miss or timeout cuts
      the limit to ``limit * backoff`` (never below ``min_limit``).
      Cuts within ``cooldown`` seconds of the last cut are coalesced:
      one overload episode produces many misses nearly at once, and
      reacting to each would collapse the limit to the floor on a
      single bad batch.

    The limit starts at ``initial`` (by default the ceiling: the
    server is optimistic until the first miss, which keeps a fault-free
    run byte-identical to the static configuration).  All state is
    behind a lock; ``clock`` is injectable so tests drive the cooldown
    deterministically.
    """

    def __init__(
        self,
        initial: int = 64,
        min_limit: int = 1,
        max_limit: int | None = None,
        increase: float = 1.0,
        backoff: float = 0.5,
        cooldown: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if min_limit < 1:
            raise ValueError(f"min_limit must be positive, got {min_limit}")
        if max_limit is not None and max_limit < min_limit:
            raise ValueError("max_limit cannot be below min_limit")
        if initial < min_limit:
            raise ValueError("initial cannot be below min_limit")
        if max_limit is not None and initial > max_limit:
            raise ValueError("initial cannot exceed max_limit")
        if increase <= 0:
            raise ValueError(f"increase must be positive, got {increase}")
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if cooldown < 0:
            raise ValueError(f"cooldown cannot be negative, got {cooldown}")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.backoff = backoff
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._limit = float(initial)
        self._last_cut: float | None = None
        self.successes = 0
        self.misses = 0
        self.cuts = 0

    @property
    def limit(self) -> int:
        """The current admission limit (integer, >= ``min_limit``)."""
        with self._lock:
            return max(int(self._limit), self.min_limit)

    def on_success(self) -> int:
        """One on-time completion: additive increase.  Returns the limit."""
        with self._lock:
            self.successes += 1
            self._limit += self.increase / max(self._limit, 1.0)
            if self.max_limit is not None:
                self._limit = min(self._limit, float(self.max_limit))
            return max(int(self._limit), self.min_limit)

    def on_overload(self) -> bool:
        """One deadline miss/timeout: multiplicative decrease.

        Returns ``True`` when the limit was actually cut (``False``
        while the cooldown coalesces the episode's remaining misses).
        """
        with self._lock:
            self.misses += 1
            now = self._clock()
            if self._last_cut is not None and now - self._last_cut < self.cooldown:
                return False
            self._last_cut = now
            self._limit = max(self._limit * self.backoff, float(self.min_limit))
            self.cuts += 1
            return True

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "limit": max(int(self._limit), self.min_limit),
                "min": self.min_limit,
                "max": self.max_limit,
                "successes": self.successes,
                "misses": self.misses,
                "cuts": self.cuts,
            }


class ServiceTimeTracker:
    """Sliding-window service-time percentiles for admission shedding.

    The front-end asks for the p90 and refuses a request whose
    remaining deadline budget is smaller — that request would occupy a
    sweep slot and then expire, which under overload is precisely the
    work to drop first.  Until
    ``min_samples`` observations exist :meth:`percentile` returns
    ``None`` and no shedding happens (a cold server has no opinion).
    """

    def __init__(self, min_samples: int = 20, max_samples: int = 256) -> None:
        if min_samples < 1:
            raise ValueError(f"min_samples must be positive, got {min_samples}")
        if max_samples < min_samples:
            raise ValueError("max_samples cannot be below min_samples")
        self.min_samples = min_samples
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            if len(self._samples) > self.max_samples:
                del self._samples[: len(self._samples) - self.max_samples]

    def percentile(self, q: float = 0.9) -> float | None:
        """The ``q`` quantile of the window; ``None`` until warmed up."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        with self._lock:
            if len(self._samples) < self.min_samples:
                return None
            ordered = sorted(self._samples)
            rank = min(int(q * len(ordered)), len(ordered) - 1)
            return ordered[rank]

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


# ----------------------------------------------------------------------
# Generational index manager (hot reload)
# ----------------------------------------------------------------------
@dataclass
class _Generation:
    index: DatabaseIndex
    number: int


class IndexManager:
    """Atomically swappable, generation-stamped database index.

    The engine snapshots ``(index, generation)`` once per request
    (:meth:`current`), so a swap mid-batch is invisible to in-flight
    sweeps — they finish on the generation they started with, exactly
    as an FPGA finishes the resident query before the host reconfigures
    the array.  ``loader`` (when given) is how :meth:`reload` produces
    a fresh index; the load runs *outside* the lock, so live traffic
    never waits on disk.

    An attached :class:`~repro.service.cache.ResultCache` is purged of
    every prior-generation entry on swap; combined with the cache key
    carrying the generation number, a response can never be served
    from an index that is no longer live.
    """

    def __init__(
        self,
        index: DatabaseIndex | None = None,
        loader: Callable[[], DatabaseIndex] | None = None,
        obs: Observability | None = None,
    ) -> None:
        if index is None and loader is None:
            raise ValueError("IndexManager needs an index or a loader")
        self.loader = loader
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._cache: ResultCache | None = None
        self.reloads = 0
        self.reload_failures = 0
        self.bind_obs(obs if obs is not None else NULL_OBS)
        first = index if index is not None else loader()
        self._live = _Generation(index=first, number=1)
        self._g_generation.set(1)

    def bind_obs(self, obs: Observability) -> None:
        self.obs = obs
        registry = obs.registry
        self._g_generation = registry.gauge(
            "index_generation", "Generation number of the live index"
        )
        self._m_reloads = registry.counter(
            "index_reloads_total", "Successful hot index reloads"
        )
        self._m_reload_failures = registry.counter(
            "index_reload_failures_total", "Hot index reloads that failed"
        )
        self._m_cache_purged = registry.counter(
            "index_reload_cache_evictions_total",
            "Result-cache entries evicted by index reloads",
        )

    def attach_cache(self, cache: ResultCache) -> None:
        """The cache to purge of stale generations on every swap."""
        self._cache = cache

    # ------------------------------------------------------------------
    @property
    def index(self) -> DatabaseIndex:
        with self._lock:
            return self._live.index

    @property
    def generation(self) -> int:
        with self._lock:
            return self._live.number

    def current(self) -> tuple[DatabaseIndex, int]:
        """One consistent ``(index, generation)`` snapshot."""
        with self._lock:
            return self._live.index, self._live.number

    def swap(self, new_index: DatabaseIndex) -> int:
        """Install ``new_index`` as the live generation; returns its number.

        The swap itself is a pointer exchange under the lock —
        nanoseconds, never blocking on IO — and the stale-generation
        cache purge happens after, against the already-live new
        generation.
        """
        with self._lock:
            generation = self._live.number + 1
            self._live = _Generation(index=new_index, number=generation)
        self._g_generation.set(generation)
        purged = 0
        if self._cache is not None:
            purged = self._cache.evict_where(
                lambda key: getattr(key, "generation", None) != generation
            )
            self._m_cache_purged.inc(purged)
        self.obs.log.info(
            "index.swapped",
            generation=generation,
            version=new_index.version[:12],
            records=new_index.record_count,
            cache_purged=purged,
        )
        return generation

    def reload(self) -> int:
        """Load a fresh index via ``loader`` and swap it in.

        Whole reloads are serialized by their own lock (distinct from
        the pointer lock, so :meth:`current` never waits on disk):
        without it, two racing reloads could interleave ``loader()``
        and ``swap`` so that the *older* load publishes last and a
        stale index ends up live under the newest generation number.
        A failed load never reaches the swap — the live generation is
        untouched and the failure is counted and re-raised.
        """
        if self.loader is None:
            raise ValueError("no reload source configured (IndexManager has no loader)")
        with self._reload_lock:
            try:
                new_index = self.loader()
            except Exception as exc:
                self.reload_failures += 1
                self._m_reload_failures.inc()
                self.obs.log.error("index.reload-failed", error=str(exc))
                raise
            generation = self.swap(new_index)
            self.reloads += 1
            self._m_reloads.inc()
            return generation

    def describe(self) -> dict[str, object]:
        index, generation = self.current()
        return {
            "generation": generation,
            "reloads": self.reloads,
            "reload failures": self.reload_failures,
            "version": index.version[:12],
        }
