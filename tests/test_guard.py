"""Guard-rail unit tests: deadlines, circuit breaking, reload.

The breaker runs on an injected fake clock, so every state transition
(closed → open → half-open → closed, and half-open re-trip) is tested
without a single ``sleep``.  The IndexManager tests pin the two
properties the engine's correctness leans on: a swap is invisible to a
snapshot taken before it, and no cache entry can survive (or be
served) across a generation change.
"""

import threading

import pytest

from repro.io.fasta import FastaRecord
from repro.io.generate import random_dna
from repro.service import (
    BadRequest,
    CircuitBreaker,
    CircuitOpen,
    DatabaseIndex,
    Deadline,
    DeadlineExceeded,
    IndexManager,
    Overloaded,
    QueryOptions,
    RequestTimeout,
    ResultCache,
    SearchClient,
    SearchEngine,
    ServiceError,
)
from repro.service.cache import CacheKey
from repro.service.guard import BREAKER_FAILURE_CODES
from repro.service.net import ServerThread
from repro.service.resilience import RetryPolicy, ShardFailure


def small_index(seed=0, shards=2):
    records = [
        FastaRecord(f"rec{i}", random_dna(120, seed=1_000 + seed * 10 + i))
        for i in range(6)
    ]
    return DatabaseIndex.build(records, shards=shards)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_future_deadline_has_budget(self):
        deadline = Deadline.after(10.0)
        assert not deadline.expired
        assert 9.0 < deadline.remaining() <= 10.0
        assert 9_000 < deadline.remaining_ms() <= 10_000
        assert deadline.check("here") is deadline  # chainable

    def test_expired_deadline_checks_raise(self):
        deadline = Deadline.after_ms(-1)
        assert deadline.expired
        assert deadline.remaining() < 0
        with pytest.raises(DeadlineExceeded, match="inline sweep"):
            deadline.check("inline sweep")

    def test_deadline_exceeded_taxonomy(self):
        # Same catch sites as the static timeout, distinct wire code.
        assert issubclass(DeadlineExceeded, RequestTimeout)
        assert DeadlineExceeded.code == "deadline-exceeded"
        assert RequestTimeout.code == "timeout"


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def make_breaker(clock, threshold=3, recovery=10.0, probes=1):
    return CircuitBreaker(
        failure_threshold=threshold,
        recovery_time=recovery,
        half_open_max=probes,
        name="test-endpoint",
        clock=clock,
    )


class TestCircuitBreaker:
    def test_closed_until_threshold_consecutive_failures(self, clock):
        breaker = make_breaker(clock)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure(Overloaded("busy"))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_success()  # success resets the consecutive count
        breaker.record_failure(Overloaded("busy"))
        breaker.record_failure(Overloaded("busy"))
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(Overloaded("busy"))
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_open_fails_fast_then_half_opens(self, clock):
        breaker = make_breaker(clock, threshold=1, recovery=5.0)
        breaker.record_failure(ShardFailure(0, "boom"))
        with pytest.raises(CircuitOpen, match="test-endpoint"):
            breaker.allow()
        assert breaker.short_circuits == 1
        clock.advance(4.9)
        with pytest.raises(CircuitOpen):
            breaker.allow()
        clock.advance(0.2)  # recovery_time elapsed
        breaker.allow()  # the probe is admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_limits_probes(self, clock):
        breaker = make_breaker(clock, threshold=1, recovery=1.0, probes=1)
        breaker.record_failure(ConnectionError("refused"))
        clock.advance(1.0)
        breaker.allow()
        with pytest.raises(CircuitOpen):  # only one probe at a time
            breaker.allow()

    def test_half_open_success_closes(self, clock):
        breaker = make_breaker(clock, threshold=1, recovery=1.0)
        breaker.record_failure(ConnectionError("refused"))
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.allow()  # traffic flows again

    def test_half_open_failure_reopens_and_restarts_clock(self, clock):
        breaker = make_breaker(clock, threshold=5, recovery=10.0)
        for _ in range(5):
            breaker.record_failure(Overloaded("busy"))
        clock.advance(10.0)
        breaker.allow()  # half-open probe
        breaker.record_failure(Overloaded("still busy"))
        assert breaker.state == CircuitBreaker.OPEN  # one failure re-trips
        clock.advance(9.9)
        with pytest.raises(CircuitOpen):
            breaker.allow()  # the recovery clock restarted at the re-trip

    def test_half_open_admits_exactly_half_open_max_concurrently(self, clock):
        """A thundering herd at the half-open instant gets exactly
        ``half_open_max`` probes through — one winner per slot, no
        over-admission from racing callers."""
        breaker = make_breaker(clock, threshold=1, recovery=1.0, probes=3)
        breaker.record_failure(ConnectionError("refused"))
        clock.advance(1.0)
        callers = 24
        admitted = []
        rejected = []
        barrier = threading.Barrier(callers)

        def caller(slot):
            barrier.wait()
            try:
                breaker.allow()
            except CircuitOpen:
                rejected.append(slot)
            else:
                admitted.append(slot)

        threads = [
            threading.Thread(target=caller, args=(slot,))
            for slot in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 3
        assert len(rejected) == callers - 3
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # The first probe's success closes the breaker for everyone.
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_uncountable_errors_never_trip(self, clock):
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure(BadRequest("top must be positive"))
        breaker.record_failure(ValueError("caller bug"))
        assert breaker.state == CircuitBreaker.CLOSED

    def test_uncountable_outcome_hands_back_the_trial_slot(self, clock):
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure(ConnectionError("down"))
        clock.advance(10.0)
        breaker.allow()  # the one half-open trial
        with pytest.raises(CircuitOpen):
            breaker.allow()
        # The trial proved nothing about the endpoint: it neither
        # closes nor re-opens the breaker, and the next call may try.
        breaker.record_failure(BadRequest("top must be positive"))
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.allow()

    def test_failure_taxonomy(self):
        assert CircuitBreaker.counts_as_failure(ConnectionError("reset"))
        assert CircuitBreaker.counts_as_failure(EOFError("closed mid-frame"))
        assert CircuitBreaker.counts_as_failure(DeadlineExceeded("late"))
        assert CircuitBreaker.counts_as_failure(ShardFailure(1, "died"))
        assert not CircuitBreaker.counts_as_failure(BadRequest("nope"))
        assert not CircuitBreaker.counts_as_failure(KeyError("unrelated"))
        for code in BREAKER_FAILURE_CODES:
            assert code != "bad-request" and code != "protocol"

    def test_circuit_open_is_overloaded(self):
        # Callers with an ``except Overloaded`` backoff path handle a
        # local fail-fast for free; telemetry still tells them apart.
        assert issubclass(CircuitOpen, Overloaded)
        assert CircuitOpen.code == "circuit-open"

    def test_describe(self, clock):
        breaker = make_breaker(clock, threshold=1)
        breaker.record_failure(Overloaded("busy"))
        info = breaker.describe()
        assert info["state"] == CircuitBreaker.OPEN
        assert info["opens"] == 1

    def test_validation(self, clock):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="recovery_time"):
            CircuitBreaker(recovery_time=-1)
        with pytest.raises(ValueError, match="half_open_max"):
            CircuitBreaker(half_open_max=0)


class TestBreakerOverTheWire:
    def test_breaker_opens_on_server_faults_and_fails_fast(self):
        index = small_index()

        class FailingEngine(SearchEngine):
            calls = 0

            def search_batch(self, queries, options=None, **kwargs):
                type(self).calls += 1
                raise RuntimeError("backend on fire")

        engine = FailingEngine(index, cache=ResultCache(0))
        breaker = CircuitBreaker(failure_threshold=2, recovery_time=60.0)
        with ServerThread(engine) as handle:
            with SearchClient(
                handle.host,
                handle.port,
                retry=RetryPolicy(retries=0),
                breaker=breaker,
            ) as client:
                for _ in range(2):
                    with pytest.raises(ServiceError):
                        client.search("ACGTACGT")
                # Threshold reached: the third call never leaves the
                # process, so the backend call count stays at 2.
                with pytest.raises(CircuitOpen):
                    client.search("ACGTACGT")
        assert FailingEngine.calls == 2
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.short_circuits == 1


# ----------------------------------------------------------------------
# IndexManager / hot reload
# ----------------------------------------------------------------------
class TestIndexManager:
    def test_needs_index_or_loader(self):
        with pytest.raises(ValueError, match="index or a loader"):
            IndexManager()

    def test_swap_bumps_generation_atomically(self):
        manager = IndexManager(index=small_index(seed=1))
        old_index, old_generation = manager.current()
        assert old_generation == 1
        new = small_index(seed=2)
        assert manager.swap(new) == 2
        assert manager.index is new
        assert manager.generation == 2
        # The pre-swap snapshot still names the old generation: an
        # in-flight sweep keeps the index it admitted under.
        assert old_index is not new
        assert old_index.record_count == 6  # and it is still usable

    def test_reload_via_loader(self):
        built = []

        def loader():
            built.append(1)
            return small_index(seed=3)

        manager = IndexManager(loader=loader)
        assert len(built) == 1  # initial load
        assert manager.reload() == 2
        assert manager.reloads == 1
        assert len(built) == 2

    def test_loaderless_reload_raises(self):
        manager = IndexManager(index=small_index())
        with pytest.raises(ValueError, match="no reload source"):
            manager.reload()

    def test_failed_reload_keeps_old_generation(self):
        manager = IndexManager(index=small_index(seed=4))
        manager.loader = lambda: (_ for _ in ()).throw(OSError("disk gone"))
        with pytest.raises(OSError, match="disk gone"):
            manager.reload()
        assert manager.generation == 1
        assert manager.reload_failures == 1
        assert manager.index.record_count == 6  # still serving

    def test_swap_purges_stale_cache_generations(self):
        cache = ResultCache(8)
        manager = IndexManager(index=small_index(seed=5))
        manager.attach_cache(cache)
        stale = CacheKey(
            query="ACGT", scheme="s", index_version="v", min_score=1, top=5,
            kernel="pure", generation=1,
        )
        fresh_after_swap = CacheKey(
            query="ACGT", scheme="s", index_version="v", min_score=1, top=5,
            kernel="pure", generation=2,
        )
        cache.put(stale, "old-answer")
        assert manager.swap(small_index(seed=6)) == 2
        assert cache.get(stale) is None  # evicted, not just unreachable
        cache.put(fresh_after_swap, "new-answer")
        assert cache.get(fresh_after_swap) == "new-answer"

    def test_engine_cache_evicted_on_reload(self):
        """Satellite contract: a cached response whose generation is no
        longer live can never be served after a hot reload."""
        records = [
            FastaRecord(f"rec{i}", random_dna(150, seed=2_000 + i))
            for i in range(8)
        ]
        loader = lambda: DatabaseIndex.build(records, shards=2)  # noqa: E731
        manager = IndexManager(index=loader(), loader=loader)
        engine = SearchEngine(manager, cache=ResultCache(16))
        query = random_dna(40, seed=9)
        options = QueryOptions(top=3, min_score=1)

        first = engine.search(query, options)
        again = engine.search(query, options)
        assert again.metrics.cache_hit  # sanity: the entry was cached
        assert engine.reload_index() == 2
        assert engine.cache.stats.size == 0  # reload purged everything
        after = engine.search(query, options)
        assert not after.metrics.cache_hit  # re-swept, not replayed
        # Identical content, new generation: the ranking is unchanged.
        assert [(h.record, h.hit.as_tuple()) for h in after.report.hits] == [
            (h.record, h.hit.as_tuple()) for h in first.report.hits
        ]

    def test_concurrent_reloads_racing_failures_stay_consistent(self):
        """Satellite contract: reloads racing a flaky loader never let a
        failed load clobber the live index, and the generation counter
        stays monotonic with one bump per *successful* load."""
        built = []
        calls = threading.Lock()

        def loader():
            with calls:
                n = len(built)
                built.append(n)
            if n % 3 == 1:  # every third load blows up mid-read
                raise OSError(f"disk gone on load {n}")
            return small_index(seed=n)

        manager = IndexManager(index=small_index(seed=99))
        manager.loader = loader
        cache = ResultCache(32)
        manager.attach_cache(cache)

        observed = []
        errors = []

        def worker():
            for _ in range(6):
                before = manager.generation
                try:
                    generation = manager.reload()
                except OSError:
                    # A failed reload must leave the live pointer alone.
                    index, now = manager.current()
                    if now < before:
                        errors.append("generation went backwards on failure")
                    if index.record_count != 6:
                        errors.append("failed reload corrupted the live index")
                else:
                    observed.append(generation)
                    index, now = manager.current()
                    if now < generation:
                        errors.append("generation went backwards after success")
                # Cache entries keyed to dead generations must be gone.
                key = CacheKey(
                    query="ACGT", scheme="s", index_version="v",
                    min_score=1, top=5, kernel="pure", generation=manager.generation,
                )
                cache.put(key, "live-answer")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        successes = sum(1 for n in built if n % 3 != 1)
        failures = len(built) - successes
        # Each success bumps the generation exactly once; failures never do.
        assert manager.generation == 1 + successes
        assert manager.reloads == successes
        assert manager.reload_failures == failures
        assert sorted(observed) == list(range(2, 2 + successes))
        # Only the newest generation's cache entries may survive.
        live = manager.generation
        for generation in range(1, live):
            stale = CacheKey(
                query="ACGT", scheme="s", index_version="v",
                min_score=1, top=5, kernel="pure", generation=generation,
            )
            assert cache.get(stale) is None
        assert manager.index.record_count == 6  # still serving a real index

    def test_describe(self):
        manager = IndexManager(index=small_index())
        info = manager.describe()
        assert info["generation"] == 1
        assert info["reloads"] == 0
