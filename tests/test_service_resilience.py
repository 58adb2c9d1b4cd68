"""Fault-tolerance tests: supervision, retries, quarantine, degradation.

The acceptance contract (ISSUE 2): a worker crash mid-batch is retried
and the final ranking is bit-identical to ``scan_database``; an
unrecoverable shard yields a response with ``coverage < 1.0`` and the
shard listed in ``degraded_shards``; a hung sweep is timed out and the
engine completes via fallback — all with zero uncaught exceptions
reaching the TCP server's dispatch.
"""

import math
import time

import pytest

from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.scan import scan_database
from repro.service import (
    DatabaseIndex,
    Deadline,
    Fault,
    FaultPlan,
    IndexCorrupt,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    BadRequest,
    SearchClient,
    SearchEngine,
    ServiceError,
    ShardFailure,
    SupervisedWorkerPool,
    WorkerSpec,
    WorkerTimeout,
    corrupt_index_file,
    validate_sweep,
)
from repro.service.net import ServerThread

from conftest import ServeProcess

#: Fast backoff for tests — real delays, deterministic, but tiny.
FAST = RetryPolicy(retries=2, base_delay=0.005, max_delay=0.02, jitter=0.5, seed=7)


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


@pytest.fixture(scope="module")
def planted():
    query = random_dna(60, seed=501)
    records = []
    for i in range(12):
        seq = random_dna(200, seed=600 + i)
        if i == 5:
            copy = mutate(query, rate=0.05, seed=700)
            seq = seq[:80] + copy + seq[80 + len(copy):]
        records.append(FastaRecord(f"rec{i}", seq))
    index = DatabaseIndex.build(records, shards=4)
    base = scan_database(query, records, retrieve=0)
    return query, records, index, base


class TestTaxonomy:
    def test_codes_and_hierarchy(self):
        assert issubclass(ShardFailure, ServiceError)
        assert issubclass(WorkerTimeout, ServiceError)
        assert issubclass(IndexCorrupt, ServiceError)
        assert ServiceError.code == "internal"
        assert ShardFailure(3, "boom").code == "shard-failure"
        assert WorkerTimeout(1, 2.0).code == "worker-timeout"
        assert IndexCorrupt("bad").code == "index-corrupt"

    def test_messages_carry_shard(self):
        assert "shard 3" in str(ShardFailure(3, "boom"))
        assert "shard 1" in str(WorkerTimeout(1, 2.0))
        assert WorkerTimeout(1, 2.0).seconds == 2.0


class TestRetryPolicy:
    def test_deterministic(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=1)
        assert [a.delay(i, token=9) for i in range(5)] == [
            b.delay(i, token=9) for i in range(5)
        ]

    def test_seed_and_token_vary_jitter(self):
        assert RetryPolicy(seed=1).delay(0) != RetryPolicy(seed=2).delay(0)
        policy = RetryPolicy()
        assert policy.delay(0, token=1) != policy.delay(0, token=2)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert [policy.delay(i) for i in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.5)
        for attempt in range(6):
            raw = min(0.1 * 2.0**attempt, 10.0)
            for token in range(10):
                d = policy.delay(attempt, token=token)
                assert raw * 0.5 <= d <= raw

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestFaultPlan:
    def test_times_semantics(self):
        plan = FaultPlan.crash_on(2, times=2)
        assert plan.fault_for(2, 0).kind == "crash"
        assert plan.fault_for(2, 1).kind == "crash"
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(1, 0) is None

    def test_persistent_fault(self):
        plan = FaultPlan.hang_on(0, seconds=1.0, times=None)
        assert plan.fault_for(0, 99).seconds == 1.0

    def test_merged_plans(self):
        plan = FaultPlan.crash_on(0).merged(FaultPlan.error_on(1, times=None))
        assert plan.fault_for(0, 0).kind == "crash"
        assert plan.fault_for(1, 5).kind == "error"

    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("explode", 0)
        with pytest.raises(ValueError):
            Fault("crash", -1)
        with pytest.raises(ValueError):
            Fault("crash", 0, times=0)
        with pytest.raises(ValueError):
            Fault("hang", 0, seconds=0.0)

    def test_bad_npz_is_file_level_only(self, tmp_path):
        plan = FaultPlan([Fault("bad-npz", 1)])
        assert plan.fault_for(1, 0) is None  # never injected into workers
        path = tmp_path / "db.idx"
        DatabaseIndex.build(
            [(f"r{i}", random_dna(50, seed=i)) for i in range(6)], shards=3
        ).save(path)
        assert plan.apply_to_file(path) == 1
        with pytest.raises(IndexCorrupt):
            DatabaseIndex.load(path)


class TestValidateSweep:
    def test_catches_corruption(self, planted):
        from repro.service.pool import _sweep_shard, shard_task
        from repro.service.resilience import _corrupt_sweep

        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        shard = index.shards[1]
        task = shard_task(shard, (query,), DEFAULT_DNA, WorkerSpec(), 1, 5)
        sweep = _sweep_shard(task)
        validate_sweep(sweep, shard, 1, 1, 5)  # genuine result passes
        with pytest.raises(ShardFailure):
            validate_sweep(_corrupt_sweep(sweep), shard, 1, 1, 5)
        with pytest.raises(ShardFailure):
            validate_sweep(sweep, index.shards[2], 1, 1, 5)
        with pytest.raises(ShardFailure):
            validate_sweep(sweep, shard, 2, 1, 5)


class TestSupervisedPool:
    def test_healthy_sweep_matches_inline_and_scan(self, planted):
        from repro.align.scoring import DEFAULT_DNA
        from repro.service import merge_candidates
        from repro.service.pool import _sweep_shard, shard_task

        query, records, index, base = planted
        inline = {
            shard.shard_id: _sweep_shard(
                shard_task(shard, (query,), DEFAULT_DNA, WorkerSpec(), 1, 10)
            )
            for shard in index.shards
        }
        names = [r.identifier for r in records]
        expected = [
            (h.hit.score, names.index(h.record), h.hit.i, h.hit.j) for h in base.hits
        ]
        for workers in (1, 2):
            outcome = SupervisedWorkerPool(workers=workers, policy=FAST).sweep(
                index, [query], DEFAULT_DNA, 1, 10
            )
            assert outcome.complete and not outcome.failed
            assert outcome.attempts == index.shard_count
            assert [s.shard_id for s in outcome.sweeps] == sorted(inline)
            for sweep in outcome.sweeps:
                assert sweep.candidates == inline[sweep.shard_id].candidates
            assert merge_candidates(outcome.sweeps, 1, 10) == [expected]
        # The engine's single-worker path sweeps in-process, no pool.
        engine = SearchEngine(index, workers=1, cache=ResultCache(0))
        assert engine.pool is None
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)

    def test_crash_is_retried(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.crash_on(1, times=1)
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete
        assert outcome.worker_deaths == 1
        assert outcome.retries >= 1
        assert pool.healthy

    def test_worker_signals_do_not_reach_the_parent_loop(self, planted):
        """SIGTERM to a worker kills that worker, not the serving loop.

        The parent runs an asyncio loop with a SIGTERM handler, as
        ``repro serve --tcp`` does; the sweep runs on an executor
        thread, as the TCP server's sweeps do.  The worker hangs on
        its first attempt and is SIGTERMed: that must count as one
        worker death healed by one retry, and the parent's handler
        must never fire.
        """
        import asyncio
        import multiprocessing
        import os
        import signal

        from repro.align.scoring import DEFAULT_DNA

        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=1, policy=FAST, fault_plan=FaultPlan.hang_on(0, seconds=5.0)
        )
        fired = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "SIGTERM")
            try:
                sweep = loop.run_in_executor(
                    None, pool.sweep, index, [query], DEFAULT_DNA, 1, 10
                )
                for _ in range(1000):
                    children = multiprocessing.active_children()
                    if children:
                        break
                    await asyncio.sleep(0.005)
                assert len(children) == 1  # workers=1: shard 0's hung attempt
                await asyncio.sleep(0.5)  # let the worker reach its hang
                os.kill(children[0].pid, signal.SIGTERM)
                outcome = await asyncio.wait_for(sweep, timeout=30)
                await asyncio.sleep(0.1)  # a misrouted wake-up would land here
                return outcome
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        outcome = asyncio.run(scenario())
        assert fired == []
        assert outcome.worker_deaths == 1
        assert outcome.retries == 1
        assert outcome.complete

    def test_exhausted_shard_quarantined_and_skipped(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(2, times=None),
        )
        first = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert set(first.failed) == {2}
        assert isinstance(first.failed[2], ShardFailure)
        assert pool.quarantined == (2,)
        attempts = pool.attempts_total
        second = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert set(second.failed) == {2}
        # The quarantined shard consumed no further attempts.
        assert pool.attempts_total == attempts + index.shard_count - 1
        pool.heal(2)
        assert pool.quarantined == ()

    def test_timeout_kills_hung_worker(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        # The healthy shards sweep under the same timer (fork included),
        # so it must leave room for a loaded machine.
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            task_timeout=1.0,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.timeouts == 1
        assert isinstance(outcome.failed[0], WorkerTimeout)

    def test_corrupt_result_detected_and_healed_by_retry(self, planted):
        query, _, index, base = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.corrupt_on(3, times=1)
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete
        assert outcome.retries >= 1
        assert pool.health[3].failures == 1

    def test_injected_error_reported(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            fault_plan=FaultPlan.error_on(1, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert "injected worker error" in str(outcome.failed[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedWorkerPool(workers=0)
        with pytest.raises(ValueError):
            SupervisedWorkerPool(task_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisedWorkerPool(quarantine_after=0)


class TestGroupedPool:
    """One forked worker per group of shards, supervision per shard.

    The planted index's four equal shards split over two workers into
    groups ``[0, 2]`` and ``[1, 3]``.
    """

    def test_groups_balance_bp_and_keep_shard_order(self, planted):
        from repro.service.resilience import _groups

        _, _, index, _ = planted
        entries = [(shard, 0, 0.0) for shard in index.shards]
        groups = [[e[0].shard_id for e in g] for g in _groups(entries, 2)]
        assert groups == [[0, 2], [1, 3]]
        assert len(_groups(entries, 8)) == index.shard_count

    def test_healthy_sweep_forks_once_per_worker(self, planted, monkeypatch):
        import multiprocessing.process

        from repro.align.scoring import DEFAULT_DNA

        query, _, index, _ = planted
        started = []
        original = multiprocessing.process.BaseProcess.start

        def counting_start(self):
            started.append(self)
            return original(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete
        assert len(started) == 2
        assert outcome.processes == pool.processes_total == 2
        assert outcome.attempts == index.shard_count == 4
        assert len({s.worker for s in outcome.sweeps}) == 2

    def test_exiting_workers_are_reaped_behind_the_sweep(self, planted, monkeypatch):
        import multiprocessing

        from repro.align.scoring import DEFAULT_DNA
        from repro.service import merge_candidates, resilience

        query, records, index, base = planted
        entry = resilience._supervised_entry

        def slow_exit(*args):
            entry(*args)
            time.sleep(2.0)  # every result is sent; only the exit is slow

        monkeypatch.setattr(resilience, "_supervised_entry", slow_exit)
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        began = time.monotonic()
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert time.monotonic() - began < 1.0
        names = [r.identifier for r in records]
        expected = [
            (h.hit.score, names.index(h.record), h.hit.i, h.hit.j) for h in base.hits
        ]
        assert outcome.complete
        assert merge_candidates(outcome.sweeps, 1, 10) == [expected]
        pool.close()
        assert multiprocessing.active_children() == []

    def test_crash_on_first_shard_spares_its_group_mate(self, planted):
        from repro.align.scoring import DEFAULT_DNA

        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            fault_plan=FaultPlan.crash_on(0, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert set(outcome.failed) == {0}
        assert pool.quarantined == (0,)
        assert [s.shard_id for s in outcome.sweeps] == [1, 2, 3]
        # Shard 2 never started in the dead worker: re-queued at the
        # same attempt, it is no failure, retry or extra attempt.
        assert 2 not in pool.health
        assert outcome.worker_deaths == 1
        assert outcome.retries == 0
        assert outcome.attempts == 4
        assert outcome.processes == 3

    def test_hang_on_second_shard_keeps_first_result(self, planted):
        from repro.align.scoring import DEFAULT_DNA

        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            task_timeout=1.0,
            fault_plan=FaultPlan.hang_on(2, seconds=30.0, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.timeouts == 1
        assert set(outcome.failed) == {2}
        assert isinstance(outcome.failed[2], WorkerTimeout)
        assert [s.shard_id for s in outcome.sweeps] == [0, 1, 3]
        assert outcome.attempts == 4
        assert outcome.processes == 2

    def test_deadline_mid_group_kills_every_child(self, planted, monkeypatch):
        import multiprocessing

        from repro.align.scoring import DEFAULT_DNA
        from repro.service import DeadlineExceeded, resilience

        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=FAST,
            fault_plan=FaultPlan.hang_on(2, seconds=30.0, times=None),
        )
        # The budget starts once shards 0, 1 and 3 have reported, so it
        # runs out while shard 2 hangs however slowly the others swept.
        deadline = ArmedDeadline()
        reported = []

        def validate_and_arm(sweep, *args):
            validate_sweep(sweep, *args)
            reported.append(sweep.shard_id)
            if len(reported) == 3:
                deadline.arm(0.2)

        monkeypatch.setattr(resilience, "validate_sweep", validate_and_arm)
        with pytest.raises(DeadlineExceeded):
            pool.sweep(index, [query], DEFAULT_DNA, 1, 10, deadline=deadline)
        assert sorted(reported) == [0, 1, 3]
        assert multiprocessing.active_children() == []
        # Shards 0, 1 and 3 finished; shard 2 was in progress.
        assert pool.attempts_total == 4
        assert pool.processes_total == 2

    def test_kill_timer_read_after_the_deadline_check(self, planted, monkeypatch):
        """A kill timer set by the request's deadline ends the sweep with
        ``DeadlineExceeded``, never a ``WorkerTimeout``, when the
        supervisor reads it after its deadline check passed (here it is
        preempted between the two until the budget is gone)."""
        import multiprocessing

        from repro.align.scoring import DEFAULT_DNA
        from repro.service import DeadlineExceeded

        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=FAST,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        )
        deadline = Deadline.after(0.3)
        advance = SupervisedWorkerPool._advance
        preempted = []

        def preempted_advance(self, *args):
            if not preempted:
                preempted.append(True)
                while not deadline.expired:
                    time.sleep(0.01)
            return advance(self, *args)

        monkeypatch.setattr(SupervisedWorkerPool, "_advance", preempted_advance)
        with pytest.raises(DeadlineExceeded):
            pool.sweep(index, [query], DEFAULT_DNA, 1, 10, deadline=deadline)
        assert multiprocessing.active_children() == []
        assert pool.timeouts_total == 0
        assert pool.quarantined == ()


class ArmedDeadline(Deadline):
    """No budget until :meth:`arm`, then ``seconds`` from that moment."""

    def __init__(self) -> None:
        super().__init__(math.inf)

    def arm(self, seconds: float) -> None:
        object.__setattr__(self, "expires_at", time.monotonic() + seconds)


class TestEngineFaultTolerance:
    """The ISSUE acceptance criteria, end to end through SearchEngine."""

    def test_crash_mid_batch_retried_bit_identical(self, planted):
        query, records, index, base = planted
        other = random_dna(50, seed=811)
        base_other = scan_database(other, records, retrieve=0)
        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.crash_on(1, times=1)
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        responses = engine.search_batch([query, other])
        assert ranking(responses[0].report.hits) == ranking(base.hits)
        assert ranking(responses[1].report.hits) == ranking(base_other.hits)
        assert all(r.coverage == 1.0 and not r.degraded_shards for r in responses)
        assert pool.worker_deaths_total == 1

    def test_unrecoverable_shard_degrades_response(self, planted):
        query, records, index, base = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(
            index, pool=pool, cache=ResultCache(0), fallback_scan=False
        )
        response = engine.search(query)
        assert response.degraded
        assert response.coverage < 1.0
        assert response.degraded_shards == (1,)
        # The partial answer is exactly a scan over the surviving records.
        shard = index.shards[1]
        survivors = [r for r in records if r.identifier not in set(shard.names)]
        expected = scan_database(query, survivors, retrieve=0)
        assert ranking(response.report.hits) == ranking(expected.hits)
        assert response.report.records_scanned == len(survivors)
        assert "degraded coverage=" in response.render(max_rows=3)

    def test_degraded_responses_are_never_cached(self, planted):
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(index, pool=pool, fallback_scan=False)
        first = engine.search(query)
        assert first.degraded
        assert len(engine.cache) == 0
        # The operator repairs the shard: faults stop, quarantine heals.
        pool.fault_plan = None
        pool.heal()
        second = engine.search(query)
        assert not second.metrics.cache_hit  # re-swept, not replayed
        assert second.coverage == 1.0
        third = engine.search(query)
        assert third.metrics.cache_hit  # the full answer was cacheable

    def test_hung_sweep_times_out_and_fallback_completes(self, planted):
        query, _, index, base = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            task_timeout=0.25,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        assert response.coverage == 1.0 and not response.degraded_shards
        assert pool.timeouts_total >= 1
        assert engine.fallback_sweeps == 1

    def test_unhealthy_pool_falls_back_to_inline_scan(self, planted):
        query, _, index, base = planted
        plan = FaultPlan(
            [Fault("crash", s, times=None) for s in range(index.shard_count)]
        )
        pool = SupervisedWorkerPool(
            workers=2, policy=RetryPolicy(retries=0), fault_plan=plan
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        first = engine.search(query)
        assert ranking(first.report.hits) == ranking(base.hits)
        assert not pool.healthy
        attempts = pool.attempts_total
        second = engine.search(query)
        assert ranking(second.report.hits) == ranking(base.hits)
        assert pool.attempts_total == attempts  # pool bypassed while unhealthy
        assert engine.fallback_sweeps == 2

    def test_quarantined_index_load_serves_partial(self, planted, tmp_path):
        query, records, index, base = planted
        path = tmp_path / "db.idx"
        index.save(path)
        corrupt_index_file(path, shard_id=2)
        loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        engine = SearchEngine(loaded, cache=ResultCache(0))
        response = engine.search(query)
        assert response.coverage < 1.0
        assert response.degraded_shards == (2,)
        shard = index.shards[2]
        survivors = [r for r in records if r.identifier not in set(shard.names)]
        expected = scan_database(query, survivors, retrieve=0)
        assert ranking(response.report.hits) == ranking(expected.hits)

    def test_describe_reports_supervision(self, planted):
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        engine = SearchEngine(index, pool=pool)
        engine.search(query)
        info = engine.describe()
        assert info["pool"] == "healthy"
        assert info["sweep attempts"] == index.shard_count
        assert info["worker processes"] == min(2, index.shard_count)
        assert info["fallback sweeps"] == 0


class TestServerFaultTolerance:
    def test_no_uncaught_exceptions_reach_serve(self, planted):
        """Crashing shards, malformed requests, service errors: the server
        answers every request and keeps serving."""
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(index, pool=pool, fallback_scan=False)
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                first = client.search(query, QueryOptions(top=3))  # degraded but served
                with pytest.raises(BadRequest):
                    client.search(query, QueryOptions(top=0))
                stats = client.stats()
                second = client.search(query, QueryOptions(top=2))
        assert handle.server.served == 2
        for response in (first, second):
            assert response.coverage < 1.0
            assert response.degraded_shards == (1,)
            assert response.render().startswith(
                f"degraded coverage={response.coverage:.3f} shards=1\n"
            )
        assert stats["pool"] == "healthy"  # three of four shards still sweep

    def test_service_error_renders_taxonomy_code(self, planted):
        query, _, index, _ = planted

        class FailingEngine(SearchEngine):
            failures = 1

            def search_batch(self, queries, options=None, **kwargs):
                if type(self).failures:
                    type(self).failures -= 1
                    raise WorkerTimeout(3, 1.5)
                return super().search_batch(queries, options, **kwargs)

        with ServerThread(FailingEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.search(query)
                assert excinfo.value.code == "worker-timeout"
                assert str(excinfo.value) == "shard 3: sweep exceeded 1.5s timeout"
                assert client.search(query).report.best().record == "rec5"

    def test_internal_errors_are_contained(self, planted):
        query, _, index, _ = planted

        class ExplodingEngine(SearchEngine):
            failures = 1

            def search_batch(self, queries, options=None, **kwargs):
                if type(self).failures:
                    type(self).failures -= 1
                    raise RuntimeError("kernel\npanic")
                return super().search_batch(queries, options, **kwargs)

        with ServerThread(ExplodingEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.search(query)
                assert excinfo.value.code == "internal"
                assert str(excinfo.value) == "RuntimeError: kernel panic"
                assert client.search(query).report.best().record == "rec5"


class TestCLIResilience:
    def test_serve_retries_and_timeout_flags(self, tmp_path, planted):
        from repro.io.fasta import write_fasta

        query, records, _, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        flags = ("--workers", "2", "--retries", "1", "--timeout", "30")
        with ServeProcess(db, *flags) as served:
            with SearchClient(served.host, served.port) as client:
                response = client.search(query, QueryOptions(top=2))
                stats = client.stats()
            output = served.stop()
        assert response.report.best().record == "rec5"
        assert stats["pool"] == "healthy"
        assert "served 1 requests\n" in output
