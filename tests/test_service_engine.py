"""Tests for the search-service pool, cache, engine and server."""

import io
import queue
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.scoring import LinearScoring
from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.scan import scan_database
from repro.service import (
    DatabaseIndex,
    QueryOptions,
    QueryRequest,
    ResultCache,
    SearchEngine,
    SearchServer,
    WorkerSpec,
)
from repro.service.cache import CacheKey, scheme_token


def make_database(n=10, length=300, seed=300, query=None):
    """n records; record 3 contains a near-copy of ``query`` if given."""
    records = []
    for i in range(n):
        seq = random_dna(length, seed=seed + i)
        if i == 3 and query is not None:
            planted = mutate(query, rate=0.05, seed=400)
            seq = seq[:100] + planted + seq[100 + len(planted):]
        records.append(FastaRecord(f"hit{i}", seq))
    return records


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


@pytest.fixture(scope="module")
def planted():
    query = random_dna(60, seed=201)
    records = make_database(query=query)
    index = DatabaseIndex.build(records, shard_bp=700)
    return query, records, index


class TestPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_scan(self, planted, workers):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        engine = SearchEngine(index, workers=workers, cache=ResultCache(0))
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_accelerator_kernel_identical(self, planted, workers):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        engine = SearchEngine(
            index,
            workers=workers,
            spec=WorkerSpec("accelerator", elements=64),
            cache=ResultCache(0),
        )
        assert ranking(engine.search(query).report.hits) == ranking(base.hits)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_records=st.integers(1, 9),
        workers=st.integers(1, 3),
        min_score=st.integers(1, 12),
        top=st.integers(1, 8),
    )
    def test_property_rankings_identical(self, seed, n_records, workers, min_score, top):
        """Pool-vs-sequential: any worker count, any top/min_score."""
        query = random_dna(24, seed=seed)
        records = [
            (f"r{i}", random_dna(40 + 13 * i, seed=seed + 1 + i))
            for i in range(n_records)
        ]
        base = scan_database(
            query, records, retrieve=0, top=top, min_score=min_score
        )
        index = DatabaseIndex.build(records, shard_bp=64)
        engine = SearchEngine(index, workers=workers, cache=ResultCache(0))
        response = engine.search(query, QueryOptions(top=top, min_score=min_score))
        assert ranking(response.report.hits) == ranking(base.hits)

    def test_tie_break_is_database_order(self):
        """Equal scores rank in database order, exactly like the scanner."""
        records = [(f"t{i}", "ACGT") for i in range(6)]
        base = scan_database("ACGT", records, retrieve=0)
        index = DatabaseIndex.build(records, shards=3)
        engine = SearchEngine(index, workers=2, cache=ResultCache(0))
        assert ranking(engine.search("ACGT").report.hits) == ranking(base.hits)


class TestEngineSemantics:
    def test_min_score_and_top(self, planted):
        query, records, index = planted
        engine = SearchEngine(index, cache=ResultCache(0))
        response = engine.search(query, QueryOptions(top=3, min_score=40))
        assert len(response.report.hits) <= 3
        assert all(h.score >= 40 for h in response.report.hits)
        assert response.report.min_score == 40

    def test_retrieval_matches_scan(self, planted):
        """Every retrieved alignment equals ``scan_database``'s, in-process
        and on a 2-worker supervised pool: text, starts and score."""

        def alignments(hits):
            return [
                (a.s_aligned, a.t_aligned, a.s_start, a.t_start, a.score)
                for a in (h.alignment for h in hits if h.alignment is not None)
            ]

        query, records, index = planted
        base = scan_database(query, records, retrieve=4, top=5)
        for workers in (1, 2):
            engine = SearchEngine(index, workers=workers, cache=ResultCache(0))
            response = engine.search(query, QueryOptions(retrieve=4, top=5))
            flags = [h.alignment is not None for h in response.report.hits]
            assert flags == [True] * 4 + [False]
            assert ranking(response.report.hits) == ranking(base.hits)
            assert alignments(response.report.hits) == alignments(base.hits)
            response.report.hits[0].alignment.validate(query, records[3].sequence)

    def test_evalues_match_scan(self, planted):
        from repro.analysis.stats import calibrate

        query, records, index = planted
        stats = calibrate(trials=30, seed=9)
        base = scan_database(query, records, retrieve=0, statistics=stats)
        engine = SearchEngine(index, cache=ResultCache(0), statistics=stats)
        response = engine.search(query)
        assert [h.evalue for h in response.report.hits] == [
            h.evalue for h in base.hits
        ]

    def test_invalid_args(self, planted):
        _, _, index = planted
        engine = SearchEngine(index)
        with pytest.raises(ValueError):
            engine.search("AC", QueryOptions(top=0))
        with pytest.raises(ValueError):
            engine.search("AC", QueryOptions(retrieve=-1))

    def test_batch_single_pass_matches_individual(self, planted):
        query, records, index = planted
        other = random_dna(50, seed=77)
        engine = SearchEngine(index, workers=2, cache=ResultCache(0))
        batch = engine.search_batch([query, other], QueryOptions(top=5))
        solo = [
            SearchEngine(index, cache=ResultCache(0)).search(q, QueryOptions(top=5))
            for q in (query, other)
        ]
        for b, s in zip(batch, solo):
            assert ranking(b.report.hits) == ranking(s.report.hits)

    def test_batch_deduplicates_queries(self, planted):
        query, _, index = planted
        engine = SearchEngine(index)
        batch = engine.search_batch([query, query.lower()])
        assert ranking(batch[0].report.hits) == ranking(batch[1].report.hits)
        # One sweep only: second occurrence rode the first's sweep.
        assert engine.cache.stats.misses == 1

    def test_metrics_accounting(self, planted):
        query, _, index = planted
        engine = SearchEngine(index, workers=2)
        metrics = engine.search(query).metrics
        assert metrics.records == index.record_count
        assert metrics.cells == index.cells(len(query))
        assert metrics.sweep_seconds > 0
        assert metrics.cups > 0
        assert metrics.workers == 2
        assert metrics.shards == index.shard_count
        assert not metrics.cache_hit
        assert metrics.worker_busy
        assert "request metrics" in metrics.render()

    def test_request_metrics_render(self, planted):
        """The ``metrics=1`` block: every accounting row, formatted."""
        query, _, index = planted
        engine = SearchEngine(index, workers=2, cache=ResultCache(0))
        text = engine.search(query).metrics.render()
        assert "request metrics" in text
        for label in (
            "records", "cells", "sweep s", "retrieval s", "total s",
            "sweep rate", "workers", "shards", "cache",
        ):
            assert label in text
        assert "miss" in text
        assert "CUPS" in text  # the sweep rate renders via format_cups
        assert "% busy" in text  # per-worker utilization rows

    def test_request_metrics_render_cache_hit(self, planted):
        query, _, index = planted
        engine = SearchEngine(index)
        engine.search(query)
        text = engine.search(query).metrics.render()
        assert "hit" in text
        # A hit did no sweep: no utilization rows, zero sweep share.
        assert "% busy" not in text

    def test_batch_utilization_bounded(self, planted):
        """Regression: utilization is over the batch wall, not the
        per-request apportioned share — it can never exceed 100%."""
        query, _, index = planted
        engine = SearchEngine(index, cache=ResultCache(0))
        batch = engine.search_batch([query, query[::-1]])
        for response in batch:
            m = response.metrics
            assert m.sweep_wall_seconds >= m.sweep_seconds
            for frac in m.worker_utilization.values():
                assert 0.0 <= frac <= 1.0


class TestCacheSemantics:
    def test_warm_hit_skips_sweep(self, planted):
        query, _, index = planted
        engine = SearchEngine(index, workers=2)
        cold = engine.search(query)
        warm = engine.search(query)
        assert not cold.metrics.cache_hit
        assert warm.metrics.cache_hit
        assert warm.metrics.sweep_seconds == 0.0
        assert warm.report.cells == 0
        assert ranking(warm.report.hits) == ranking(cold.report.hits)
        stats = engine.cache.stats
        assert stats.hits == 1 and stats.misses == 1

    def test_scheme_change_misses(self, planted):
        query, _, index = planted
        a = SearchEngine(index)
        a.search(query)
        cache = a.cache
        b = SearchEngine(
            index, scheme=LinearScoring(2, -1, -2), cache=cache
        )
        response = b.search(query)
        assert not response.metrics.cache_hit

    def test_index_version_change_misses(self, planted):
        query, records, index = planted
        cache = ResultCache()
        SearchEngine(index, cache=cache).search(query)
        changed = DatabaseIndex.build(
            records + [FastaRecord("new", "ACGTACGTACGT")], shard_bp=700
        )
        response = SearchEngine(changed, cache=cache).search(query)
        assert not response.metrics.cache_hit
        assert cache.stats.misses == 2

    def test_knob_changes_miss(self, planted):
        query, _, index = planted
        engine = SearchEngine(index)
        engine.search(query, QueryOptions(top=5))
        assert engine.search(query, QueryOptions(top=6)).metrics.cache_hit is False
        options = QueryOptions(top=5, min_score=2)
        assert engine.search(query, options).metrics.cache_hit is False
        assert engine.search(query, QueryOptions(top=5)).metrics.cache_hit is True

    def test_retrieve_does_not_key_cache(self, planted):
        """Retrieval is downstream of the sweep: hit even if it changes."""
        query, _, index = planted
        engine = SearchEngine(index)
        engine.search(query, QueryOptions(retrieve=0))
        response = engine.search(query, QueryOptions(retrieve=1))
        assert response.metrics.cache_hit
        assert response.report.hits[0].alignment is not None

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [
            CacheKey(q, scheme_token(LinearScoring()), "v", 1, 10)
            for q in ("A", "B", "C")
        ]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        assert cache.get(keys[0]) == 0  # refresh A; B is now LRU
        cache.put(keys[2], 2)
        assert keys[1] not in cache
        assert cache.get(keys[0]) == 0 and cache.get(keys[2]) == 2
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self, planted):
        query, _, index = planted
        engine = SearchEngine(index, cache=ResultCache(0))
        engine.search(query)
        assert not engine.search(query).metrics.cache_hit
        assert len(engine.cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)


class TestServer:
    def test_line_protocol(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        out = io.StringIO()
        served = server.serve(
            io.StringIO(f"scan {query} top=3\nstats\nquit\nscan {query}\n"), out
        )
        text = out.getvalue()
        assert served == 1
        assert "hit3" in text
        assert "cache hit rate" in text
        # Nothing after quit was processed.
        assert text.count("rank") == 1

    def test_options_and_errors(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        assert "no hits >= min_score 9999" in server.handle_line(
            f"scan {query} min_score=9999"
        )
        assert server.handle_line("scan").startswith("error bad-request")
        assert server.handle_line("frobnicate").startswith("error bad-request")
        assert server.handle_line("scan ACGT top=oops").startswith("error bad-request")
        assert server.handle_line("scan ACGT bogus=1").startswith("error bad-request")
        assert server.handle_line("") == ""
        assert server.handle_line("# comment") == ""
        assert "request metrics" in server.handle_line(f"scan {query} metrics=1")

    def test_error_responses_are_one_line(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        for line in ("scan", "scan ACGT top=oops", "nonsense", "scan ACGT top=0"):
            response = server.handle_line(line)
            assert response.startswith("error ")
            assert "\n" not in response

    def test_malformed_request_does_not_tear_down_serve(self, planted):
        """A bad line answers with an error line; the loop keeps going."""
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        out = io.StringIO()
        served = server.serve(
            io.StringIO(
                f"scan {query} top=notanint\nbogus verb\nscan {query} top=2\nquit\n"
            ),
            out,
        )
        text = out.getvalue()
        assert served == 1
        assert text.count("error bad-request") == 2
        assert "hit3" in text

    def test_queue_front_end(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        worker = threading.Thread(
            target=server.serve_queue, args=(requests, responses)
        )
        worker.start()
        requests.put(QueryRequest(query, QueryOptions(top=4)))
        requests.put(QueryRequest(query, QueryOptions(top=4)))
        requests.put(None)
        worker.join(timeout=30)
        assert not worker.is_alive()
        first = responses.get(timeout=5)
        second = responses.get(timeout=5)
        assert first.report.best().record == "hit3"
        assert second.metrics.cache_hit
        assert server.served == 2

    def test_queue_sentinel_stops_before_later_requests(self, planted):
        """Requests enqueued after the ``None`` sentinel are not served."""
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        requests.put(QueryRequest(query, QueryOptions(top=2)))
        requests.put(None)
        requests.put(QueryRequest(query, QueryOptions(top=3)))
        served = server.serve_queue(requests, responses)
        assert served == 1
        assert responses.qsize() == 1
        # The post-sentinel request is still on the queue, unconsumed.
        assert requests.qsize() == 1

    def test_queue_responses_drain_after_shutdown(self, planted):
        """The sentinel stops intake; emitted responses stay drainable."""
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        for top in (2, 3, 4):
            requests.put(QueryRequest(query, QueryOptions(top=top)))
        requests.put(None)
        server.serve_queue(requests, responses)
        requests.join()  # every request (and the sentinel) acknowledged
        drained = [responses.get_nowait() for _ in range(3)]
        assert all(len(r.report.hits) <= t for r, t in zip(drained, (2, 3, 4)))
        assert [r.report.best().record for r in drained] == ["hit3"] * 3
        with pytest.raises(queue.Empty):
            responses.get_nowait()

    def test_queue_concurrent_submitters_and_shutdown_ordering(self, planted):
        """Many producer threads race the loop; shutdown still honors
        every request enqueued before the sentinel, exactly once."""
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        consumer = threading.Thread(
            target=server.serve_queue, args=(requests, responses)
        )
        consumer.start()
        n_producers, per_producer = 4, 3
        barrier = threading.Barrier(n_producers)

        def produce(seed):
            barrier.wait()
            for i in range(per_producer):
                requests.put(QueryRequest(query, QueryOptions(top=2 + (seed + i) % 3)))

        producers = [
            threading.Thread(target=produce, args=(p,)) for p in range(n_producers)
        ]
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=30)
        requests.put(None)  # sentinel arrives after every producer finished
        consumer.join(timeout=60)
        assert not consumer.is_alive()
        total = n_producers * per_producer
        assert server.served == total
        drained = [responses.get(timeout=5) for _ in range(total)]
        assert all(r.report.best().record == "hit3" for r in drained)
        with pytest.raises(queue.Empty):
            responses.get_nowait()
        # Intake is closed: a straggler enqueued after shutdown stays put.
        requests.put(QueryRequest(query))
        assert requests.qsize() == 1 and server.served == total

    def test_queue_front_end_survives_bad_request(self, planted):
        """A failing request yields its exception in-order; loop lives on."""
        query, _, index = planted
        server = SearchServer(SearchEngine(index))
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        requests.put(QueryRequest(query, QueryOptions(top=0)))  # rejected by the engine
        requests.put(QueryRequest(query, QueryOptions(top=2)))
        requests.put(None)
        served = server.serve_queue(requests, responses)
        assert served == 1
        failure = responses.get_nowait()
        assert isinstance(failure, ValueError)
        ok = responses.get_nowait()
        assert ok.report.best().record == "hit3"


class TestCLIService:
    def test_scan_workers_flag_matches_default(self, tmp_path, capsys, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        query, records, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        assert main(["scan", query, str(db), "--retrieve", "0"]) == 0
        legacy = capsys.readouterr().out
        assert main(["scan", query, str(db), "--retrieve", "0", "--workers", "2"]) == 0
        engine_out = capsys.readouterr().out

        def rows(text):
            return [l for l in text.splitlines() if l.startswith("|")]

        assert rows(legacy) == rows(engine_out)

    def test_scan_no_cache_flag(self, tmp_path, capsys, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        query, records, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        assert main(["scan", query, str(db), "--retrieve", "0", "--no-cache"]) == 0
        assert "hit3" in capsys.readouterr().out

    def test_index_build_and_batch(self, tmp_path, capsys, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        query, records, index = planted
        db = tmp_path / "db.fasta"
        qf = tmp_path / "queries.fasta"
        idx = tmp_path / "db.idx"
        write_fasta(records, db)
        write_fasta([("q1", query)], qf)
        assert main(["index", str(db), "--out", str(idx)]) == 0
        out = capsys.readouterr().out
        assert index.version[:12] in out
        assert (
            main(["batch", str(qf), str(idx), "--workers", "2", "--metrics"]) == 0
        )
        out = capsys.readouterr().out
        assert "# query q1" in out
        assert "hit3" in out
        assert "request metrics" in out

    def test_serve_command(self, tmp_path, capsys, monkeypatch, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        query, records, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"scan {query} top=2\nquit\n")
        )
        assert main(["serve", str(db)]) == 0
        out = capsys.readouterr().out
        assert "hit3" in out
        assert "served 1 requests" in out
