"""Tests for the search-service pool, cache, engine and server."""

import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.scoring import LinearScoring
from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.scan import scan_database
from repro.service import (
    BadRequest,
    DatabaseIndex,
    QueryOptions,
    ResultCache,
    SearchClient,
    SearchEngine,
    WorkerSpec,
)
from repro.service import protocol
from repro.service.cache import CacheKey, scheme_token
from repro.service.net import ServerThread


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
            spec=WorkerSpec("hw-sim", elements=64),
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
            CacheKey(q, scheme_token(LinearScoring()), "v", 1, 10, "pure")
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
    def test_options_and_errors(self, planted):
        query, _, index = planted
        with ServerThread(SearchEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                empty = client.search(query, QueryOptions(min_score=9999))
                assert "no hits >= min_score 9999" in empty.render()
                with pytest.raises(BadRequest, match="top must be positive"):
                    client.search(query, QueryOptions(top=0))
                with pytest.raises(BadRequest, match="unknown kernel"):
                    client.search(query, QueryOptions(kernel="fortran"))
                response = client.search(query, QueryOptions(top=2))
                assert "request metrics" in response.render(with_metrics=True)

    def test_error_responses_are_one_line(self, planted):
        query, _, index = planted

        class MultiLineFailure(SearchEngine):
            def search_batch(self, queries, options=None, **kwargs):
                raise ValueError("bad\nrequest,   spread over\nlines")

        with ServerThread(MultiLineFailure(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(BadRequest) as excinfo:
                    client.search(query)
        assert str(excinfo.value) == "bad request, spread over lines"

    def test_malformed_request_does_not_tear_down_serve(self, planted):
        """A protocol-broken peer gets an error frame; the server serves on."""
        query, _, index = planted
        with ServerThread(SearchEngine(index)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.sendall(protocol.HEADER.pack(5) + b"{nope")
                header = sock.recv(protocol.HEADER.size, socket.MSG_WAITALL)
                (length,) = protocol.HEADER.unpack(header)
                frame = protocol.decode_frame_bytes(
                    header + sock.recv(length, socket.MSG_WAITALL)
                )
                assert frame["type"] == "error" and frame["code"] == "protocol"
            with SearchClient(handle.host, handle.port) as client:
                with pytest.raises(BadRequest):
                    client.search(query, QueryOptions(top=0))
                assert client.search(query, QueryOptions(top=2)).report.best().record == "hit3"
        assert handle.server.served == 1


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

    def test_serve_command(self, tmp_path, capsys, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        _, records, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(db)])
        assert excinfo.value.code == 2
        assert "--tcp" in capsys.readouterr().err
