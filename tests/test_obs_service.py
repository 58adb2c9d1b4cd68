"""Integration tests: the observability layer wired through the service."""

import io
import json
import queue

import pytest

from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.obs import NULL_OBS, Observability
from repro.scan import scan_database
from repro.service import (
    DatabaseIndex,
    FaultPlan,
    QueryOptions,
    QueryRequest,
    ResultCache,
    RetryPolicy,
    SearchEngine,
    SearchServer,
    SupervisedWorkerPool,
)


def make_database(n=8, length=240, seed=700, query=None):
    records = []
    for i in range(n):
        seq = random_dna(length, seed=seed + i)
        if i == 2 and query is not None:
            planted = mutate(query, rate=0.05, seed=900)
            seq = seq[:80] + planted + seq[80 + len(planted):]
        records.append(FastaRecord(f"rec{i}", seq))
    return records


@pytest.fixture(scope="module")
def planted():
    query = random_dna(50, seed=601)
    records = make_database(query=query)
    index = DatabaseIndex.build(records, shard_bp=500)
    return query, records, index


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


POLICY = RetryPolicy(retries=2, base_delay=0.005, max_delay=0.02, jitter=0.0, seed=1)


def supervised_engine(index, plan=None, fallback=True, obs=None, quarantine_after=1):
    pool = SupervisedWorkerPool(
        workers=2,
        policy=POLICY,
        fault_plan=plan,
        quarantine_after=quarantine_after,
    )
    return SearchEngine(
        index, pool=pool, cache=ResultCache(0), fallback_scan=fallback, obs=obs
    )


class TestEngineMetrics:
    def test_healthy_path_counters_and_histograms(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=2, obs=obs)
        engine.search(query)  # miss + sweep
        engine.search(query)  # cache hit
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_requests_total"] == 2.0
        assert snap["counters"]["repro_cache_misses_total"] == 1.0
        assert snap["counters"]["repro_cache_hits_total"] == 1.0
        assert snap["counters"]["repro_cells_swept_total"] == index.cells(len(query))
        # One sweep (the hit skipped it), two end-to-end requests.
        assert snap["histograms"]["repro_sweep_seconds"]["count"] == 1
        assert snap["histograms"]["repro_request_seconds"]["count"] == 2
        assert snap["gauges"]["repro_degraded_shards"] == 0.0

    def test_sustained_cups_gauge_tracks_property(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=1, cache=ResultCache(0), obs=obs)
        engine.search(query)
        engine.search(query[::-1])
        gauge = obs.registry.snapshot()["gauges"]["repro_sustained_cups"]
        assert gauge == pytest.approx(engine.sustained_cups)
        assert gauge > 0
        assert "sustained rate" in engine.describe()

    def test_rankings_identical_with_obs_enabled(self, planted):
        """Telemetry must never perturb the answer."""
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        engine = SearchEngine(
            index, workers=2, cache=ResultCache(0), obs=Observability.create()
        )
        assert ranking(engine.search(query).report.hits) == ranking(base.hits)

    def test_null_obs_default_registers_nothing(self, planted):
        query, _, index = planted
        engine = SearchEngine(index, cache=ResultCache(0))
        engine.search(query)
        assert engine.obs is NULL_OBS
        assert NULL_OBS.registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestEngineTraces:
    def test_trace_tree_shape(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=1, cache=ResultCache(0), obs=obs)
        engine.search(query)
        (root,) = obs.tracer.recent
        assert root.name == "engine.search"
        child_names = [c.name for c in root.children]
        assert child_names[0] == "cache.lookup"
        assert "pool.sweep" in child_names
        assert child_names[-1] == "response.build"
        pool_span = root.children[child_names.index("pool.sweep")]
        shard_spans = [c for c in pool_span.children if c.name == "shard.sweep"]
        assert len(shard_spans) == index.shard_count
        assert {c.attrs["shard"] for c in shard_spans} == set(
            range(index.shard_count)
        )
        assert all(c.duration >= 0 for c in shard_spans)

    def test_retrieval_spans_under_response_build(self, planted):
        """One ``local_linear`` span per retrieved hit, on a cache hit too."""
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        for _ in range(2):
            response = engine.search(query, QueryOptions(retrieve=2, top=4))
        root = obs.tracer.recent[-1]
        (build,) = [c for c in root.children if c.name == "response.build"]
        spans = [c for c in build.children if c.name == "local_linear"]
        hits = response.report.hits[:2]
        assert [s.attrs["record"] for s in spans] == [h.record for h in hits]
        assert [s.attrs["cells"] for s in spans] == [
            (h.alignment.s_end - h.alignment.s_start)
            * (h.alignment.t_end - h.alignment.t_start)
            for h in hits
        ]
        assert all(s.duration > 0 for s in spans)

    def test_cache_hit_trace_has_no_sweep(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        engine.search(query)
        engine.search(query)
        hit_trace = obs.tracer.recent[-1]
        assert "pool.sweep" not in [c.name for c in hit_trace.children]


class TestFaultTelemetry:
    def test_transient_crash_counts_retries(self, planted):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=1), obs=obs, quarantine_after=3
        )
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_retries_total"] > 0
        assert snap["counters"]["repro_worker_deaths_total"] > 0
        assert snap["counters"]["repro_quarantines_total"] == 0.0

    def test_permanent_crash_counts_quarantine_and_degraded_gauge(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=None), fallback=False, obs=obs
        )
        response = engine.search(query)
        assert response.degraded
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_quarantines_total"] > 0
        assert snap["gauges"]["repro_degraded_shards"] == len(
            response.degraded_shards
        )

    def test_fallback_heal_counts_and_traces(self, planted):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=None), fallback=True, obs=obs
        )
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_fallback_sweeps_total"] > 0
        events = [
            e.name for span in obs.tracer.recent for s in span.walk() for e in s.events
        ]
        assert "fallback" in events
        assert "retry" in events

    def test_supervised_pool_inherits_engine_obs(self, planted):
        _, _, index = planted
        obs = Observability.create()
        engine = supervised_engine(index, obs=obs)
        assert engine.pool.obs is obs


class TestServerVerbs:
    def test_stats_includes_metrics_lines(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index, obs=Observability.create()))
        server.handle_line(f"scan {query} top=2")
        text = server.handle_line("stats")
        assert "repro_requests_total: 1" in text
        assert "repro_sweep_seconds: count=1" in text
        assert "cache hit rate" in text  # the pre-existing summary survives

    def test_metrics_verb_renders_prometheus(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index, obs=Observability.create()))
        server.handle_line(f"scan {query} top=2")
        text = server.handle_line("metrics")
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_sweep_seconds_bucket{le="+Inf"} 1' in text

    def test_metrics_verb_without_registry(self, planted):
        _, _, index = planted
        server = SearchServer(SearchEngine(index))
        assert server.handle_line("metrics") == "# no metrics registered"

    def test_trace_verb_lists_and_renders(self, planted):
        query, _, index = planted
        server = SearchServer(SearchEngine(index, obs=Observability.create()))
        server.handle_line(f"scan {query} top=2")
        listing = server.handle_line("trace")
        assert "engine.search" in listing
        trace_id = listing.split()[0]
        rendered = server.handle_line(f"trace {trace_id}")
        assert "engine.search" in rendered
        assert "cache.lookup" in rendered

    def test_trace_verb_error_paths(self, planted):
        query, _, index = planted
        live = SearchServer(SearchEngine(index, obs=Observability.create()))
        assert live.handle_line("trace") == "# no traces recorded"
        assert live.handle_line("trace t999999").startswith("error bad-request")
        off = SearchServer(SearchEngine(index))
        assert "tracing disabled" in off.handle_line("trace")

    def test_unknown_verb_mentions_new_verbs(self, planted):
        _, _, index = planted
        server = SearchServer(SearchEngine(index))
        message = server.handle_line("frobnicate")
        assert "metrics" in message and "trace" in message


class TestServeDumper:
    def test_serve_writes_metrics_file(self, tmp_path, planted):
        from repro.obs import PeriodicDumper

        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        path = tmp_path / "metrics.json"
        server = SearchServer(
            engine, dumper=PeriodicDumper(obs.registry, path, interval=0.0)
        )
        out = io.StringIO()
        server.serve(io.StringIO(f"scan {query} top=2\nquit\n"), out)
        data = json.loads(path.read_text())
        assert data["counters"]["repro_requests_total"] == 1.0

    def test_serve_queue_dumps_on_shutdown(self, tmp_path, planted):
        from repro.obs import PeriodicDumper

        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        path = tmp_path / "metrics.json"
        server = SearchServer(
            engine, dumper=PeriodicDumper(obs.registry, path, interval=3600.0)
        )
        requests: queue.Queue = queue.Queue()
        responses: queue.Queue = queue.Queue()
        requests.put(QueryRequest(query, QueryOptions(top=2)))
        requests.put(None)
        server.serve_queue(requests, responses)
        # The shutdown path dumps unconditionally, interval or not.
        data = json.loads(path.read_text())
        assert data["counters"]["repro_requests_total"] == 1.0


class TestCLIObservability:
    def _db(self, tmp_path, records):
        from repro.io.fasta import write_fasta

        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        return db

    def test_serve_with_metrics_file_and_logging(
        self, tmp_path, capsys, monkeypatch, planted
    ):
        from repro.cli import main

        query, records, _ = planted
        db = self._db(tmp_path, records)
        path = tmp_path / "metrics.json"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"scan {query} top=2\nstats\nquit\n")
        )
        assert (
            main(
                [
                    "serve", str(db),
                    "--log-level", "warning",
                    "--metrics-file", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rec2" in out
        assert "repro_requests_total: 1" in out
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["repro_requests_total"] == 1.0

    def test_stats_command_renders_snapshot(self, tmp_path, capsys, monkeypatch, planted):
        from repro.cli import main

        query, records, _ = planted
        db = self._db(tmp_path, records)
        path = tmp_path / "metrics.json"
        monkeypatch.setattr("sys.stdin", io.StringIO(f"scan {query} top=2\nquit\n"))
        assert main(["serve", str(db), "--metrics-file", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counters / gauges" in out
        assert "repro_requests_total" in out
        assert "repro_request_seconds" in out  # histogram table row

    def test_stats_command_empty_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text('{"counters": {}, "gauges": {}, "histograms": {}}\n')
        assert main(["stats", str(path)]) == 0
        assert "no metrics in snapshot" in capsys.readouterr().out

    def test_serve_log_json_emits_structured_stderr(
        self, tmp_path, capsys, monkeypatch, planted
    ):
        import logging

        from repro.cli import main

        query, _, index = planted
        idx = tmp_path / "db.idx"
        index.save(idx)
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        try:
            assert main(["serve", str(idx), "--log-json", "--log-level", "info"]) == 0
            err = capsys.readouterr().err
            payloads = [json.loads(line) for line in err.splitlines() if line]
            assert any(p["event"] == "index.loaded" for p in payloads)
        finally:
            root = logging.getLogger("repro")
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)
            import repro.obs.log as obslog

            obslog._json_lines = False
