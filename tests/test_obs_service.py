"""Integration tests: the observability layer wired through the service."""

import json
import time

import pytest

from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.obs import NULL_OBS, Observability
from repro.scan import scan_database
from repro.service import (
    DatabaseIndex,
    FaultPlan,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    SearchClient,
    SearchEngine,
    SupervisedWorkerPool,
)
from repro.service.net import ServerThread

from conftest import ServeProcess


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
        """One ``local_linear`` span per batch, on a cache hit too.

        Its ``hits``/``cells`` cover every retrieved alignment of the
        batch, and each response's ``retrieval_seconds`` is the span's
        time split by its alignments' cells.
        """
        query, _, index = planted
        queries = [query, query[10:40]]
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        for _ in range(2):
            responses = engine.search_batch(queries, QueryOptions(retrieve=2, top=4))
        root = obs.tracer.recent[-1]
        (build,) = [c for c in root.children if c.name == "response.build"]
        (span,) = [c for c in build.children if c.name == "local_linear"]
        cells = [
            sum(
                (h.alignment.s_end - h.alignment.s_start)
                * (h.alignment.t_end - h.alignment.t_start)
                for h in r.report.hits[:2]
            )
            for r in responses
        ]
        assert span.attrs["hits"] == 4
        assert span.attrs["cells"] == sum(cells) > 0
        assert span.duration > 0
        shares = [r.metrics.retrieval_seconds for r in responses]
        assert 0 < sum(shares) <= span.duration
        for share, c in zip(shares, cells):
            assert share == pytest.approx(sum(shares) * c / sum(cells))

    def test_no_retrieval_span_without_retrieval(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        (response,) = engine.search_batch([query], QueryOptions(retrieve=0, top=4))
        (build,) = [c for c in obs.tracer.recent[-1].children if c.name == "response.build"]
        assert [c.name for c in build.children] == []
        assert response.metrics.retrieval_seconds == 0.0

    def test_cache_hit_trace_has_no_sweep(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        engine.search(query)
        engine.search(query)
        hit_trace = obs.tracer.recent[-1]
        assert "pool.sweep" not in [c.name for c in hit_trace.children]


class TestPoolProcessTelemetry:
    def test_processes_and_attempts_told_apart(self, planted):
        query, _, index = planted
        assert index.shard_count > 2
        obs = Observability.create()
        engine = supervised_engine(index, obs=obs)
        engine.search(query)
        counters = obs.registry.snapshot()["counters"]
        # One fork per worker per sweep, one attempt per shard.
        assert counters["repro_worker_processes_started_total"] == 2.0
        assert counters["repro_sweep_attempts_total"] == index.shard_count
        (root,) = obs.tracer.recent
        (sweep,) = [c for c in root.children if c.name == "pool.sweep"]
        assert sweep.attrs["processes"] == 2
        assert engine.describe()["worker processes"] == 2

    def test_inline_sweep_forks_nothing(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=1, cache=ResultCache(0), obs=obs)
        engine.search(query)
        (root,) = obs.tracer.recent
        (sweep,) = [c for c in root.children if c.name == "pool.sweep"]
        assert sweep.attrs["processes"] == 0


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
    def test_metrics_verb_renders_prometheus(self, planted):
        query, _, index = planted
        with ServerThread(SearchEngine(index, obs=Observability.create())) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query, QueryOptions(top=2))
                text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_sweep_seconds_bucket{le="+Inf"} 1' in text

    def test_metrics_verb_without_registry(self, planted):
        _, _, index = planted
        with ServerThread(SearchEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.metrics() == ""

    def test_trace_verb_error_paths(self, planted):
        _, _, index = planted
        with ServerThread(SearchEngine(index, obs=Observability.create())) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.trace() == "# no traces recorded"
                with pytest.raises(ValueError, match="unknown trace id"):
                    client.trace("t999999")
        with ServerThread(SearchEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert "tracing disabled" in client.trace()


@pytest.fixture(scope="module")
def served_cli(tmp_path_factory, planted):
    """One ``repro serve --tcp`` run with a metrics file and JSON logs.

    ``--metrics-interval 3600`` leaves two dumps: the dump thread's
    first tick (``live``, read back while the server is up, before any
    request) and the final one after the drain.  The file is deleted
    before the drain, so whatever is there afterwards is the final dump.
    """
    query, _, index = planted
    tmp = tmp_path_factory.mktemp("served_cli")
    idx = tmp / "db.idx"
    index.save(idx)
    path = tmp / "metrics.json"
    flags = (
        "--metrics-file", str(path), "--metrics-interval", "3600",
        "--log-json", "--log-level", "info",
    )
    with ServeProcess(idx, *flags) as served:
        deadline = time.monotonic() + 10.0
        while not path.exists():
            assert time.monotonic() < deadline, "no periodic metrics dump"
            time.sleep(0.05)
        live = json.loads(path.read_text())
        with SearchClient(served.host, served.port) as client:
            response = client.search(query, QueryOptions(top=2))
        path.unlink()
        output = served.stop()
    return {"response": response, "live": live, "path": path, "output": output}


class TestServeDumper:
    def test_serve_writes_metrics_file(self, served_cli):
        live = served_cli["live"]
        assert set(live) >= {"counters", "gauges", "histograms"}
        assert live["counters"]["repro_requests_total"] == 0.0


class TestCLIObservability:
    def test_serve_with_metrics_file_and_logging(self, served_cli):
        assert served_cli["response"].report.best().record == "rec2"
        snapshot = json.loads(served_cli["path"].read_text())
        assert snapshot["counters"]["repro_requests_total"] == 1.0
        assert "served 1 requests\n" in served_cli["output"]

    def test_stats_command_renders_snapshot(self, served_cli, capsys):
        from repro.cli import main

        assert main(["stats", str(served_cli["path"])]) == 0
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

    def test_serve_log_json_emits_structured_stderr(self, served_cli):
        payloads = [
            json.loads(line) for line in served_cli["output"] if line.startswith("{")
        ]
        assert any(p["event"] == "index.loaded" for p in payloads)
