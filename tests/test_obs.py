"""Unit tests for the observability layer (metrics, tracing, logging)."""

import io
import json
import logging
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Observability,
    PeriodicDumper,
    Tracer,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.log import StructLogger


class FakeClock:
    """Deterministic monotonic clock for tracer/dumper tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_histogram_bucketing_and_totals(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf bucket

    def test_histogram_boundary_value_lands_in_le_bucket(self):
        """Prometheus buckets are le= (inclusive upper edges)."""
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_histogram_quantiles_interpolate(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)  # all in the (1, 2] bucket
        # Interpolation spans the holding bucket: p50 lands mid-bucket.
        assert 1.0 < h.p50 <= 2.0
        assert h.quantile(0.5) == pytest.approx(1.5, abs=0.5)
        assert h.p99 <= 2.0

    def test_histogram_quantile_empty_and_overflow(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        assert h.p50 == 0.0
        h.observe(50.0)  # +Inf bucket
        # The last finite bound is the best statement buckets can make.
        assert h.p99 == 2.0

    def test_histogram_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))


class TestRegistry:
    def test_instruments_are_namespaced_and_idempotent(self):
        reg = MetricsRegistry()
        c1 = reg.counter("requests_total", "help text")
        c2 = reg.counter("requests_total")
        assert c1 is c2
        assert c1.name == "repro_requests_total"

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            MetricsRegistry(namespace="bad ns")

    def test_render_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "Hits").inc(3)
        reg.gauge("depth").set(1.5)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP repro_hits_total Hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert "repro_hits_total 3" in text
        assert "repro_depth 1.5" in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 0.55" in text
        assert "repro_lat_seconds_count 2" in text

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.gauge("b").set(2)
        reg.histogram("c_seconds").observe(0.01)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["repro_a_total"] == 1.0
        assert snap["gauges"]["repro_b"] == 2.0
        hist = snap["histograms"]["repro_c_seconds"]
        assert hist["count"] == 1
        assert set(hist) >= {"count", "sum", "p50", "p90", "p99", "buckets"}

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        c = NULL_REGISTRY.counter("whatever")
        g = NULL_REGISTRY.gauge("whatever")
        h = NULL_REGISTRY.histogram("whatever")
        c.inc()
        g.set(5)
        h.observe(1.0)
        assert c.value == 0.0 and h.count == 0
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestExpositionConventions:
    """The exposition-format promises the fleet aggregator builds on."""

    def test_counter_name_must_end_in_total(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="_total"):
            reg.counter("requests")
        reg.counter("requests_total")  # the compliant spelling registers

    def test_label_value_escaping(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("two\nlines") == "two\\nlines"
        assert escape_label_value(7) == "7"

    def test_help_text_newlines_cannot_split_comment(self):
        reg = MetricsRegistry()
        reg.gauge("g", "first\nsecond \\ slash")
        text = reg.render_prometheus()
        assert "# HELP repro_g first\\nsecond \\\\ slash" in text
        # The embedded newline must never produce a bare "second" line.
        assert not any(line.startswith("second") for line in text.splitlines())

    def test_rendered_histogram_ends_with_inf_bucket(self):
        from repro.obs import validate_exposition

        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(5.0)  # overflow: only the +Inf bucket holds it
        exposition = validate_exposition(reg.render_prometheus())
        buckets = [
            s for s in exposition.samples if s.name == "repro_lat_seconds_bucket"
        ]
        assert dict(buckets[-1].labels)["le"] == "+Inf"
        assert buckets[-1].value == 1.0

    def test_full_registry_render_passes_the_linter(self):
        from repro.obs import validate_exposition

        reg = MetricsRegistry()
        reg.counter("hits_total", "Hits").inc(2)
        reg.gauge("depth", "Queue depth").set(3)
        reg.histogram("lat_seconds", "Latency").observe(0.02)
        exposition = validate_exposition(reg.render_prometheus())
        assert exposition.types["repro_hits_total"] == "counter"
        assert exposition.types["repro_lat_seconds"] == "histogram"


class TestPeriodicDumper:
    def test_throttled_dumps(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n_total").inc()
        clock = FakeClock()
        dumper = PeriodicDumper(
            reg.snapshot, tmp_path / "m.json", interval=5.0, clock=clock
        )
        assert dumper.maybe_dump() is True  # first call always writes
        assert dumper.maybe_dump() is False
        clock.advance(4.9)
        assert dumper.maybe_dump() is False
        clock.advance(0.2)
        assert dumper.maybe_dump() is True
        assert dumper.dumps == 2
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["counters"]["repro_n_total"] == 1.0

    def test_dump_is_atomic(self, tmp_path):
        reg = MetricsRegistry()
        dumper = PeriodicDumper(reg.snapshot, tmp_path / "m.json", interval=5.0)
        dumper.dump()
        assert (tmp_path / "m.json").exists()
        assert not (tmp_path / "m.json.tmp").exists()

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PeriodicDumper(MetricsRegistry().snapshot, tmp_path / "m.json", interval=-1)

    def test_tick_thread_dumps_and_stop_writes_the_final_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        path = tmp_path / "m.json"
        dumper = PeriodicDumper(reg.snapshot, path, interval=3600).start()
        deadline = time.monotonic() + 10.0
        while not path.exists():
            assert time.monotonic() < deadline, "the tick thread never dumped"
            time.sleep(0.01)
        assert json.loads(path.read_text())["counters"]["repro_n_total"] == 0.0
        counter.inc(3)
        dumper.stop()
        assert not dumper._thread.is_alive()
        assert dumper.dumps == 2  # the first tick, then the final dump
        assert json.loads(path.read_text())["counters"]["repro_n_total"] == 3.0


class TestTracer:
    def test_span_nesting_and_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", queries=1):
            clock.advance(1.0)
            with tracer.span("child"):
                clock.advance(0.5)
        (root,) = tracer.recent
        assert root.name == "root"
        assert root.duration == pytest.approx(1.5)
        assert [c.name for c in root.children] == ["child"]
        assert root.children[0].duration == pytest.approx(0.5)
        assert root.attrs == {"queries": 1}

    def test_events_attach_to_innermost_open_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            with tracer.span("inner"):
                clock.advance(0.25)
                tracer.event("retry", shard=3)
        (root,) = tracer.recent
        inner = root.children[0]
        assert [e.name for e in inner.events] == ["retry"]
        assert inner.events[0].attrs == {"shard": 3}
        assert inner.events[0].offset_seconds == pytest.approx(0.25)
        assert root.events == []

    def test_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")  # must not raise
        assert tracer.recent == ()

    def test_add_span_records_external_duration(self):
        clock = FakeClock(start=100.0)
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            tracer.add_span("shard.sweep", seconds=2.5, shard=1)
        (root,) = tracer.recent
        child = root.children[0]
        assert child.duration == pytest.approx(2.5)
        assert child.attrs == {"shard": 1}

    def test_ring_capacity_and_get(self):
        tracer = Tracer(capacity=2)
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.recent] == ["s1", "s2"]
        assert tracer.get("t000001") is None  # evicted
        assert tracer.get("t000003").name == "s2"
        assert tracer.get("bogus") is None

    def test_exception_records_error_and_finishes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        (root,) = tracer.recent
        assert "RuntimeError" in root.attrs["error"]
        # The inner span was closed by the unwind, not left dangling.
        assert root.children[0].end is not None

    def test_render_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("engine.search", queries=1):
            clock.advance(0.004)
            with tracer.span("pool.sweep"):
                tracer.event("retry", shard=2)
                clock.advance(0.002)
        text = tracer.recent[0].render()
        lines = text.splitlines()
        assert lines[0].startswith("engine.search")
        assert "[queries=1]" in lines[0]
        assert any(line.lstrip().startswith("pool.sweep") for line in lines)
        assert any("! retry" in line and "shard=2" in line for line in lines)

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        (root,) = tracer.recent
        assert [s.name for s in root.walk()] == ["a", "b", "c"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything") as span:
            NULL_TRACER.event("e")
            NULL_TRACER.add_span("s", seconds=1.0)
        assert span.duration == 0.0
        assert NULL_TRACER.recent == ()

    def test_null_span_annotations_are_writable_sinks(self):
        # Callers annotate whatever span they were handed without
        # checking ``enabled`` — the null span must absorb all of it.
        span = NULL_TRACER.adopt("net.batch", "t000007", "s1")
        span.attrs["node"] = 3
        span.children.append(object())
        assert NULL_TRACER.current() is None


class TestTracerConcurrency:
    """The thread-local stack / shared ring contract under real threads."""

    def _run_threads(self, n, target):
        threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    def test_threads_never_cross_link_spans(self):
        tracer = Tracer(capacity=256)
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            for r in range(8):
                with tracer.span(f"root-{i}", thread=i):
                    with tracer.span(f"child-{i}"):
                        tracer.event("tick", r=r)

        self._run_threads(4, worker)
        roots = tracer.recent
        assert len(roots) == 32
        for root in roots:
            i = root.attrs["thread"]
            # Every child and event stays inside its own thread's tree.
            assert root.name == f"root-{i}"
            assert [c.name for c in root.children] == [f"child-{i}"]
            (child,) = root.children
            assert [e.name for e in child.events] == ["tick"]
            assert root.end is not None and child.end is not None

    def test_ring_overflow_keeps_newest_and_stays_bounded(self):
        tracer = Tracer(capacity=8)
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            for r in range(50):
                with tracer.span("s", thread=i, r=r):
                    pass

        self._run_threads(4, worker)
        roots = tracer.recent
        assert len(roots) == 8  # bounded: 200 produced, capacity kept
        assert all(root.end is not None for root in roots)
        # The survivors are the tail of the schedule: every thread that
        # still has a root in the ring is represented by its *latest*
        # finished iterations, so no surviving r can be a stale early one
        # once that thread has newer roots recorded.
        by_thread = {}
        for root in roots:
            by_thread.setdefault(root.attrs["thread"], []).append(root.attrs["r"])
        for rs in by_thread.values():
            assert rs == sorted(rs)  # ring preserves per-thread order

    def test_trace_ids_unique_across_concurrent_roots(self):
        tracer = Tracer(capacity=512)
        barrier = threading.Barrier(6)

        def worker(i):
            barrier.wait()
            for _ in range(30):
                with tracer.span("s"):
                    pass

        self._run_threads(6, worker)
        ids = [root.trace_id for root in tracer.recent]
        assert len(ids) == 180
        assert len(set(ids)) == 180


class TestTracerAdoption:
    """``adopt``: the server-side entry point of a distributed trace."""

    def test_adopt_records_under_the_remote_id(self):
        tracer = Tracer()
        with tracer.adopt("net.batch", "t000042", "s1", queries=1):
            with tracer.span("engine.search"):
                pass
        (root,) = tracer.recent
        assert root.trace_id == "t000042"
        assert root.attrs["remote"] is True
        assert root.attrs["remote_parent"] == "s1"
        assert [c.name for c in root.children] == ["engine.search"]
        # Fetchable by the caller's id — the stitching contract.
        assert tracer.get("t000042") is root

    def test_adopt_without_context_degrades_to_local_span(self):
        tracer = Tracer()
        with tracer.adopt("net.batch", None):
            pass
        (root,) = tracer.recent
        assert root.trace_id == "t000001"
        assert "remote" not in root.attrs

    def test_open_local_span_wins_over_remote_context(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.adopt("inner", "t999999", "s9"):
                pass
        (root,) = tracer.recent
        assert root.trace_id != "t999999"
        (inner,) = root.children
        assert inner.trace_id == root.trace_id
        assert "remote" not in inner.attrs

    def test_current_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None


class TestStructLog:
    def _capture(self, level="info", json_lines=False):
        stream = io.StringIO()
        log = configure_logging(level=level, json_lines=json_lines, stream=stream)
        return log, stream

    def teardown_method(self):
        # Leave the library in its quiet default for other tests.
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if not isinstance(handler, logging.NullHandler):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)
        import repro.obs.log as obslog

        obslog._json_lines = False

    def test_key_value_rendering(self):
        log, stream = self._capture()
        log.warning("pool.retry", shard=3, attempt=1, delay_s=0.05)
        line = stream.getvalue().strip()
        assert "pool.retry" in line
        assert "shard=3" in line and "attempt=1" in line and "delay_s=0.05" in line
        assert "WARNING" in line

    def test_values_with_spaces_are_quoted(self):
        log, stream = self._capture()
        log.info("event", msg="two words")
        assert 'msg="two words"' in stream.getvalue()

    def test_json_lines_rendering(self):
        log, stream = self._capture(json_lines=True)
        log.error("pool.quarantine", shard=5)
        payload = json.loads(stream.getvalue().strip())
        assert payload == {
            "event": "pool.quarantine",
            "level": "error",
            "logger": "repro",
            "shard": 5,
        }

    def test_level_filtering(self):
        log, stream = self._capture(level="warning")
        log.info("quiet.event")
        log.warning("loud.event")
        text = stream.getvalue()
        assert "quiet.event" not in text
        assert "loud.event" in text

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="loudest")

    def test_reconfigure_replaces_handler(self):
        _, first = self._capture()
        log, second = self._capture()
        log.info("only.once")
        assert "only.once" not in first.getvalue()
        assert second.getvalue().count("only.once") == 1

    def test_get_logger_namespacing(self):
        assert get_logger().logger.name == "repro"
        assert get_logger("service.pool").logger.name == "repro.service.pool"

    def test_quiet_by_default(self, capsys):
        # No configure_logging: a fresh logger must not write anywhere.
        StructLogger(logging.getLogger("repro.quiet-test")).warning("silent")
        captured = capsys.readouterr()
        assert "silent" not in captured.out + captured.err


class TestObservabilityBundle:
    def test_null_default(self):
        assert NULL_OBS.registry is NULL_REGISTRY
        assert NULL_OBS.tracer is NULL_TRACER
        assert not NULL_OBS.enabled

    def test_create_is_live(self):
        obs = Observability.create(trace_capacity=8)
        assert obs.enabled
        assert isinstance(obs.registry, MetricsRegistry)
        assert not isinstance(obs.registry, NullRegistry)
        assert isinstance(obs.tracer, Tracer)
        assert not isinstance(obs.tracer, NullTracer)
        assert obs.tracer.capacity == 8
