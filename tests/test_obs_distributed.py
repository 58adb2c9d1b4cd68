"""Distributed observability: parsing, fleet merge, SLOs, stitching.

The promises under test are the ones ``repro cluster stats`` /
``trace`` / ``slo`` are built on:

* the Prometheus parser/linter accepts exactly what the registry
  renders and rejects malformed or convention-breaking expositions;
* the fleet merge is *lossless* — per-node samples keep their values
  under ``node=`` labels, and the merged-histogram quantiles equal
  what one registry fed every node's raw samples would report
  (hypothesis-checked);
* the SLO tracker fires only when both windows burn and clears once a
  window recovers;
* trace stitching grafts remote subtrees under the right fan-out legs
  without mutating either input tree.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    DEFAULT_OBJECTIVES,
    MetricsAggregator,
    MetricsRegistry,
    Observability,
    PeriodicDumper,
    Sample,
    ServiceObjective,
    SloTracker,
    Tracer,
    parse_prometheus,
    stitch_trace,
    synthesize_trace,
    validate_exposition,
)
from repro.obs.distributed import FleetView, NodeScrape
from repro.obs.trace import Span, SpanEvent


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class RecordingLog:
    """Captures structured log events (the SloTracker transition feed)."""

    def __init__(self):
        self.events = []

    def _record(self, level, event, **attrs):
        self.events.append((level, event, attrs))

    def debug(self, event, **attrs):
        self._record("debug", event, **attrs)

    def info(self, event, **attrs):
        self._record("info", event, **attrs)

    def warning(self, event, **attrs):
        self._record("warning", event, **attrs)

    def error(self, event, **attrs):
        self._record("error", event, **attrs)


# ----------------------------------------------------------------------
# Exposition parsing and linting
# ----------------------------------------------------------------------
class TestParsePrometheus:
    def test_registry_render_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "Hits").inc(3)
        reg.gauge("depth", "Depth").set(1.5)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        exposition = parse_prometheus(reg.render_prometheus())
        assert exposition.types["repro_hits_total"] == "counter"
        assert exposition.types["repro_lat_seconds"] == "histogram"
        assert exposition.helps["repro_hits_total"] == "Hits"
        values = {s.name: s.value for s in exposition.samples if not s.labels}
        assert values["repro_hits_total"] == 3.0
        assert values["repro_depth"] == 1.5
        assert values["repro_lat_seconds_count"] == 1.0

    def test_labeled_sample_render_round_trips_escapes(self):
        sample = Sample(
            "m", (("node", 'a"b\\c'), ("le", "+Inf")), 4.0
        )
        (parsed,) = parse_prometheus(sample.render()).samples
        assert parsed == sample

    def test_histogram_suffixes_resolve_to_their_family(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds").observe(0.2)
        exposition = parse_prometheus(reg.render_prometheus())
        assert exposition.family("repro_lat_seconds_bucket") == "repro_lat_seconds"
        assert exposition.family("repro_lat_seconds_count") == "repro_lat_seconds"
        # A non-histogram name keeps its own identity even with a suffix.
        assert exposition.family("repro_other_sum") == "repro_other_sum"

    def test_comments_blanks_and_timestamps_accepted(self):
        text = "# just a comment\n\nm_total 3 1700000000\n"
        (sample,) = parse_prometheus(text).samples
        assert sample.value == 3.0

    @pytest.mark.parametrize(
        "line, match",
        [
            ("9bad 1", "invalid metric name"),
            ("m{le=0.1} 1", "must be quoted"),
            ('m{le="0.1} 1', "unterminated"),
            ('m{bad name="x"} 1', "invalid label name"),
            ("m 1 2 3", "expected 'name value'"),
            ('m{le="1"} 1 2 3', "trailing garbage"),
            ("m notanum", "not a number"),
            ("# TYPE m bogus", "unknown metric type"),
            ("# TYPE 9bad counter", "invalid metric name"),
            ("# TYPE", "missing metric name"),
        ],
    )
    def test_malformed_lines_raise(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_prometheus(line)

    def test_duplicate_type_raises(self):
        with pytest.raises(ValueError, match="duplicate # TYPE"):
            parse_prometheus("# TYPE m counter\n# TYPE m counter\n")


class TestValidateExposition:
    def test_returns_the_parsed_exposition_on_success(self):
        reg = MetricsRegistry()
        reg.counter("ok_total").inc()
        reg.histogram("lat_seconds", buckets=(0.1,)).observe(0.05)
        exposition = validate_exposition(reg.render_prometheus())
        assert any(s.name == "repro_ok_total" for s in exposition.samples)

    def test_counter_without_total_suffix_rejected(self):
        text = "# TYPE requests counter\nrequests 3\n"
        with pytest.raises(ValueError, match="_total"):
            validate_exposition(text)

    def test_histogram_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 2\n'
            "h_count 2\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_exposition(text)

    def test_histogram_non_cumulative_buckets_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)

    def test_histogram_count_must_match_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="_count disagrees"):
            validate_exposition(text)

    def test_histogram_without_any_buckets_rejected(self):
        with pytest.raises(ValueError, match="no _bucket samples"):
            validate_exposition("# TYPE h histogram\nh_count 0\n")

    def test_histogram_unsorted_bounds_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="2"} 1\n'
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 1\n'
        )
        with pytest.raises(ValueError, match="ascending"):
            validate_exposition(text)


# ----------------------------------------------------------------------
# Fleet merge
# ----------------------------------------------------------------------
def _node_registry(cups, requests=10, degraded=0, latencies=()):
    reg = MetricsRegistry()
    reg.gauge("sustained_cups").set(cups)
    reg.counter("cluster_requests_total").inc(requests)
    if degraded:
        reg.counter("cluster_degraded_total").inc(degraded)
    h = reg.histogram("request_seconds", buckets=(0.01, 0.1, 1.0))
    for value in latencies:
        h.observe(value)
    return reg


class TestFleetView:
    def test_node_labels_and_rollups(self):
        aggregator = MetricsAggregator.from_registries(
            {
                "0": _node_registry(100.0, requests=10, degraded=1),
                "1": _node_registry(250.0, requests=10),
            }
        )
        view = aggregator.scrape()
        assert aggregator.labels == ("0", "1")
        assert not view.failed
        assert view.scalar("repro_sustained_cups", "1") == 250.0
        rollups = view.rollups()
        assert rollups["repro_fleet_nodes"] == 2.0
        assert rollups["repro_fleet_sustained_cups"] == 350.0
        assert rollups["repro_fleet_coverage_ratio"] == pytest.approx(0.95)

    def test_merged_render_is_a_valid_exposition(self):
        aggregator = MetricsAggregator.from_registries(
            {
                "0": _node_registry(1.0, latencies=[0.05, 0.2]),
                "1": _node_registry(2.0, latencies=[0.005]),
            }
        )
        text = aggregator.scrape().render_prometheus()
        exposition = validate_exposition(text)  # the merge lints clean
        nodes = {
            dict(s.labels).get("node")
            for s in exposition.samples
            if dict(s.labels).get("node")
        }
        assert nodes == {"0", "1"}
        fleet = {s.name: s.value for s in exposition.samples if not s.labels}
        assert fleet["repro_fleet_sustained_cups"] == 3.0

    def test_failing_source_degrades_not_raises(self):
        def boom():
            raise ConnectionRefusedError("node down")

        aggregator = MetricsAggregator({"0": _node_registry(5.0).render_prometheus})
        aggregator.add_source("1", boom)
        view = aggregator.scrape()
        (failed,) = view.failed
        assert failed.node == "1" and "node down" in failed.error
        assert view.rollups()["repro_fleet_nodes_failed"] == 1.0
        assert 'repro_fleet_scrape_ok{node="1"} 0' in view.render_prometheus()
        snapshot = view.snapshot()
        assert snapshot["nodes"]["1"] == {
            "ok": False,
            "error": "ConnectionRefusedError: node down",
        }
        assert snapshot["nodes"]["0"]["ok"] is True

    def test_mismatched_bucket_bounds_refuse_to_merge(self):
        a = MetricsRegistry()
        a.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("lat_seconds", buckets=(0.2, 1.0)).observe(0.5)
        view = MetricsAggregator.from_registries({"0": a, "1": b}).scrape()
        with pytest.raises(ValueError, match="bounds differ"):
            view.merged_histogram("repro_lat_seconds")

    def test_absent_family_merges_to_none(self):
        view = MetricsAggregator.from_registries({"0": _node_registry(1.0)}).scrape()
        assert view.merged_histogram("repro_nonexistent_seconds") is None

    @settings(max_examples=40, deadline=None)
    @given(
        node_values=st.lists(
            st.lists(
                st.floats(min_value=1e-4, max_value=50.0, allow_nan=False),
                max_size=25,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_merged_histogram_equals_single_registry_over_union(self, node_values):
        """The load-bearing quantile claim: merging per-node buckets is
        exactly equivalent to one registry observing every sample."""
        bounds = (0.01, 0.1, 1.0, 10.0)
        union = MetricsRegistry()
        union_hist = union.histogram("lat_seconds", buckets=bounds)
        registries = {}
        for i, values in enumerate(node_values):
            reg = MetricsRegistry()
            h = reg.histogram("lat_seconds", buckets=bounds)
            for value in values:
                h.observe(value)
                union_hist.observe(value)
            registries[str(i)] = reg
        view = MetricsAggregator.from_registries(registries).scrape()
        merged = view.merged_histogram("repro_lat_seconds")
        assert merged is not None
        assert merged.count == union_hist.count
        assert merged.counts == union_hist.counts
        assert merged.sum == pytest.approx(union_hist.sum, rel=1e-4, abs=1e-9)
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(union_hist.quantile(q))


class TestFleetDumper:
    def test_throttled_atomic_dumps(self, tmp_path):
        aggregator = MetricsAggregator.from_registries({"0": _node_registry(7.0)})
        clock = FakeClock()
        dumper = PeriodicDumper(
            lambda: aggregator.scrape().snapshot(),
            tmp_path / "fleet.json",
            interval=5.0,
            clock=clock,
        )
        assert dumper.maybe_dump() is True
        assert dumper.maybe_dump() is False
        clock.advance(5.1)
        assert dumper.maybe_dump() is True
        assert dumper.dumps == 2
        assert not (tmp_path / "fleet.json.tmp").exists()
        snapshot = json.loads((tmp_path / "fleet.json").read_text())
        assert snapshot["fleet"]["repro_fleet_sustained_cups"] == 7.0
        assert snapshot["nodes"]["0"]["ok"] is True


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------
class TestServiceObjective:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            ServiceObjective("x", "throughput", 0.99)
        with pytest.raises(ValueError, match="target"):
            ServiceObjective("x", "availability", 1.0)
        with pytest.raises(ValueError, match="threshold"):
            ServiceObjective("x", "latency", 0.99)

    def test_bad_semantics_per_kind(self):
        availability = ServiceObjective("a", "availability", 0.99)
        latency = ServiceObjective("l", "latency", 0.99, threshold=1.0)
        coverage = ServiceObjective("c", "coverage", 0.99, threshold=0.999)
        assert availability.bad(False, 0.0, 1.0)
        assert not availability.bad(True, 99.0, 0.0)
        assert latency.bad(True, 1.5, 1.0)
        assert not latency.bad(True, 1.0, 1.0)  # threshold is inclusive
        assert coverage.bad(True, 0.0, 0.5)
        assert not coverage.bad(True, 0.0, 1.0)
        assert availability.budget == pytest.approx(0.01)

    def test_default_objectives_cover_the_three_kinds(self):
        assert [o.kind for o in DEFAULT_OBJECTIVES] == [
            "availability",
            "latency",
            "coverage",
        ]


class TestSloTracker:
    def _tracker(self, **kwargs):
        clock = FakeClock()
        log = RecordingLog()
        kwargs.setdefault("fast_window", 10.0)
        kwargs.setdefault("slow_window", 100.0)
        kwargs.setdefault(
            "objectives", (ServiceObjective("availability", "availability", 0.9),)
        )
        tracker = SloTracker(clock=clock, log=log, **kwargs)
        return tracker, clock, log

    def test_outage_fires_and_heal_clears(self):
        registry = MetricsRegistry()
        tracker, clock, log = self._tracker(registry=registry)
        for _ in range(5):
            clock.advance(1.0)
            tracker.observe(ok=False)
        assert tracker.firing == ("availability",)
        (status,) = tracker.evaluate()
        assert status.firing and "FIRING" in status.describe()
        assert registry.gauge("slo_availability_firing").value == 1.0
        # Age the outage past the slow window, then a healthy probe.
        clock.advance(200.0)
        tracker.observe(ok=True)
        assert tracker.firing == ()
        assert registry.gauge("slo_availability_firing").value == 0.0
        events = [(level, event) for level, event, _ in log.events]
        assert ("warning", "slo.breach") in events
        assert ("info", "slo.clear") in events
        assert events.index(("warning", "slo.breach")) < events.index(
            ("info", "slo.clear")
        )

    def test_fast_window_recovery_alone_clears(self):
        """Multi-window: old badness still in the slow window must not
        keep paging once the fast window has recovered."""
        tracker, clock, _ = self._tracker()
        for _ in range(5):
            clock.advance(1.0)
            tracker.observe(ok=False)
        assert tracker.firing == ("availability",)
        clock.advance(50.0)  # bad samples leave fast, stay in slow
        for _ in range(5):
            clock.advance(1.0)
            tracker.observe(ok=True)
        (status,) = tracker.evaluate()
        assert status.fast_burn == 0.0
        assert status.slow_burn > 1.0  # slow window still remembers
        assert not status.firing

    def test_min_samples_suppresses_cold_start_noise(self):
        tracker, clock, _ = self._tracker(min_samples=5)
        clock.advance(1.0)
        (status,) = tracker.observe(ok=False)
        assert status.fast_burn == 0.0 and not status.firing

    def test_latency_and_coverage_objectives_fire_independently(self):
        objectives = (
            ServiceObjective("latency_p99", "latency", 0.9, threshold=1.0),
            ServiceObjective("coverage", "coverage", 0.9, threshold=0.999),
        )
        tracker, clock, _ = self._tracker(objectives=objectives)
        for _ in range(4):
            clock.advance(1.0)
            tracker.observe(ok=True, seconds=0.01, coverage=0.5)
        assert tracker.firing == ("coverage",)
        clock.advance(200.0)
        for _ in range(4):
            clock.advance(1.0)
            tracker.observe(ok=True, seconds=5.0, coverage=1.0)
        assert tracker.firing == ("latency_p99",)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one objective"):
            SloTracker(objectives=())
        with pytest.raises(ValueError, match="duplicate"):
            SloTracker(objectives=(DEFAULT_OBJECTIVES[0], DEFAULT_OBJECTIVES[0]))
        with pytest.raises(ValueError, match="windows"):
            SloTracker(fast_window=100.0, slow_window=10.0)
        with pytest.raises(ValueError, match="burn threshold"):
            SloTracker(burn_threshold=0.0)


# ----------------------------------------------------------------------
# Cross-node trace stitching
# ----------------------------------------------------------------------
def _coordinator_root(clock):
    tracer = Tracer(clock=clock)
    with tracer.span("cluster.search", queries=1):
        clock.advance(0.001)
        tracer.add_span("node.search", seconds=0.004, node=0, answered=True)
        tracer.add_span("node.search", seconds=0.002, node=1, answered=True)
    (root,) = tracer.recent
    return root


def _node_tree(clock, trace_id, shards=2):
    tracer = Tracer(clock=clock)
    with tracer.adopt("net.batch", trace_id, "s1", queries=1):
        with tracer.span("engine.search"):
            for shard in range(shards):
                clock.advance(0.001)
                tracer.add_span("shard.sweep", seconds=0.001, shard=shard)
    return tracer.get(trace_id)


class TestStitching:
    def test_stitch_grafts_remote_trees_under_matching_legs(self):
        clock = FakeClock()
        root = _coordinator_root(clock)
        trees = {
            0: _node_tree(clock, root.trace_id),
            1: _node_tree(clock, root.trace_id, shards=1),
        }
        stitched = stitch_trace(root, trees)
        legs = [s for s in stitched.walk() if s.name == "node.search"]
        assert len(legs) == 2
        for leg in legs:
            assert leg.attrs["stitched"] is True
            (remote,) = leg.children
            assert remote.name == "net.batch"
            assert remote.attrs["node"] == leg.attrs["node"]
            assert any(s.name == "shard.sweep" for s in remote.walk())
        # Same trace id end to end — that is what makes it one trace.
        assert {s.trace_id for s in stitched.walk()} == {root.trace_id}

    def test_missing_node_tree_leaves_leg_unstitched(self):
        clock = FakeClock()
        root = _coordinator_root(clock)
        stitched = stitch_trace(root, {0: _node_tree(clock, root.trace_id), 1: None})
        by_node = {
            leg.attrs["node"]: leg
            for leg in stitched.walk()
            if leg.name == "node.search"
        }
        assert by_node[0].attrs.get("stitched") is True
        assert "stitched" not in by_node[1].attrs
        assert by_node[1].children == []

    def test_inputs_are_not_mutated(self):
        clock = FakeClock()
        root = _coordinator_root(clock)
        tree = _node_tree(clock, root.trace_id)
        before = root.to_payload()
        tree_before = tree.to_payload()
        stitch_trace(root, {0: tree})
        assert root.to_payload() == before
        assert tree.to_payload() == tree_before

    def test_synthesize_wraps_node_trees_under_reconstructed_root(self):
        clock = FakeClock()
        trees = {
            1: _node_tree(clock, "t000123"),
            0: _node_tree(clock, "t000123"),
            2: None,
        }
        root = synthesize_trace("t000123", trees)
        assert root.name == "cluster.trace"
        assert root.trace_id == "t000123"
        assert root.attrs == {"reconstructed": True, "nodes": 2}
        assert [c.attrs["node"] for c in root.children] == ["0", "1"]
        assert root.duration == max(t.duration for t in trees.values() if t)

    def test_synthesize_with_nothing_found(self):
        root = synthesize_trace("t000404", {0: None})
        assert root.attrs["nodes"] == 0 and root.children == []


class TestSpanPayload:
    def _tree(self):
        clock = FakeClock(start=50.0)
        tracer = Tracer(clock=clock)
        with tracer.span("root", queries=2):
            clock.advance(0.5)
            tracer.event("retry", shard=1)
            with tracer.span("child"):
                clock.advance(0.25)
        (root,) = tracer.recent
        return root

    def test_round_trip_preserves_structure_and_rebases_start(self):
        root = self._tree()
        rebuilt = Span.from_payload(root.to_payload())
        assert rebuilt.start == 0.0  # monotonic origins do not travel
        assert rebuilt.name == root.name
        assert rebuilt.trace_id == root.trace_id
        assert rebuilt.duration == pytest.approx(root.duration)
        assert rebuilt.attrs == root.attrs
        (event,) = rebuilt.events
        assert (event.name, event.attrs) == ("retry", {"shard": 1})
        assert event.offset_seconds == pytest.approx(0.5)
        (child,) = rebuilt.children
        assert child.duration == pytest.approx(0.25)
        # The round trip is a fixed point: payloads re-encode identically.
        assert rebuilt.to_payload() == root.to_payload()

    def test_rebuilt_tree_renders_like_the_original(self):
        root = self._tree()
        rebuilt = Span.from_payload(root.to_payload())
        assert rebuilt.render() == root.render()

    def test_from_payload_validation(self):
        with pytest.raises(ValueError, match="must be an object"):
            Span.from_payload(["not", "a", "span"])
        with pytest.raises(ValueError, match="missing name"):
            Span.from_payload({"duration": 1.0})


class TestObservabilityExports:
    def test_bundle_wires_into_aggregator(self):
        obs = Observability.create()
        obs.registry.counter("seen_total").inc()
        view = MetricsAggregator.from_registries({"n": obs.registry}).scrape()
        assert view.scalar("repro_seen_total", "n") == 1.0

    def test_node_scrape_ok_property(self):
        assert not NodeScrape("0", error="down").ok
        assert FleetView([NodeScrape("0", error="down")]).ok_scrapes == []
