"""Distributed cluster tier: topology, merge bit-identity, coordinator.

The load-bearing claim of :mod:`repro.service.cluster` is that the
coordinator's scatter-gather-merge is **bit-identical** to the
single-node engine's ranking — same hits, same order, same tie-breaks,
same field values — for any partitioning, including degenerate ones
(one node, more nodes than records).  These tests assert that claim
directly (pure merges over in-process engines, hypothesis-driven) and
end-to-end (real TCP nodes via :class:`LocalCluster`), then cover the
failure semantics: degraded nodes, expired deadlines, empty spans.
"""

import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.generate import mutate, random_dna
from repro.obs import SloTracker
from repro.service import (
    CircuitBreaker,
    DatabaseIndex,
    QueryOptions,
    SearchClient,
    SearchEngine,
)
from repro.service.cache import ResultCache
from repro.service.chaos import response_signature, run_cluster_chaos
from repro.service.cluster import (
    ClusterCoordinator,
    ClusterTopology,
    HealthMonitor,
    LocalCluster,
    NodeAnswer,
    NodeSpec,
    merge_node_responses,
    partition_index,
)
from repro.service.resilience import DeadlineExceeded

from conftest import ClusterServeProcess


def make_records(n_records, record_bp=120, seed=0, planted=None):
    """Deterministic records; ``planted`` substrings force score ties."""
    records = []
    for i in range(n_records):
        sequence = random_dna(record_bp, seed=5_000 + seed * 1_000 + i)
        if planted is not None:
            cut = record_bp // 4
            sequence = sequence[:cut] + planted + sequence[cut + len(planted):]
        records.append((f"rec{i}", sequence))
    return records


def node_engines(index, nodes):
    """The reference cluster: per-node engines over a real partition."""
    topology, parts = partition_index(index, nodes)
    engines = {
        spec.node_id: SearchEngine(part, cache=ResultCache(0))
        for spec, part in zip(topology.nodes, parts)
        if not spec.empty
    }
    return topology, engines


def cluster_merge(query, index, nodes, options, drop=()):
    """Merge per-node engine answers, optionally dropping nodes."""
    topology, engines = node_engines(index, nodes)
    answers = [
        NodeAnswer(node_id=nid, response=engine.search(query, options))
        for nid, engine in engines.items()
        if nid not in drop
    ]
    return topology, merge_node_responses(query.upper(), answers, topology, options)


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_spans_must_be_contiguous_in_order(self):
        with pytest.raises(ValueError, match="contiguous"):
            ClusterTopology(
                nodes=(NodeSpec(0, 0, 3), NodeSpec(1, 4, 6)), total_records=6
            )
        with pytest.raises(ValueError, match="node ids"):
            ClusterTopology(
                nodes=(NodeSpec(1, 0, 3), NodeSpec(0, 3, 6)), total_records=6
            )
        with pytest.raises(ValueError, match="claims"):
            ClusterTopology(nodes=(NodeSpec(0, 0, 3),), total_records=9)

    def test_manifest_round_trip(self, tmp_path):
        topology = ClusterTopology(
            nodes=(
                NodeSpec(0, 0, 3, address="h:1", replicas=("h:2",)),
                NodeSpec(1, 3, 5, address="h:3", index_path="n1.npz"),
                NodeSpec(2, 5, 5),  # empty span survives the round trip
            ),
            total_records=5,
            version="v123",
            source="db.npz",
        )
        path = tmp_path / "cluster.json"
        topology.save(path)
        back = ClusterTopology.load(path)
        assert back == topology

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "something-else"}')
        with pytest.raises(ValueError, match="manifest"):
            ClusterTopology.load(path)

    def test_from_record_counts(self):
        topology = ClusterTopology.from_record_counts([3, 0, 2], ["a:1", "b:2", "c:3"])
        assert [(n.start, n.stop) for n in topology.nodes] == [(0, 3), (3, 3), (3, 5)]
        assert topology.total_records == 5
        assert [n.node_id for n in topology.active_nodes] == [0, 2]
        with pytest.raises(ValueError, match="counts"):
            ClusterTopology.from_record_counts([1, 2], ["a:1"])

    def test_partition_preserves_order_and_version(self):
        index = DatabaseIndex.build(make_records(7), source="orig")
        topology, parts = partition_index(index, 3)
        assert topology.version == index.version
        assert [p.record_count for p in parts] == [3, 2, 2]
        names = [name for part in parts for _g, name, _c in part.iter_records()]
        assert names == [f"rec{i}" for i in range(7)]

    def test_partition_more_nodes_than_records(self):
        """even_spans regression: trailing nodes own empty spans."""
        index = DatabaseIndex.build(make_records(2))
        topology, parts = partition_index(index, 5)
        assert [n.records for n in topology.nodes] == [1, 1, 0, 0, 0]
        assert [p.record_count for p in parts] == [1, 1, 0, 0, 0]
        assert len(topology.active_nodes) == 2


# ----------------------------------------------------------------------
# Merge semantics (pure: engines + merge, no sockets)
# ----------------------------------------------------------------------
class TestMergeBitIdentity:
    OPTIONS = QueryOptions(top=5, min_score=1)

    @given(
        n_records=st.integers(1, 8),
        nodes=st.integers(1, 6),
        seed=st.integers(0, 50),
        top=st.integers(1, 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_partition_matches_single_node(self, n_records, nodes, seed, top):
        records = make_records(n_records, seed=seed)
        index = DatabaseIndex.build(records)
        query = random_dna(40, seed=seed + 99)
        options = QueryOptions(top=top, min_score=1)
        single = SearchEngine(index, cache=ResultCache(0)).search(query, options)
        _topology, merged = cluster_merge(query, index, nodes, options)
        assert response_signature(merged) == response_signature(single)
        assert merged.report.hits == single.report.hits  # full field identity

    def test_ties_break_by_global_record_index(self):
        # Every record contains the same planted query, so every score
        # ties and the ranking is decided purely by global index.
        query = random_dna(32, seed=7)
        records = make_records(9, seed=3, planted=query)
        index = DatabaseIndex.build(records)
        options = QueryOptions(top=9, min_score=1)
        single = SearchEngine(index, cache=ResultCache(0)).search(query, options)
        scores = {hit.hit.score for hit in single.report.hits}
        assert len(scores) == 1, "tie fixture must actually tie"
        for nodes in (2, 3, 4, 9):
            _t, merged = cluster_merge(query, index, nodes, options)
            assert merged.report.hits == single.report.hits

    def test_retrieve_cutoff_is_global(self):
        # Alignments survive only inside the *global* top-`retrieve`,
        # even though every node returned its local top-`retrieve`
        # alignments — the merge must strip the ones past the cutoff.
        query = random_dna(32, seed=11)
        records = make_records(8, seed=5, planted=query)
        index = DatabaseIndex.build(records)
        options = QueryOptions(top=8, min_score=1, retrieve=3)
        single = SearchEngine(index, cache=ResultCache(0)).search(query, options)
        _t, merged = cluster_merge(query, index, 3, options)
        assert merged.report.hits == single.report.hits
        assert sum(h.alignment is not None for h in merged.report.hits) == 3

    def test_degraded_node_costs_exactly_its_span(self):
        records = make_records(10)
        index = DatabaseIndex.build(records)
        query = random_dna(36, seed=1)
        topology, merged = cluster_merge(
            query, index, 4, self.OPTIONS, drop={1}
        )
        dead = topology.node(1)
        assert merged.degraded
        assert merged.degraded_shards == (1,)
        assert merged.coverage == pytest.approx(1.0 - dead.records / 10)
        # Survivors' hits are intact: re-merge equals the full merge
        # restricted to records outside the dead span.
        live_names = {
            f"rec{i}" for i in range(10) if not dead.start <= i < dead.stop
        }
        assert {h.record for h in merged.report.hits} <= live_names

    def test_empty_span_nodes_never_degrade(self):
        records = make_records(2)
        index = DatabaseIndex.build(records)
        query = random_dna(30, seed=2)
        # 5 nodes over 2 records: nodes 2-4 are empty and absent from
        # the answers entirely — still full coverage, nothing degraded.
        _t, merged = cluster_merge(query, index, 5, self.OPTIONS)
        assert merged.coverage == 1.0
        assert merged.degraded_shards == ()

    def test_no_answers_is_a_failure_not_a_degradation(self):
        records = make_records(4)
        index = DatabaseIndex.build(records)
        topology, _parts = partition_index(index, 2)
        with pytest.raises(ValueError, match="no cluster node answered"):
            merge_node_responses(
                "ACGT",
                [NodeAnswer(node_id=0, response=None, error=ConnectionError("x"))],
                topology,
                self.OPTIONS,
            )

    def test_merged_metrics_aggregate(self):
        records = make_records(6)
        index = DatabaseIndex.build(records)
        query = random_dna(30, seed=4)
        _t, merged = cluster_merge(query, index, 3, self.OPTIONS)
        single = SearchEngine(index, cache=ResultCache(0)).search(query, self.OPTIONS)
        assert merged.metrics.records == 6
        assert merged.metrics.cells == single.metrics.cells
        assert merged.metrics.shards >= 3


# ----------------------------------------------------------------------
# Coordinator over real TCP nodes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_index():
    return DatabaseIndex.build(make_records(9, seed=8), source="cluster-test")


class TestCoordinatorEndToEnd:
    OPTIONS = QueryOptions(top=5, min_score=1)

    def test_search_matches_single_node(self, shared_index):
        queries = [random_dna(34, seed=20 + q) for q in range(3)]
        single = SearchEngine(shared_index, cache=ResultCache(0))
        with LocalCluster(shared_index, nodes=3, batch_window=0.0) as cluster:
            with cluster.client() as client:
                for query in queries:
                    got = client.search(query, self.OPTIONS)
                    want = single.search(query, self.OPTIONS)
                    assert response_signature(got) == response_signature(want)
                    assert got.report.hits == want.report.hits

    def test_killed_node_degrades_by_its_span(self, shared_index):
        with LocalCluster(shared_index, nodes=3, batch_window=0.0) as cluster:
            topology = cluster.topology()
            with cluster.client(breaker_factory=None) as client:
                cluster.kill_node(1)
                response = client.search(random_dna(30, seed=60), self.OPTIONS)
                assert response.degraded_shards == (1,)
                dead = topology.node(1)
                assert response.coverage == pytest.approx(
                    1.0 - dead.records / topology.total_records
                )
                health = client.health()
                assert health["healthy"] and not health["ready"]
                assert health["nodes_up"] == 2
                # The operator-facing verdict: partial coverage is an
                # outage, and `repro cluster health` exits nonzero on it.
                assert health["status"] == "degraded"
                assert health["degraded"] is True

    def test_deadline_expired_node_degrades(self, shared_index):
        class StallClient(SearchClient):
            """Node 0's client: answers, but far too late."""

            def search(self, query, options=None, **legacy):
                time.sleep(0.6)
                return super().search(query, options, **legacy)

        with LocalCluster(shared_index, nodes=2, batch_window=0.0) as cluster:
            stall_address = cluster.topology().node(0).address

            def factory(address, **kwargs):
                cls = StallClient if address == stall_address else SearchClient
                return cls(address, **kwargs)

            with cluster.client(
                client_factory=factory, breaker_factory=None
            ) as client:
                t0 = time.monotonic()
                response = client.search(
                    random_dna(30, seed=61),
                    self.OPTIONS.replace(deadline_ms=200),
                )
                assert time.monotonic() - t0 < 0.6
                assert response.degraded_shards == (0,)
                assert 0.0 < response.coverage < 1.0

    def test_replica_failover_covers_dead_primary(self, shared_index):
        with LocalCluster(
            shared_index, nodes=2, replicas=1, batch_window=0.0
        ) as cluster:
            with cluster.client() as client:
                cluster.kill_node(0)  # primary dies, replica keeps the span
                breaker = client.channels[0].breaker
                # Past the breaker's threshold: a leg the replica
                # answered is the node's success, not a failure.
                for seed in range(62, 64 + 2 * breaker.failure_threshold):
                    response = client.search(random_dna(30, seed=seed), self.OPTIONS)
                    assert response.coverage == 1.0
                    assert response.degraded_shards == ()
                assert breaker.state == "closed"

    def test_heartbeat_keeps_a_node_with_a_live_replica_serving(self, shared_index):
        with LocalCluster(
            shared_index, nodes=2, replicas=1, batch_window=0.0
        ) as cluster:
            with cluster.client() as client:
                cluster.kill_node(0)
                monitor = HealthMonitor(client.channels, jitter=0.0)
                for _ in range(2 * client.channels[0].breaker.failure_threshold):
                    monitor.tick()
                assert client.channels[0].breaker.state == "closed"
                response = client.search(random_dna(30, seed=64), self.OPTIONS)
                assert response.coverage == 1.0
                health = client.health()
                assert health["status"] == "ok"
                assert health["nodes"]["0"]["up"] is True
                assert health["nodes"]["0"]["breaker"] == "closed"

    def test_heartbeat_marks_a_node_killed_while_idle_down(self, shared_index):
        from repro.obs import Observability

        obs = Observability.create()
        with LocalCluster(shared_index, nodes=3, batch_window=0.0, obs=obs) as cluster:
            with cluster.client() as client:
                client.search(random_dna(30, seed=65), self.OPTIONS)
                cluster.kill_node(2)
                monitor = HealthMonitor(client.channels, jitter=0.0, obs=obs)
                for _ in range(3):
                    monitor.tick()
                assert client.channels[2].breaker.state == "open"
        gauges = obs.registry.snapshot()["gauges"]
        assert [gauges[f"repro_healthd_node_up_{n}"] for n in range(3)] == [1.0, 1.0, 0.0]

    def test_withdrawn_leg_hands_back_its_half_open_trial(self, shared_index):
        now = [0.0]
        with LocalCluster(shared_index, nodes=2, batch_window=0.0) as cluster:
            with cluster.client(
                breaker_factory=lambda node_id: CircuitBreaker(
                    failure_threshold=1, recovery_time=1.0, clock=lambda: now[0]
                )
            ) as client:
                breaker = client.channels[0].breaker
                breaker.record_failure(ConnectionError("down"))
                now[0] = 1.0  # half-open: the next leg is the one trial
                # Every leg queues behind a busy thread and is withdrawn
                # unsent when the gather runs out of budget.
                client._executor.shutdown()
                client._executor = ThreadPoolExecutor(max_workers=1)
                release = threading.Event()
                client._executor.submit(release.wait)
                try:
                    with pytest.raises(ValueError, match="no cluster node answered"):
                        client.search(
                            random_dna(30, seed=65),
                            self.OPTIONS.replace(deadline_ms=100),
                        )
                finally:
                    release.set()
                assert breaker.state == "half-open"
                breaker.allow()  # the trial slot came back

    def test_more_nodes_than_records_serves_clean(self):
        index = DatabaseIndex.build(make_records(2, seed=9))
        single = SearchEngine(index, cache=ResultCache(0))
        query = random_dna(30, seed=63)
        with LocalCluster(index, nodes=4, batch_window=0.0) as cluster:
            assert len(cluster.addresses) == 2  # empty nodes never spawn
            with cluster.client() as client:
                got = client.search(query, self.OPTIONS)
        want = single.search(query, self.OPTIONS)
        assert response_signature(got) == response_signature(want)

    def test_invalid_options_rejected_locally(self, shared_index):
        with LocalCluster(shared_index, nodes=2, batch_window=0.0) as cluster:
            with cluster.client() as client:
                with pytest.raises(ValueError, match="top"):
                    client.search("ACGT", QueryOptions(top=0))

    def test_refused_at_admission_is_an_slo_observation(self, shared_index):
        slo = SloTracker()
        with LocalCluster(shared_index, nodes=2, batch_window=0.0) as cluster:
            with cluster.client(slo=slo) as client:
                with pytest.raises(DeadlineExceeded):
                    client.search("ACGT", QueryOptions(deadline_ms=0))
                client.search(random_dna(30, seed=65), self.OPTIONS)
        assert [status.fast_total for status in slo.evaluate()] == [2] * len(
            slo.objectives
        )

    def test_from_addresses_probes_spans(self, shared_index):
        single = SearchEngine(shared_index, cache=ResultCache(0))
        query = random_dna(30, seed=64)
        with LocalCluster(shared_index, nodes=3, batch_window=0.0) as cluster:
            with ClusterCoordinator.from_addresses(cluster.addresses) as client:
                assert client.topology.total_records == shared_index.record_count
                assert client.health()["ready"]
                got = client.search(query, self.OPTIONS)
        assert response_signature(got) == response_signature(
            single.search(query, self.OPTIONS)
        )

    def test_coordinator_requires_bound_addresses(self, shared_index):
        topology, _parts = partition_index(shared_index, 2)
        with pytest.raises(ValueError, match="no address"):
            ClusterCoordinator(topology)


# ----------------------------------------------------------------------
# Distributed observability: one query -> one stitched trace; one
# scrape -> one fleet view.
# ----------------------------------------------------------------------
class TestClusterObservability:
    OPTIONS = QueryOptions(top=5, min_score=1)

    def test_one_query_yields_one_stitched_trace(self, shared_index):
        from repro.obs import Observability

        query = random_dna(34, seed=77)
        obs = Observability.create()
        single = SearchEngine(shared_index, cache=ResultCache(0))
        with LocalCluster(
            shared_index, nodes=3, batch_window=0.0, obs=obs
        ) as cluster:
            with cluster.client() as client:
                response = client.search(query, self.OPTIONS)
                trace_id = client.last_trace_id
                assert trace_id
                tree = client.trace_tree(trace_id)
        assert tree is not None and tree.name == "cluster.search"
        legs = [s for s in tree.walk() if s.name == "node.search"]
        assert len(legs) == 3
        for leg in legs:
            assert leg.attrs["stitched"] is True
            (remote,) = leg.children
            assert remote.name == "net.batch"
            names = [s.name for s in remote.walk()]
            assert "engine.search" in names and "shard.sweep" in names
        # One trace: every span, local and grafted, shares the root id.
        assert {s.trace_id for s in tree.walk()} == {trace_id}
        # Cells attribution on the fan-out legs sums to the full sweep.
        assert sum(leg.attrs["cells"] for leg in legs) == response.report.cells
        assert response.report.cells == single.search(query, self.OPTIONS).report.cells

    def test_fleet_scrape_merges_every_node(self, shared_index):
        from repro.obs import Observability, validate_exposition

        obs = Observability.create()
        queries = [random_dna(30, seed=90 + q) for q in range(3)]
        with LocalCluster(
            shared_index, nodes=3, batch_window=0.0, obs=obs
        ) as cluster:
            with cluster.client() as client:
                for query in queries:
                    client.search(query, self.OPTIONS)
                view = client.aggregator.scrape()
        exposition = validate_exposition(view.render_prometheus())
        snapshot = view.snapshot()
        nodes = {
            dict(s.labels).get("node")
            for s in exposition.samples
            if dict(s.labels).get("node") not in (None, "coordinator")
        }
        assert nodes == {"0", "1", "2"}
        fleet = {s.name: s.value for s in exposition.samples if not s.labels}
        assert fleet["repro_fleet_nodes"] >= 3.0
        assert fleet["repro_fleet_sustained_cups"] > 0.0
        assert snapshot["fleet"]["repro_fleet_nodes_failed"] == 0.0
        assert set(snapshot["nodes"]) >= {"0", "1", "2"}

    def test_trace_of_unknown_id_raises(self, shared_index):
        from repro.obs import Observability

        with LocalCluster(
            shared_index, nodes=2, batch_window=0.0, obs=Observability.create()
        ) as cluster:
            with cluster.client() as client:
                with pytest.raises(ValueError, match="unknown trace id"):
                    client.trace("t999999")


class TestClusterCLI:
    """``repro cluster trace/stats/slo`` against live TCP nodes.

    Exit-code contract, shared with ``cluster health``: 0 only for a
    fully healthy answer, 1 for degraded / missing / unreachable.
    """

    @pytest.fixture()
    def live_cluster(self, shared_index):
        from repro.obs import Observability

        with LocalCluster(
            shared_index, nodes=2, batch_window=0.0, obs=Observability.create()
        ) as cluster:
            yield ",".join(cluster.addresses)

    def test_query_trace_stats_slo_exit_zero(self, live_cluster, capsys):
        from repro.cli import main

        query = random_dna(32, seed=66)
        assert main(["cluster", "query", live_cluster, query, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "cluster.search" in out
        assert "stitched=True" in out

        assert main(["cluster", "stats", live_cluster]) == 0
        from repro.obs import validate_exposition

        exposition = validate_exposition(capsys.readouterr().out)
        assert any(
            s.name == "repro_fleet_sustained_cups" for s in exposition.samples
        )

        assert main(["cluster", "stats", live_cluster, "--json"]) == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["fleet"]["repro_fleet_nodes_failed"] == 0.0

        assert main(["cluster", "slo", live_cluster, query, "--probes", "3"]) == 0
        assert "slo ok" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_stats_scrapes_the_fleet_once(self, live_cluster, flags, monkeypatch):
        """The printed view and the exit code come from one scrape, so a
        node dying mid-command cannot make them disagree."""
        from repro.cli import main
        from repro.obs import MetricsAggregator

        calls = []
        scrape = MetricsAggregator.scrape

        def counted(self):
            calls.append(self)
            return scrape(self)

        monkeypatch.setattr(MetricsAggregator, "scrape", counted)
        assert main(["cluster", "stats", live_cluster, *flags]) == 0
        assert len(calls) == 1

    def test_unknown_trace_id_exits_one(self, live_cluster, capsys):
        from repro.cli import main

        assert main(["cluster", "trace", live_cluster, "t999999"]) == 1
        assert "error not-found" in capsys.readouterr().err

    def test_serve_drains_and_leaves_a_fleet_metrics_dump(self, shared_index, tmp_path):
        """``cluster partition`` then ``cluster serve --metrics-file``:
        after SIGINT the dump is the fleet view taken after the drain,
        one ``node=`` entry per node, with the traffic it served."""
        from repro.cli import main

        shared_index.save(tmp_path / "db.npz")
        outdir = tmp_path / "cl"
        argv = ["cluster", "partition", str(tmp_path / "db.npz"), str(outdir)]
        assert main([*argv, "--nodes", "2"]) == 0
        manifest = outdir / "cluster.json"
        dump = tmp_path / "fleet.json"
        flags = ("--metrics-file", str(dump), "--metrics-interval", "3600")
        query = random_dna(32, seed=66)
        with ClusterServeProcess(manifest, *flags) as served:
            with ClusterCoordinator(ClusterTopology.load(manifest)) as client:
                response = client.search(query, QueryOptions(top=5, min_score=1))
            output = served.stop()
        assert response.coverage == 1.0
        assert "cluster drained; served 2 requests\n" in output, "".join(output)
        snapshot = json.loads(dump.read_text())
        assert sorted(snapshot["nodes"]) == ["0", "1"]
        for node in snapshot["nodes"].values():
            assert node["ok"] is True
            assert node["scalars"]["repro_net_requests_total"] == 1.0

    def test_unreachable_cluster_exits_one_like_health(self, capsys):
        from repro.cli import main

        # Port 1 refuses: every observability verb fails the same way
        # health does, so scripted gates can treat them uniformly.
        assert main(["cluster", "health", "127.0.0.1:1"]) == 1
        assert main(["cluster", "stats", "127.0.0.1:1"]) == 1
        assert main(["cluster", "trace", "127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert err.count("error") >= 3


# ----------------------------------------------------------------------
# Cluster chaos: the scheduled-fault invariants
# ----------------------------------------------------------------------
class TestClusterChaos:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_kill_and_netsplit_schedule_holds_invariants(self, seed):
        report = run_cluster_chaos(seed=seed, requests=10, nodes=3)
        # No lost queries, answers bit-identical to the reference,
        # degradation == the down spans, fault-free == single-node.
        assert report.ok, report.violations
        assert len(report.entries) == 10
        assert report.facts["kills"] == 1
        assert report.facts["splits"] >= 1
        assert report.facts["nodes_up"] == 2

    def test_schedule_is_reproducible_and_survivable(self):
        from repro.service.chaos import ClusterChaosSchedule

        a = ClusterChaosSchedule(3, 20, nodes=3)
        b = ClusterChaosSchedule(3, 20, nodes=3)
        assert a.to_payload() == b.to_payload()
        for i in range(20):
            assert len(a.down_at(i)) < 3
