"""Self-healing tier tests: heartbeat, supervisor, adaptive admission.

Everything stateful runs tick-driven on fake clocks and fake channels
— ejection, probation, backoff and AIMD dynamics are asserted as
deterministic state-machine transitions, not sleeps.  The integration
tests then wire the same objects over a real thread-mode
:class:`LocalCluster` and prove the full arc: kill → eject → respawn →
reattach → full coverage.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.generate import random_dna
from repro.obs import NULL_OBS, Observability
from repro.service import (
    AdaptiveLimiter,
    CircuitBreaker,
    CircuitOpen,
    ClusterSupervisor,
    DatabaseIndex,
    HealthMonitor,
    QueryOptions,
)
from repro.service.chaos import limiter_convergence_trace, run_selfheal_chaos
from repro.service.cluster import LocalCluster, NodeSpec
from repro.service.cluster.coordinator import NodeChannel
from repro.service.guard import ServiceTimeTracker
from repro.service.resilience import RetryPolicy

OPTIONS = QueryOptions(top=5, min_score=1)


def make_index(n_records=9, record_bp=200, seed=0):
    records = [
        (f"rec{i}", random_dna(record_bp, seed=7_000 + seed * 100 + i))
        for i in range(n_records)
    ]
    return DatabaseIndex.build(records, shards=3)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# AdaptiveLimiter: AIMD dynamics
# ----------------------------------------------------------------------
class TestAdaptiveLimiter:
    def test_starts_at_initial_and_holds_the_ceiling(self):
        limiter = AdaptiveLimiter(initial=8, max_limit=8)
        assert limiter.limit == 8
        for _ in range(100):
            limiter.on_success()
        # A fault-free run is byte-identical to the static config.
        assert limiter.limit == 8
        assert limiter.successes == 100 and limiter.cuts == 0

    def test_additive_increase_is_one_slot_per_window(self):
        limiter = AdaptiveLimiter(initial=4, max_limit=64)
        # ~one window of on-time completions buys one admission slot:
        # each success adds increase/limit, so growth is sub-linear.
        for _ in range(5):
            limiter.on_success()
        assert limiter.limit == 5

    def test_multiplicative_decrease_and_floor(self):
        clock = FakeClock()
        limiter = AdaptiveLimiter(
            initial=64, min_limit=2, max_limit=64, cooldown=0.25, clock=clock
        )
        assert limiter.on_overload() is True
        assert limiter.limit == 32
        for _ in range(20):
            clock.advance(1.0)
            limiter.on_overload()
        # Repeated cuts bottom out at the floor, never below.
        assert limiter.limit == 2

    def test_cooldown_coalesces_one_episode_into_one_cut(self):
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=64, cooldown=0.25, clock=clock)
        assert limiter.on_overload() is True
        # The same overload episode produces a burst of misses; only
        # the first one cuts.
        assert limiter.on_overload() is False
        assert limiter.on_overload() is False
        assert limiter.limit == 32 and limiter.cuts == 1 and limiter.misses == 3
        clock.advance(0.3)
        assert limiter.on_overload() is True
        assert limiter.limit == 16 and limiter.cuts == 2

    def test_recovers_toward_ceiling_after_a_cut(self):
        clock = FakeClock()
        limiter = AdaptiveLimiter(initial=8, max_limit=8, clock=clock)
        limiter.on_overload()
        assert limiter.limit == 4
        for _ in range(200):
            limiter.on_success()
        assert limiter.limit == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(min_limit=0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(initial=4, max_limit=2)
        with pytest.raises(ValueError):
            AdaptiveLimiter(backoff=1.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(increase=0)

    def test_converges_under_slow_node_schedule(self):
        trace = limiter_convergence_trace(capacity=4, initial=64)
        assert trace["converged"], trace["settle"]
        # The settle band hugs real capacity: off the static ceiling,
        # above the floor.
        assert all(1 <= limit <= 16 for limit in trace["settle"])
        assert max(trace["trace"][:3]) > 16  # the transient started high


class TestServiceTimeTracker:
    def test_no_opinion_until_warm(self):
        tracker = ServiceTimeTracker(min_samples=5)
        for _ in range(4):
            tracker.observe(0.1)
        assert tracker.percentile(0.9) is None
        tracker.observe(0.1)
        assert tracker.percentile(0.9) == pytest.approx(0.1)

    def test_percentile_ranks_the_window(self):
        tracker = ServiceTimeTracker(min_samples=10)
        for i in range(100):
            tracker.observe(i / 100.0)
        assert tracker.percentile(0.9) == pytest.approx(0.9)
        assert tracker.percentile(0.5) == pytest.approx(0.5)

    def test_window_is_bounded(self):
        tracker = ServiceTimeTracker(min_samples=1, max_samples=8)
        for i in range(100):
            tracker.observe(float(i))
        assert len(tracker) == 8
        # Only the newest samples survive: a slow past ages out.
        assert tracker.percentile(0.5) >= 92.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeTracker(min_samples=0)
        with pytest.raises(ValueError):
            ServiceTimeTracker(min_samples=5, max_samples=4)
        with pytest.raises(ValueError):
            ServiceTimeTracker().percentile(1.0)


# ----------------------------------------------------------------------
# HealthMonitor: tick-driven probes feeding each node's breaker
# ----------------------------------------------------------------------
class FakeChannel:
    def __init__(self, alive=True, threshold=3):
        self.alive = alive
        # A frozen clock: only probes and legs move the breaker.
        self.breaker = CircuitBreaker(
            failure_threshold=threshold, recovery_time=10.0, name="fake",
            clock=FakeClock(),
        )

    def ping(self):
        return self.alive


class TestHealthMonitor:
    def monitor(self, channels, **kwargs):
        kwargs.setdefault("jitter", 0.0)
        return HealthMonitor(channels, **kwargs)

    def test_ejects_after_consecutive_failures_only(self):
        channels = {0: FakeChannel(), 1: FakeChannel()}
        monitor = self.monitor(channels)
        channels[1].alive = False
        monitor.tick()
        monitor.tick()
        assert channels[1].breaker.state == CircuitBreaker.CLOSED  # 2 < threshold
        assert monitor.tick() == {0: CircuitBreaker.CLOSED, 1: CircuitBreaker.OPEN}
        with pytest.raises(CircuitOpen):
            channels[1].breaker.allow()

    def test_probation_readmits_and_resets_the_breaker(self):
        channels = {0: FakeChannel(alive=False, threshold=1)}
        monitor = self.monitor(channels)
        breaker = channels[0].breaker
        monitor.tick()
        assert breaker.state == CircuitBreaker.OPEN
        channels[0].alive = True
        # Long before the recovery time: the answer itself half-opens.
        assert monitor.tick() == {0: CircuitBreaker.HALF_OPEN}
        breaker.allow()  # the trial leg
        with pytest.raises(CircuitOpen):
            breaker.allow()  # one trial at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens_a_half_open_breaker(self):
        channels = {0: FakeChannel(alive=False, threshold=1)}
        monitor = self.monitor(channels)
        monitor.tick()
        channels[0].alive = True
        monitor.tick()
        channels[0].alive = False
        assert monitor.tick() == {0: CircuitBreaker.OPEN}

    def test_good_probe_keeps_a_closed_breakers_leg_failure_streak(self):
        channels = {0: FakeChannel(threshold=3)}
        monitor = self.monitor(channels)
        breaker = channels[0].breaker
        breaker.record_failure(ConnectionError("leg failed"))
        breaker.record_failure(ConnectionError("leg failed"))
        monitor.tick()  # the node answers pings...
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(ConnectionError("leg failed"))
        # ...but its searches keep failing, so it still trips.
        assert breaker.state == CircuitBreaker.OPEN

    def test_probes_are_counted(self):
        obs = Observability.create()
        monitor = self.monitor({0: FakeChannel(), 1: FakeChannel()}, obs=obs)
        monitor.tick()
        monitor.tick()
        counters = obs.registry.snapshot()["counters"]
        assert counters["repro_healthd_probes_total"] == 4
        assert monitor.describe()["ticks"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor({}, interval=0)
        with pytest.raises(ValueError):
            HealthMonitor({}, jitter=1.0)
        unguarded = FakeChannel()
        unguarded.breaker = None
        with pytest.raises(ValueError, match="no breaker"):
            HealthMonitor({0: FakeChannel(), 3: unguarded})


# ----------------------------------------------------------------------
# ClusterSupervisor: backoff, abandonment, reattach
# ----------------------------------------------------------------------
class FakeCluster:
    def __init__(self):
        self.dead = set()
        self.failing = set()
        self.respawned = []
        self._port = 9000

    def dead_nodes(self):
        return sorted(self.dead)

    def respawn_node(self, node_id):
        if node_id in self.failing:
            raise RuntimeError(f"node {node_id} refuses to start")
        self.dead.discard(node_id)
        self.respawned.append(node_id)
        self._port += 1
        return f"127.0.0.1:{self._port}"


class FakeCoordinator:
    def __init__(self, known=frozenset({0, 1, 2})):
        self.known = known
        self.reattached = []

    def reattach_node(self, node_id, address):
        if node_id not in self.known:
            raise KeyError(node_id)
        self.reattached.append((node_id, address))


class TestClusterSupervisor:
    def test_respawns_and_reattaches_every_coordinator(self):
        cluster, clock = FakeCluster(), FakeClock()
        cluster.dead = {1}
        coords = [FakeCoordinator(), FakeCoordinator()]
        supervisor = ClusterSupervisor(cluster, coordinators=coords, clock=clock)
        assert supervisor.check_once() == [1]
        assert cluster.respawned == [1]
        for coord in coords:
            assert coord.reattached == [(1, "127.0.0.1:9001")]
        assert supervisor.respawns == 1 and supervisor.respawn_failures == 0

    def test_failed_respawn_backs_off_on_the_injected_clock(self):
        cluster, clock = FakeCluster(), FakeClock()
        cluster.dead = {0}
        cluster.failing = {0}
        policy = RetryPolicy(retries=5, base_delay=1.0, max_delay=8.0, jitter=0.0)
        supervisor = ClusterSupervisor(cluster, policy=policy, clock=clock)
        assert supervisor.check_once() == []
        assert supervisor.respawn_failures == 1
        # Inside the backoff window: the node is not hammered.
        assert supervisor.check_once() == []
        assert supervisor.respawn_failures == 1
        clock.advance(policy.delay(0, token=0) + 0.01)
        cluster.failing = set()
        assert supervisor.check_once() == [0]

    def test_exhausted_retries_abandon_until_revived(self):
        cluster, clock = FakeCluster(), FakeClock()
        cluster.dead = {0}
        cluster.failing = {0}
        policy = RetryPolicy(retries=1, base_delay=0.5, max_delay=1.0, jitter=0.0)
        supervisor = ClusterSupervisor(cluster, policy=policy, clock=clock)
        supervisor.check_once()
        clock.advance(10.0)
        supervisor.check_once()
        assert supervisor.abandoned == {0}
        # Abandoned: no more attempts, however long we wait.
        clock.advance(100.0)
        cluster.failing = set()
        assert supervisor.check_once() == []
        supervisor.revive(0)
        assert supervisor.check_once() == [0]
        assert supervisor.abandoned == set()

    def test_coordinator_without_a_channel_is_tolerated(self):
        cluster, clock = FakeCluster(), FakeClock()
        cluster.dead = {7}
        coord = FakeCoordinator(known=frozenset({0}))
        supervisor = ClusterSupervisor(cluster, coordinators=[coord], clock=clock)
        assert supervisor.check_once() == [7]
        assert coord.reattached == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSupervisor(FakeCluster(), poll_interval=0)


# ----------------------------------------------------------------------
# NodeChannel.ping: a probe must never raise
# ----------------------------------------------------------------------
class ExplodingClient:
    """SearchClient stand-in whose ping misbehaves on demand."""

    def __init__(self, address, exc=None, **kwargs):
        self.exc = exc

    def ping(self):
        if self.exc is not None:
            raise self.exc
        return True

    def close(self):
        pass


PROBE_FAULTS = [
    ConnectionError("refused"),
    ConnectionResetError("reset"),
    OSError(9, "bad descriptor"),
    TimeoutError("slow"),
    EOFError(),
    RuntimeError("mystery"),
    ValueError("garbage frame"),
]


class TestNodeChannelPing:
    def channel(self, exc):
        spec = NodeSpec(node_id=0, start=0, stop=4, address="127.0.0.1:1")
        return NodeChannel(
            spec,
            client_factory=lambda address, **kw: ExplodingClient(address, exc=exc),
            breaker=None,
            retry=RetryPolicy(retries=0),
            timeout=1.0,
            obs=NULL_OBS,
        )

    @settings(max_examples=40, deadline=None)
    @given(exc=st.sampled_from(PROBE_FAULTS))
    def test_ping_never_raises_it_reports_down(self, exc):
        assert self.channel(exc).ping() is False

    def test_ping_healthy(self):
        assert self.channel(None).ping() is True

    def test_ping_falls_over_to_a_live_replica(self):
        spec = NodeSpec(
            node_id=0, start=0, stop=4, address="127.0.0.1:1",
            replicas=("127.0.0.1:2",),
        )
        dead = {spec.address: ConnectionError("dead")}
        channel = NodeChannel(
            spec,
            client_factory=lambda address, **kw: ExplodingClient(
                address, exc=dead.get(address)
            ),
            breaker=None,
            retry=RetryPolicy(retries=0),
            timeout=1.0,
            obs=NULL_OBS,
        )
        assert channel.ping() is True


# ----------------------------------------------------------------------
# LocalCluster lifecycle: kill/stop are idempotent
# ----------------------------------------------------------------------
class TestLocalClusterIdempotence:
    def test_double_kill_double_stop_and_kill_after_stop(self):
        index = make_index()
        cluster = LocalCluster(index, nodes=3, batch_window=0.0)
        try:
            cluster.kill_node(1)
            cluster.kill_node(1)  # chaos and supervisor race: no-op
            assert cluster.dead_nodes() == [1]
            cluster.kill_node(99)  # unknown node: no-op
        finally:
            cluster.stop()
        cluster.stop()  # second stop: no-op
        cluster.kill_node(0)  # kill after stop: no-op
        assert cluster.dead_nodes() == []

    def test_respawn_after_stop_is_an_error_not_a_crash(self):
        index = make_index()
        cluster = LocalCluster(index, nodes=2, batch_window=0.0)
        cluster.stop()
        with pytest.raises(KeyError):
            cluster.respawn_node(0)


# ----------------------------------------------------------------------
# Integration: the full heal arc over a real thread-mode cluster
# ----------------------------------------------------------------------
class TestSelfHealIntegration:
    def test_eject_respawn_readmit_restores_coverage(self):
        index = make_index(n_records=12)
        query = random_dna(30, seed=42)
        with LocalCluster(index, nodes=3, batch_window=0.0) as cluster:
            # A recovery time no test run reaches: only probes and legs
            # move the breakers, never the wall clock.
            with cluster.client(
                breaker_factory=lambda node_id: CircuitBreaker(
                    failure_threshold=2, recovery_time=600.0, name=f"node-{node_id}"
                )
            ) as coordinator:
                monitor = HealthMonitor(coordinator.channels, jitter=0.0)
                breaker = coordinator.channels[1].breaker
                supervisor = ClusterSupervisor(cluster, coordinators=[coordinator])
                baseline = coordinator.search(query, OPTIONS)
                assert baseline.coverage == 1.0
                cluster.kill_node(1)
                for _ in range(breaker.failure_threshold):
                    monitor.tick()
                # The heartbeat opened the breaker with no traffic flowing.
                assert breaker.state == CircuitBreaker.OPEN
                degraded = coordinator.search(query, OPTIONS)
                assert degraded.coverage < 1.0
                assert degraded.degraded_shards == (1,)
                assert supervisor.check_once() == [1]
                # Reattaching keeps the probation...
                assert breaker.state == CircuitBreaker.OPEN
                monitor.tick()  # ...until a probe reaches the new address
                assert breaker.state == CircuitBreaker.HALF_OPEN
                healed = coordinator.search(query, OPTIONS)
                assert healed.coverage == 1.0
                assert breaker.state == CircuitBreaker.CLOSED
                assert [
                    (hit.record, hit.score) for hit in healed.report.hits
                ] == [(hit.record, hit.score) for hit in baseline.report.hits]

    def test_selfheal_chaos_thread_mode_is_clean(self):
        report = run_selfheal_chaos(seed=11, mode="thread")
        # Heal budget, respawn, SLO timeline, limiter convergence and
        # every answer against the topology's expected coverage.
        assert report.ok, report.violations
        assert report.facts["respawned"] == [report.facts["victim"]]
