"""Deterministic chaos harness for the search service.

Fault-tolerance code that is only exercised by the faults production
happens to throw is untested code.  This module scripts the faults
and judges every run with one checker.

Four seeded fault schedules drive the real service — real sockets,
real TCP shard nodes, real files — with no mocks between client and
engine:

* :func:`run_chaos` — per request, a :class:`ChaosSchedule` makes the
  *network* misbehave (a frame delayed, severed mid-transmission or
  corrupted in transit) or a *worker* crash or hang (via the
  supervised pool's :class:`~repro.service.resilience.FaultPlan`), and
  hot-reloads the index under the traffic, once with a loader that
  dies mid-load.  :func:`run_reload_storm` swaps generations under
  genuinely concurrent clients.
* :func:`run_cluster_chaos` — a :class:`ClusterChaosSchedule` kills
  shard nodes and severs the network to others while queries flow
  through a live 3-node :class:`~repro.service.cluster.LocalCluster`.
* :func:`run_selfheal_chaos` — a seeded kill takes a node down; the
  :class:`~repro.service.cluster.healthd.HealthMonitor` must eject it,
  the :class:`~repro.service.cluster.supervisor.ClusterSupervisor`
  respawn it and probation readmit it within a heartbeat budget.
* :func:`run_ingest_chaos` — a table of disk faults against the WAL
  ingest lifecycle: a crash at every labeled
  :class:`~repro.service.resilience.FaultFS` barrier, torn and short
  writes, lying fsyncs and ENOSPC/EIO read-only degradation, plus a
  live TCP server leg.

Every runner returns one :class:`ChaosReport`: one ``(label, outcome,
expected)`` entry per request or scenario, and the ``violations``
that :func:`_judge` finds.  The checker's invariants:

* nothing is lost — an exception outcome is a violation (the client's
  request-id matching raises on cross-talk, so a completed run also
  proves nothing was double-answered);
* answers are bit-identical — :func:`response_signature` of every
  outcome equals that of its expected answer, which is the fault-free
  single-node baseline whenever nothing is down;
* degradation is exactly what was injected — with cluster nodes down,
  the expected coverage and ``degraded_shards`` are computed from the
  topology's record counts, never from the merge under test;
* each harness's own promises, as plain-word violations: served ==
  issued and nothing in flight after drain, worker faults healed by
  pool retries (never by the engine's in-process fallback), the
  heal-tick budget and the respawn, the SLO timeline, limiter
  convergence, the failover trace probe, and for ingest acked ⊆ served
  and convergence to the fault-free reference.

Two runs with the same seed inject the same faults in the same order.
Timing still varies, so the invariants are phrased over *outcomes*
(which are deterministic), never over durations.  Every injection and
recovery lands in a :class:`ChaosEventLog`, dumped as JSON to the path
in ``REPRO_CHAOS_LOG`` when it is set.

``python -m repro.service.chaos --seed 7`` runs the single-node
schedule and exits nonzero on any violation; ``--cluster``,
``--selfheal`` (optionally with ``--mode process``) and ``--ingest``
pick the other schedules, and ``--log PATH`` writes the event log.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..io.atomic import atomic_write
from ..io.generate import mutate, random_dna
from . import QueryOptions
from .cache import ResultCache
from .client import SearchClient, _Connection
from .engine import SearchEngine, SearchResponse
from .guard import IndexManager
from .index import DatabaseIndex
from .ingest import IngestReadOnly, IngestService
from .net import ServerConfig, ServerThread
from .resilience import (
    CrashPoint,
    DiskFaultPlan,
    Fault,
    FaultFS,
    FaultPlan,
    RetryPolicy,
    ServiceError,
    SupervisedWorkerPool,
)

__all__ = [
    "ChaosAction",
    "ChaosConnectionFactory",
    "ChaosEventLog",
    "ChaosReport",
    "ChaosSchedule",
    "ClusterChaosSchedule",
    "NET_FAULT_KINDS",
    "NetsplitController",
    "POOL_FAULT_KINDS",
    "CHAOS_LOG_ENV",
    "build_workload",
    "limiter_convergence_trace",
    "response_signature",
    "run_chaos",
    "run_cluster_chaos",
    "run_ingest_chaos",
    "run_reload_storm",
    "run_selfheal_chaos",
]

#: Environment variable naming where the event log is dumped as JSON.
CHAOS_LOG_ENV = "REPRO_CHAOS_LOG"

#: Client-side transport faults (applied by :class:`ChaosConnectionFactory`).
NET_FAULT_KINDS = ("slow", "sever", "corrupt")

#: Server-side worker faults (applied via the supervised pool's FaultPlan).
POOL_FAULT_KINDS = ("crash", "hang")

#: Shards of the chaos workload; worker faults target one of them.
CHAOS_SHARDS = 4

#: Node kills and netsplits per cluster schedule.
CLUSTER_KILLS = 1
CLUSTER_SPLITS = 4

#: The self-heal incident: requests per phase, failing beats before an
#: ejection, probation beats before readmission, and the heartbeat
#: budget for the whole arc (one supervisor sweep plus slack for a
#: slow respawn probe).
SELFHEAL_REQUESTS_PER_PHASE = 3
SELFHEAL_EJECT_AFTER = 2
SELFHEAL_READMIT_AFTER = 1
SELFHEAL_HEARTBEAT_BUDGET = SELFHEAL_EJECT_AFTER + SELFHEAL_READMIT_AFTER + 3

#: Rounds of the limiter's slow-node schedule, and the final stretch
#: over which convergence is judged.
LIMITER_ROUNDS = 60
LIMITER_SETTLE_ROUNDS = 10

#: Ingest faults that leave the service read-only instead of crashing it.
READ_ONLY_FAULTS = ("short", "enospc", "eio")

#: Options of every chaos search (the ingest drills rank deeper).
OPTIONS = QueryOptions(top=5, min_score=1)


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class ChaosEventLog:
    """Append-only, thread-safe record of everything the harness did.

    Events are plain dicts with a monotonically increasing ``seq`` —
    the injection *order* is the reproducible part of a chaos run, so
    the log captures it explicitly.  :meth:`dump` writes the whole log
    as JSON for CI to archive.
    """

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()

    def record(self, kind: str, **details: object) -> None:
        with self._lock:
            self._events.append({"seq": len(self._events), "kind": kind, **details})

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump(self, path: str | Path) -> Path:
        path = Path(path)
        atomic_write(path, json.dumps(self.events, indent=2) + "\n")
        return path

    def dump_env(self, env_var: str = CHAOS_LOG_ENV) -> Path | None:
        """Dump to the path named by ``env_var`` (no-op when unset)."""
        target = os.environ.get(env_var)
        if not target:
            return None
        return self.dump(target)


# ----------------------------------------------------------------------
# Report and checker
# ----------------------------------------------------------------------
def response_signature(response: SearchResponse) -> tuple:
    """The bit-identity fingerprint of one answer: ranking + coverage."""
    return (
        tuple(
            (hit.record, hit.length, hit.hit.as_tuple())
            for hit in response.report.hits
        ),
        response.coverage,
        response.degraded_shards,
    )


@dataclass
class ChaosReport:
    """What one chaos run did, and every promise it broke.

    ``entries`` holds one ``(label, outcome, expected)`` triple per
    request or scenario.  A request's outcome is its
    :class:`SearchResponse` (judged against the expected response) or
    the exception it ended in; a disk-fault scenario's outcome is a
    dict of what happened, judged key by key against the expected
    dict.  ``facts`` are the run's counts for :meth:`summary`.
    ``violations`` is filled by :func:`_judge` alone, so :attr:`ok`
    means every invariant held.
    """

    harness: str
    seed: int
    log: ChaosEventLog
    entries: list[tuple[str, object, object]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    facts: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        facts = " ".join(f"{key}={value}" for key, value in self.facts.items())
        lines = [
            f"{self.harness} seed={self.seed}: {facts}; "
            f"{len(self.violations)} violations"
        ]
        for label, outcome, _expected in self.entries:
            if isinstance(outcome, dict):  # one line per disk-fault scenario
                row = " ".join(f"{key}={value}" for key, value in outcome.items())
                lines.append(f"  {label}: {row}")
        lines.extend(f"  violation: {problem}" for problem in self.violations)
        return "\n".join(lines)


def _judge(report: ChaosReport, promises: dict[str, bool]) -> ChaosReport:
    """The one invariant checker: fill ``report.violations``, dump the log.

    Every entry is judged the same way — an exception is a lost
    request, a response must match its expected response's signature,
    a scenario dict must agree with every key of its expected dict.
    ``promises`` maps each harness-specific promise, in plain words,
    to whether it held.
    """
    for label, outcome, expected in report.entries:
        if isinstance(outcome, Exception):
            report.violations.append(f"{label}: lost ({outcome!r})")
        elif isinstance(outcome, dict):
            report.violations.extend(
                f"{label}: {key}={outcome.get(key)!r}, expected {want!r}"
                for key, want in expected.items()
                if outcome.get(key) != want
            )
        else:
            got, want = response_signature(outcome), response_signature(expected)
            if got[0] != want[0]:
                report.violations.append(f"{label}: ranking differs from the reference")
            elif got != want:
                report.violations.append(
                    f"{label}: coverage/degraded {got[1:]}, expected {want[1:]}"
                )
    report.violations.extend(promise for promise, held in promises.items() if not held)
    report.log.dump_env()
    return report


def _ask(
    report: ChaosReport,
    label: str,
    client: object,
    query: str,
    expected: SearchResponse,
    **where: object,
) -> None:
    """Issue one search and enter its outcome in ``report``."""
    try:
        outcome = client.search(query, OPTIONS)
        report.log.record("answered", **where, coverage=outcome.coverage)
    except Exception as exc:  # noqa: BLE001 - judged by the report
        outcome = exc
        report.log.record("request-failed", **where, error=str(exc))
    report.entries.append((label, outcome, expected))


def _drain_promises(
    served: int, issued: int, inflight: int, generation: int, reloads: int
) -> dict[str, bool]:
    """A single-node server answered everything and drained clean."""
    return {
        f"server served {served} of {issued} requests": served == issued,
        f"{inflight} requests in flight after drain": inflight == 0,
        f"generation {generation} after {reloads} reloads": generation == 1 + reloads,
    }


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault: what goes wrong around one request.

    ``kind`` is drawn from :data:`NET_FAULT_KINDS` (the client's next
    frame is delayed/severed/corrupted) or :data:`POOL_FAULT_KINDS`
    (one shard's worker crashes or hangs on its first attempt).  All
    kinds are *recoverable*: client retries heal transport faults,
    pool retries heal worker faults, so the chaos run's answers must
    stay bit-identical to the fault-free baseline.
    """

    kind: str
    shard_id: int = 0
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in NET_FAULT_KINDS + POOL_FAULT_KINDS:
            raise ValueError(f"unknown chaos action kind {self.kind!r}")


class ChaosSchedule:
    """A seeded, fully precomputed plan of per-request fault injections.

    The schedule is derived from ``seed`` alone before any traffic
    flows — chaos never consults the clock or live state to decide
    what to break, which is what makes a failing run replayable.
    ``actions`` maps request index → :class:`ChaosAction`;
    ``reload_after`` holds the request indices after which a hot index
    reload is triggered; ``failed_reload_after`` (at most one) marks
    where a reload whose loader dies mid-load is attempted.
    """

    def __init__(
        self,
        seed: int,
        requests: int,
        fault_rate: float = 0.35,
        reloads: int = 2,
    ) -> None:
        if requests < 1:
            raise ValueError(f"requests must be positive, got {requests}")
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be within [0, 1], got {fault_rate}")
        self.seed = seed
        self.requests = requests
        rng = random.Random(f"chaos:{seed}")
        kinds = NET_FAULT_KINDS + POOL_FAULT_KINDS
        self.actions: dict[int, ChaosAction] = {}
        for i in range(requests):
            if rng.random() < fault_rate:
                self.actions[i] = ChaosAction(
                    kind=rng.choice(kinds),
                    shard_id=rng.randrange(CHAOS_SHARDS),
                    seconds=0.02 + rng.random() * 0.05,
                )
        eligible = list(range(requests - 1))
        rng.shuffle(eligible)
        n_reloads = min(reloads, len(eligible))
        self.reload_after = frozenset(eligible[:n_reloads])
        self.failed_reload_after: int | None = None
        if len(eligible) > n_reloads:
            self.failed_reload_after = eligible[n_reloads]

    def action_for(self, request_index: int) -> ChaosAction | None:
        return self.actions.get(request_index)

    def to_payload(self) -> dict:
        """JSON-ready description (recorded at the head of the event log)."""
        return {
            "seed": self.seed,
            "requests": self.requests,
            "actions": {
                str(i): {"kind": a.kind, "shard": a.shard_id, "seconds": a.seconds}
                for i, a in sorted(self.actions.items())
            },
            "reload_after": sorted(self.reload_after),
            "failed_reload_after": self.failed_reload_after,
        }


# ----------------------------------------------------------------------
# Fault-injecting connections
# ----------------------------------------------------------------------
class _ChaosConnection(_Connection):
    """A real client connection whose next request frame can misbehave."""

    def __init__(
        self, host: str, port: int, timeout: float | None, factory: "ChaosConnectionFactory"
    ) -> None:
        self._factory = factory
        super().__init__(host, port, timeout)

    def send(self, frame: dict) -> None:
        from . import protocol

        if frame.get("type") != "request":
            super().send(frame)  # the hello handshake is never faulted
            return
        action = self._factory.take()
        if action is None:
            super().send(frame)
            return
        payload = protocol.encode_frame(frame)
        if action.kind == "slow":
            self._factory.log.record("net.slow", seconds=action.seconds)
            time.sleep(action.seconds)
            self.sock.sendall(payload)
        elif action.kind == "sever":
            # The classic torn write: length prefix out, payload lost.
            # The server reads a broken stream; the client's next recv
            # hits a dead socket and its retry machinery redials.
            self._factory.log.record("net.sever", sent=protocol.HEADER.size)
            self.sock.sendall(payload[: protocol.HEADER.size])
            self.close()
        elif action.kind == "corrupt":
            # Flip the opening brace: the frame arrives complete but is
            # garbage, the server answers a protocol error and closes,
            # and the client retries on a fresh connection.
            self._factory.log.record("net.corrupt", length=len(payload))
            body = bytearray(payload)
            body[protocol.HEADER.size] ^= 0xFF
            self.sock.sendall(bytes(body))
            self.close()
        else:  # pragma: no cover - ChaosAction validates kinds
            raise ValueError(f"unknown net fault {action.kind!r}")


class ChaosConnectionFactory:
    """``connection_factory`` for :class:`SearchClient` with an armable fault.

    The driver arms at most one :class:`ChaosAction` before issuing a
    request; the *next* request frame sent on any connection consumes
    it.  Retries therefore run clean — one scheduled fault perturbs
    exactly one transmission, which keeps the injection count equal to
    the schedule and the run reproducible.
    """

    def __init__(self, log: ChaosEventLog) -> None:
        self.log = log
        self._armed: ChaosAction | None = None
        self._lock = threading.Lock()
        self.injected = 0

    def arm(self, action: ChaosAction) -> None:
        with self._lock:
            self._armed = action

    def take(self) -> ChaosAction | None:
        with self._lock:
            action, self._armed = self._armed, None
            if action is not None:
                self.injected += 1
            return action

    def __call__(self, host: str, port: int, timeout: float | None) -> _ChaosConnection:
        return _ChaosConnection(host, port, timeout, factory=self)


# ----------------------------------------------------------------------
# Workload and references
# ----------------------------------------------------------------------
def build_workload(
    seed: int = 0,
    n_records: int = 12,
    record_bp: int = 160,
    shards: int = CHAOS_SHARDS,
    n_queries: int = 6,
) -> tuple[list[str], DatabaseIndex, Callable[[], DatabaseIndex]]:
    """A deterministic database + query set + rebuildable loader.

    The loader rebuilds an index with *identical content* (same
    records, same sharding — so the same content hash) from scratch;
    reloading it swaps in a new generation whose answers are
    bit-identical, which is exactly what the reload invariants need.
    """
    queries = [random_dna(48 + 4 * q, seed=7_000 + seed * 100 + q) for q in range(n_queries)]
    records = []
    for i in range(n_records):
        sequence = random_dna(record_bp, seed=8_000 + seed * 100 + i)
        planted = mutate(queries[i % n_queries], rate=0.05, seed=9_000 + i)
        cut = record_bp // 3
        records.append(
            (f"rec{i}", sequence[:cut] + planted + sequence[cut + len(planted):])
        )

    def loader() -> DatabaseIndex:
        return DatabaseIndex.build(records, shards=shards, source="chaos-workload")

    return queries, loader(), loader


def _baseline(
    queries: list[str], loader: Callable[[], DatabaseIndex]
) -> dict[str, SearchResponse]:
    """Fault-free answers of a plain inline engine, by query."""
    engine = SearchEngine(loader(), cache=ResultCache(0))
    return {query: engine.search(query, OPTIONS) for query in queries}


def _reference_cluster(
    index: DatabaseIndex, nodes: int, baseline: dict[str, SearchResponse]
) -> tuple[list[int], Callable[[str, set[int]], SearchResponse]]:
    """The non-empty node ids, and what a cluster must answer with ``down`` dead.

    With nothing down the answer is the single-node ``baseline``.
    Otherwise the ranking is a merge over inline engines of the
    reachable nodes (the same deterministic partition the cluster
    serves), while coverage and ``degraded_shards`` are computed from
    the topology's record counts — never from the merge under test.
    """
    from .cluster import NodeAnswer, merge_node_responses
    from .cluster.topology import partition_index

    topology, parts = partition_index(index, nodes)
    engines = {
        spec.node_id: SearchEngine(part, cache=ResultCache(0))
        for spec, part in zip(topology.nodes, parts)
        if not spec.empty
    }

    def expected(query: str, down: set[int]) -> SearchResponse:
        if not down:
            return baseline[query]
        live = [
            NodeAnswer(node_id=nid, response=engine.search(query, OPTIONS))
            for nid, engine in engines.items()
            if nid not in down
        ]
        lost = sorted(down & engines.keys())
        total = topology.total_records
        covered = total - sum(topology.node(nid).records for nid in lost)
        return dataclasses.replace(
            merge_node_responses(query.upper(), live, topology, OPTIONS),
            coverage=covered / total,
            degraded_shards=tuple(lost),
        )

    return sorted(engines), expected


# ----------------------------------------------------------------------
# Single-node chaos
# ----------------------------------------------------------------------
def run_chaos(
    seed: int = 0,
    requests: int = 24,
    fault_rate: float = 0.35,
    reloads: int = 2,
) -> ChaosReport:
    """Drive one seeded chaos schedule against a real TCP server.

    The driver is single-threaded and issues requests strictly in
    order, so the mapping from schedule entry to injected fault is
    exact.  Worker faults are armed by assigning the supervised pool's
    ``fault_plan`` for just the one request (the driver blocks on the
    response, so the assignment cannot leak onto a neighbour's sweep);
    network faults are armed on the connection factory the same way.
    """
    report = ChaosReport("chaos", seed, ChaosEventLog())
    log = report.log
    schedule = ChaosSchedule(seed, requests, fault_rate=fault_rate, reloads=reloads)
    log.record("schedule", **schedule.to_payload())
    queries, index, loader = build_workload(seed=seed)
    baseline = _baseline(queries, loader)

    pool = SupervisedWorkerPool(
        workers=2,
        policy=RetryPolicy(retries=2, base_delay=0.01, max_delay=0.05, seed=seed),
        task_timeout=0.5,
        quarantine_after=10_000,  # chaos faults are one-shot; never quarantine
    )
    manager = IndexManager(index=index, loader=loader)
    engine = SearchEngine(manager, pool=pool, cache=ResultCache(0))
    factory = ChaosConnectionFactory(log)
    reloads_done = 0

    with ServerThread(engine, config=ServerConfig(batch_window=0.0)) as handle:
        client = SearchClient(
            handle.host,
            handle.port,
            retry=RetryPolicy(retries=3, base_delay=0.01, max_delay=0.05, seed=seed),
            timeout=15.0,
            connection_factory=factory,
        )
        try:
            for i in range(requests):
                query = queries[i % len(queries)]
                action = schedule.action_for(i)
                if action is not None:
                    log.record(
                        "inject",
                        request=i,
                        fault=action.kind,
                        shard=action.shard_id,
                    )
                    if action.kind in NET_FAULT_KINDS:
                        factory.arm(action)
                    else:
                        hang = 10.0 if action.kind == "hang" else 30.0
                        pool.fault_plan = FaultPlan(
                            [Fault(action.kind, action.shard_id, times=1, seconds=hang)]
                        )
                try:
                    _ask(report, f"request {i}", client, query, baseline[query], request=i)
                finally:
                    pool.fault_plan = None
                if i == schedule.failed_reload_after:
                    # A reload whose loader dies mid-load: the error
                    # surfaces to the caller, the old generation keeps
                    # serving, nothing else changes.
                    def torn_loader() -> DatabaseIndex:
                        raise RuntimeError("chaos: loader torn mid-reload")

                    manager.loader = torn_loader
                    try:
                        client.reload()
                        log.record("reload-failed-silently", request=i)
                    except ServiceError as exc:
                        log.record("reload-refused", request=i, error=str(exc))
                    finally:
                        manager.loader = loader
                if i in schedule.reload_after:
                    generation = client.reload()
                    reloads_done += 1
                    log.record("reload", request=i, generation=generation)
            health = dict(client.health())
        finally:
            client.close()
        served = handle.server.served
    inflight = handle.server._inflight
    log.record(
        "drained",
        served=served,
        inflight=inflight,
        generation=manager.generation,
        health=health,
    )
    pool_faults = sum(a.kind in POOL_FAULT_KINDS for a in schedule.actions.values())
    report.facts.update(
        requests=requests,
        faults=len(schedule.actions),
        net_faults=factory.injected,
        reloads=reloads_done,
        served=served,
        generation=manager.generation,
        inflight=inflight,
        pool_retries=pool.retries_total,
        fallback_sweeps=engine.fallback_sweeps,
    )
    fallback, retries = engine.fallback_sweeps, pool.retries_total
    return _judge(report, {
        **_drain_promises(served, requests, inflight, manager.generation, reloads_done),
        f"{fallback} sweeps healed by the in-process fallback": fallback == 0,
        f"{retries} pool retries for {pool_faults} worker faults": retries >= pool_faults,
    })


def run_reload_storm(
    seed: int = 0,
    threads: int = 4,
    requests_per_thread: int = 6,
    reloads: int = 3,
) -> ChaosReport:
    """Hot-reload under genuinely concurrent load.

    ``threads`` clients hammer the server while the main thread swaps
    index generations between their requests.  Thread interleaving is
    not deterministic — the *invariants* are: every request answers,
    every answer matches its query's baseline (old and new generations
    have identical content), and the final generation is
    ``1 + reloads``.
    """
    report = ChaosReport("reload-storm", seed, ChaosEventLog())
    queries, index, loader = build_workload(seed=seed)
    baseline = _baseline(queries, loader)
    manager = IndexManager(index=index, loader=loader)
    engine = SearchEngine(manager, cache=ResultCache(128))
    entries_by_thread: dict[int, list[tuple[str, object, object]]] = {}

    with ServerThread(engine) as handle:

        def hammer(worker: int) -> None:
            entries = []
            with SearchClient(handle.host, handle.port, timeout=15.0) as client:
                for r in range(requests_per_thread):
                    query = queries[(worker + r) % len(queries)]
                    try:
                        outcome = client.search(query, OPTIONS)
                    except Exception as exc:  # noqa: BLE001 - judged later
                        outcome = exc
                    entries.append((f"thread {worker} request {r}", outcome, baseline[query]))
            entries_by_thread[worker] = entries

        workers = [
            threading.Thread(target=hammer, args=(w,), daemon=True)
            for w in range(threads)
        ]
        for thread in workers:
            thread.start()
        with SearchClient(handle.host, handle.port, timeout=15.0) as admin:
            for _ in range(reloads):
                time.sleep(0.02)
                report.log.record("reload", generation=admin.reload())
            for thread in workers:
                thread.join(timeout=60)
        served = handle.server.served
    for worker in range(threads):
        report.entries.extend(entries_by_thread.get(worker, []))
    inflight = handle.server._inflight
    report.facts.update(
        requests=len(report.entries),
        reloads=reloads,
        served=served,
        generation=manager.generation,
        inflight=inflight,
    )
    issued = threads * requests_per_thread
    return _judge(
        report,
        _drain_promises(served, issued, inflight, manager.generation, reloads),
    )


# ----------------------------------------------------------------------
# Cluster chaos: node kills and netsplits against a live topology
# ----------------------------------------------------------------------
class ClusterChaosSchedule:
    """A seeded plan of node kills and netsplits over a request stream.

    ``kill_at`` maps request index → node id: that node's primary is
    stopped *before* the request is issued and stays dead for the rest
    of the run (thread-mode kills are permanent — a dead FPGA does not
    restart itself).  ``split_at`` maps request index → node id: the
    network to that node is severed for exactly that one request and
    healed afterwards.  The constructor guarantees at least one node
    survives every request, so every query must still be answered —
    degraded, never lost.
    """

    def __init__(self, seed: int, requests: int, nodes: int = 3) -> None:
        if requests < 2:
            raise ValueError(f"requests must be at least 2, got {requests}")
        if nodes < 2:
            raise ValueError(f"cluster chaos needs at least 2 nodes, got {nodes}")
        self.seed = seed
        self.requests = requests
        self.nodes = nodes
        rng = random.Random(f"cluster-chaos:{seed}")
        kills = min(CLUSTER_KILLS, nodes - 2) if nodes > 2 else 0
        kill_nodes = rng.sample(range(nodes), kills)
        kill_indices = rng.sample(range(1, requests), kills) if kills else []
        self.kill_at: dict[int, int] = dict(zip(kill_indices, kill_nodes))
        self.split_at: dict[int, int] = {}
        eligible = [i for i in range(requests) if i not in self.kill_at]
        rng.shuffle(eligible)
        for i in eligible[: min(CLUSTER_SPLITS, len(eligible))]:
            candidates = [n for n in range(nodes) if n not in self.down_at(i)]
            if len(candidates) < 2:
                continue  # splitting would leave nobody standing
            self.split_at[i] = rng.choice(candidates)
        for i in range(requests):  # the schedule's own invariant
            assert len(self.down_at(i)) < nodes, "schedule would kill the cluster"

    def down_at(self, request_index: int) -> set[int]:
        """Node ids unreachable while ``request_index`` is in flight."""
        down = {
            node for idx, node in self.kill_at.items() if idx <= request_index
        }
        if request_index in self.split_at:
            down.add(self.split_at[request_index])
        return down

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "nodes": self.nodes,
            "kill_at": {str(i): n for i, n in sorted(self.kill_at.items())},
            "split_at": {str(i): n for i, n in sorted(self.split_at.items())},
        }


class _SplitClient(SearchClient):
    """A node client whose network can be severed by the controller."""

    def __init__(
        self, address: str, controller: "NetsplitController", **kwargs: object
    ) -> None:
        self._split_address = address
        self._controller = controller
        super().__init__(address, **kwargs)

    def search(self, query, options=None, *, trace_id=None, parent_span=None):
        self._controller.check(self._split_address)
        return super().search(
            query, options, trace_id=trace_id, parent_span=parent_span
        )

    def search_pipelined(self, queries, options=None, trace_id=None, parent_span=None):
        self._controller.check(self._split_address)
        return super().search_pipelined(
            queries, options, trace_id=trace_id, parent_span=parent_span
        )

    def ping(self) -> bool:
        if self._controller.is_down(self._split_address):
            return False
        return super().ping()


class NetsplitController:
    """Armable network partitions, by node address.

    Passed to the coordinator as its ``client_factory``: every node
    client it builds consults the controller before touching the
    socket, and a severed address raises :class:`ConnectionError` —
    indistinguishable, at the coordinator's level, from a real
    partition, and healed the instant :meth:`heal` is called.
    """

    def __init__(self, log: ChaosEventLog) -> None:
        self.log = log
        self._down: set[str] = set()
        self._lock = threading.Lock()
        self.severed = 0

    def sever(self, address: str) -> None:
        with self._lock:
            self._down.add(address)
            self.severed += 1

    def heal(self, address: str) -> None:
        with self._lock:
            self._down.discard(address)

    def is_down(self, address: str) -> bool:
        with self._lock:
            return address in self._down

    def check(self, address: str) -> None:
        if self.is_down(address):
            self.log.record("net.split-drop", address=address)
            raise ConnectionError(f"netsplit: {address} unreachable")

    def client_factory(self, address: str, **kwargs: object) -> _SplitClient:
        return _SplitClient(address, self, **kwargs)


def _failover_trace_probe(seed: int, log: ChaosEventLog) -> dict[str, bool]:
    """Kill a replicated primary; pin the failover to its trace span.

    A compact, fully observable incident: a 2-node cluster with one
    replica per node, the victim's primary killed, one *traced* query.
    The replica must answer at full coverage, the stitched trace must
    exist, and the ``failover`` event must land on the victim's
    ``node.search`` span — and only there.  Returns those promises.
    """
    from ..obs import Observability
    from .cluster import LocalCluster

    queries, index, _loader = build_workload(seed=seed)
    victim = 0
    with LocalCluster(
        index,
        nodes=2,
        replicas=1,
        mode="thread",
        batch_window=0.0,
        obs=Observability.create(),
    ) as cluster:
        with cluster.client(breaker_factory=None, gather_timeout=15.0) as client:
            cluster.kill_node(victim)
            log.record("trace-probe.kill", node=victim)
            response = client.search(queries[0], OPTIONS)
            trace_id = client.last_trace_id
            tree = client.trace_tree(trace_id) if trace_id else None
    events: dict[int, list[str]] = {}
    stitched = False
    for span in tree.walk() if tree is not None else ():
        if span.name == "node.search":
            events[span.attrs.get("node")] = [e.name for e in span.events]
            stitched = stitched or bool(span.attrs.get("stitched"))
    log.record(
        "trace-probe.result",
        victim=victim,
        trace_id=trace_id,
        stitched=stitched,
        coverage=response.coverage,
        events_by_node={str(node): names for node, names in events.items()},
    )
    return {
        "failover probe produced no trace id": bool(trace_id),
        "failover probe trace was not stitched": stitched,
        f"no failover event on victim node {victim}'s span (events: {events})":
            "failover" in events.get(victim, ()),
        f"failover event attributed to a node other than {victim} (events: {events})":
            not any("failover" in names for node, names in events.items() if node != victim),
        f"replica did not preserve coverage ({response.coverage})": response.coverage == 1.0,
    }


def run_cluster_chaos(seed: int = 0, requests: int = 18, nodes: int = 3) -> ChaosReport:
    """Drive a seeded kill/netsplit schedule against a live cluster.

    Every request goes through a real :class:`ClusterCoordinator` over
    real TCP shard nodes (:class:`LocalCluster` in thread mode) and is
    judged against :func:`_reference_cluster`'s answer for the nodes
    the schedule left reachable.

    Breakers are disabled for the run: the expected degraded set must
    be a pure function of the schedule, and a breaker that stays open
    for its recovery window after a heal would degrade a *reachable*
    node — correct behaviour in production, noise in a determinism
    harness.  The breaker's own state machine is tested in
    ``test_guard.py``.
    """
    from .cluster import LocalCluster

    report = ChaosReport("cluster chaos", seed, ChaosEventLog())
    log = report.log
    schedule = ClusterChaosSchedule(seed, requests, nodes=nodes)
    log.record("cluster-schedule", **schedule.to_payload())
    queries, index, loader = build_workload(seed=seed)
    _live, expected = _reference_cluster(index, nodes, _baseline(queries, loader))
    controller = NetsplitController(log)
    killed: list[int] = []

    with LocalCluster(index, nodes=nodes, mode="thread", batch_window=0.0) as cluster:
        address_of = {
            node.node_id: node.address for node in cluster.topology().active_nodes
        }
        with cluster.client(
            client_factory=controller.client_factory,
            breaker_factory=None,
            gather_timeout=15.0,
        ) as client:
            for i in range(requests):
                if i in schedule.kill_at:
                    node = schedule.kill_at[i]
                    cluster.kill_node(node)
                    killed.append(node)
                    log.record("node.kill", request=i, node=node)
                split = schedule.split_at.get(i)
                if split is not None:
                    controller.sever(address_of[split])
                    log.record("net.split", request=i, node=split)
                query = queries[i % len(queries)]
                try:
                    want = expected(query, schedule.down_at(i))
                    _ask(report, f"request {i}", client, query, want, request=i)
                finally:
                    if split is not None:
                        controller.heal(address_of[split])
                        log.record("net.heal", request=i, node=split)
            nodes_up = client.health().get("nodes_up")
    log.record("cluster-drained", killed=sorted(killed), severed=controller.severed)
    # The main loop runs without replicas (the expected answers are a
    # pure function of the schedule); the failover-attribution promise
    # needs a replica, so it gets its own compact probe.
    promises = _failover_trace_probe(seed, log)
    report.facts.update(
        requests=requests,
        nodes=nodes,
        kills=len(killed),
        splits=controller.severed,
        nodes_up=nodes_up,
    )
    return _judge(report, promises)


# ----------------------------------------------------------------------
# Self-heal chaos: kill → eject → respawn → readmit
# ----------------------------------------------------------------------
def run_selfheal_chaos(seed: int = 0, nodes: int = 3, mode: str = "thread") -> ChaosReport:
    """Kill a seeded node; prove the tier heals itself within budget.

    Three phases of requests: ``steady`` (all nodes up), ``down`` (the
    victim killed and ejected) and ``healed`` (respawned, reattached,
    readmitted), each judged against the answers for the nodes it
    leaves reachable.  The heartbeat loop is driven *synchronously*
    (``monitor.tick()`` between phases) rather than on its background
    thread, so "within N heartbeats" is a deterministic count, not a
    race; the supervisor likewise heals via one explicit
    ``check_once()`` sweep.  The production wiring — the same objects
    on their daemon threads — is exercised by the integration tests;
    this harness proves the *logic* heals, with the clock taken out of
    the verdict.
    """
    from ..obs import SloTracker
    from .cluster import LocalCluster
    from .cluster.healthd import HealthMonitor
    from .cluster.supervisor import ClusterSupervisor

    report = ChaosReport("selfheal", seed, ChaosEventLog())
    log = report.log
    budget = SELFHEAL_HEARTBEAT_BUDGET
    queries, index, loader = build_workload(seed=seed)
    live, expected = _reference_cluster(index, nodes, _baseline(queries, loader))
    victim = random.Random(f"selfheal:{seed}").choice(live)
    slo_timeline: dict[str, tuple[str, ...]] = {}

    # Burn-rate tracking over a fake clock: one tick per request, with
    # a window-sized jump between phases so the down-phase's bad
    # samples age out before the healed phase is judged — hours of
    # sliding window compressed into deterministic ticks.
    slo_clock = [0.0]
    slo_window = float(2 * SELFHEAL_REQUESTS_PER_PHASE)

    with LocalCluster(index, nodes=nodes, mode=mode, batch_window=0.0) as cluster:
        with cluster.client(gather_timeout=15.0, breaker_factory=None) as client:
            coordinator = client.coordinator
            coordinator.slo = SloTracker(
                fast_window=slo_window,
                slow_window=slo_window,
                clock=lambda: slo_clock[0],
                registry=coordinator.obs.registry,
                log=coordinator.obs.log,
            )
            monitor = HealthMonitor(
                coordinator.channels,
                eject_after=SELFHEAL_EJECT_AFTER,
                readmit_after=SELFHEAL_READMIT_AFTER,
                jitter=0.0,
                seed=seed,
                obs=coordinator.obs,
            )
            coordinator.monitor = monitor  # attached, tick-driven, no thread
            supervisor = ClusterSupervisor(
                cluster, coordinators=[coordinator], obs=coordinator.obs
            )
            log.record(
                "selfheal-schedule",
                seed=seed,
                mode=mode,
                victim=victim,
                eject_after=SELFHEAL_EJECT_AFTER,
                readmit_after=SELFHEAL_READMIT_AFTER,
                budget=budget,
            )

            def run_phase(phase: str, down: set[int]) -> None:
                for r in range(SELFHEAL_REQUESTS_PER_PHASE):
                    query = queries[len(report.entries) % len(queries)]
                    slo_clock[0] += 1.0
                    want = expected(query, down)
                    _ask(report, f"{phase} request {r}", client, query, want,
                         phase=phase, request=r)
                firing = tuple(
                    status.objective.name
                    for status in coordinator.slo.evaluate()
                    if status.firing
                )
                slo_timeline[phase] = firing
                log.record("slo", phase=phase, firing=list(firing))

            monitor.tick()  # everyone starts as a confirmed member
            run_phase("steady", set())

            cluster.kill_node(victim)
            log.record("node.kill", node=victim)
            ticks_to_eject = 0
            while monitor.is_up(victim) and ticks_to_eject < budget:
                monitor.tick()
                ticks_to_eject += 1
            log.record("node.ejected", node=victim, ticks=ticks_to_eject)
            run_phase("down", {victim})

            respawned = supervisor.check_once()
            log.record("supervisor.sweep", respawned=respawned)
            ticks_to_recover = ticks_to_eject
            while not monitor.is_up(victim) and ticks_to_recover < budget + 1:
                monitor.tick()
                ticks_to_recover += 1
            log.record("node.readmitted", node=victim, ticks=ticks_to_recover)
            # Let the outage's bad samples age out of the window before
            # judging the healed phase — the "clears after heal" half.
            slo_clock[0] += slo_window
            run_phase("healed", set())

    log.record(
        "selfheal-drained",
        victim=victim,
        ticks_to_eject=ticks_to_eject,
        ticks_to_recover=ticks_to_recover,
    )
    limiter = limiter_convergence_trace()
    report.facts.update(
        mode=mode,
        victim=victim,
        ejected_after=ticks_to_eject,
        recovered_after=ticks_to_recover,
        budget=budget,
        respawned=respawned,
        limiter_settle=limiter["settle"],
    )
    return _judge(report, {
        f"recovery took {ticks_to_recover} heartbeats (budget {budget})":
            ticks_to_recover <= budget,
        f"supervisor never respawned node {victim}": victim in respawned,
        f"SLO firing in steady state: {slo_timeline['steady']}":
            not slo_timeline["steady"],
        f"coverage SLO did not fire during the outage (firing: {slo_timeline['down']})":
            "coverage" in slo_timeline["down"],
        f"SLO still firing after heal: {slo_timeline['healed']}":
            not slo_timeline["healed"],
        f"limiter did not converge (settle {limiter['settle']})": limiter["converged"],
    })


def limiter_convergence_trace(capacity: int = 4, initial: int = 64) -> dict:
    """Drive the AIMD limiter through a slow-node schedule; judge convergence.

    A deterministic discrete-time model of a node that can finish
    ``capacity`` requests per round on time: each round the server
    admits ``limit`` requests, the first ``capacity`` complete on time
    (additive increase), the rest miss their deadline (multiplicative
    decrease, one cut per round thanks to the cooldown).  The limiter
    must *converge*: once past the transient, the limit stays in a
    band around capacity and cuts become one-per-excursion instead of
    a collapse to the floor.  Returned trace: per-round limits, cut
    count, and a ``converged`` verdict over the final
    :data:`LIMITER_SETTLE_ROUNDS`.
    """
    from .guard import AdaptiveLimiter

    fake_now = [0.0]
    limiter = AdaptiveLimiter(
        initial=initial,
        min_limit=1,
        max_limit=initial,
        cooldown=0.5,
        clock=lambda: fake_now[0],
    )
    trace: list[int] = []
    for _ in range(LIMITER_ROUNDS):
        fake_now[0] += 1.0  # each round is past the cooldown: cuts allowed
        admitted = limiter.limit
        on_time = min(admitted, capacity)
        for _ in range(on_time):
            limiter.on_success()
        for _ in range(admitted - on_time):
            limiter.on_overload()
        trace.append(limiter.limit)
    settle = trace[-LIMITER_SETTLE_ROUNDS:]
    # Converged: the limit hugs capacity — never at the static ceiling,
    # never collapsed to the floor, and within a 4x band of capacity.
    converged = all(1 <= limit <= max(4 * capacity, 4) for limit in settle)
    return {
        "capacity": capacity,
        "initial": initial,
        "trace": trace,
        "cuts": limiter.cuts,
        "settle": settle,
        "converged": converged,
    }


# ----------------------------------------------------------------------
# Ingest disk-fault chaos
# ----------------------------------------------------------------------
def _ingest_workload(
    seed: int, n_new: int
) -> tuple[list[str], list[tuple[str, str]], Callable[[], DatabaseIndex]]:
    """Queries, the records to stream in, and the immutable base loader.

    Every streamed record carries a planted mutation of one query, so a
    record that recovery silently dropped would *change a ranking* —
    the bit-identity check doubles as a served-records check.
    """
    queries, _index, loader = build_workload(
        seed=seed, n_records=8, record_bp=120, shards=2, n_queries=4
    )
    new_records = []
    for i in range(n_new):
        sequence = random_dna(140, seed=20_000 + seed * 100 + i)
        planted = mutate(queries[i % len(queries)], rate=0.04, seed=21_000 + i)
        new_records.append((f"live{i}", sequence[:40] + planted + sequence[40:]))
    return queries, new_records, loader


def _ingest_signatures(
    manager: IndexManager, queries: list[str]
) -> list[tuple]:
    engine = SearchEngine(manager)
    options = QueryOptions(top=10)
    return [response_signature(engine.search(q, options)) for q in queries]


def _ingest_drive(
    loader: Callable[[], DatabaseIndex],
    directory: str,
    fs: FaultFS,
    records: list[tuple[str, str]],
    seal_every: int,
) -> tuple[IngestService | None, IndexManager, list[str], bool]:
    """Stream ``records`` into a fresh service on ``fs``, then force-seal.

    Returns the service (``None`` when it crashed while opening), its
    index manager, the names acknowledged before any fault, and
    whether a crash point fired.  A read-only trip ends the stream.
    """
    manager = IndexManager(index=loader(), loader=loader)
    service = None
    acked: list[str] = []
    crashed = False
    try:
        service = IngestService(manager, directory, seal_every=seal_every, fs=fs)
        for name, sequence in records:
            service.ingest(name, sequence)
            acked.append(name)
        service.seal()
    except CrashPoint:
        crashed = True
    except IngestReadOnly:
        pass
    return service, manager, acked, crashed


def run_ingest_chaos(
    seed: int = 0,
    n_new: int = 7,
    seal_every: int = 3,
    tcp: bool = True,
) -> ChaosReport:
    """Run the WAL ingest lifecycle through a table of disk faults.

    A fault-free probe run first enumerates every labeled
    :class:`FaultFS` barrier the lifecycle crosses and records the
    reference rankings.  Each row of the table then streams the
    records into a fresh directory under one :class:`DiskFaultPlan`
    and records what happened: whether a crash point fired, whether
    ingest went read-only, and the recovery judge's problems.  The
    rows: a crash at every probed barrier, a torn and a short journal
    append, a lying fsync on the journal and on a delta publish, and
    ENOSPC/EIO.  The judged promises:

    * crashes, torn writes and lying fsyncs crash; short writes,
      ENOSPC and EIO leave the service read-only, refusing ingest
      while searches keep answering;
    * recovery over the surviving directory never raises, serves every
      acked record (except after a lying journal fsync, where the disk
      forfeited durability) and nothing never submitted;
    * after re-ingesting whatever the fault interrupted, rankings are
      **bit-identical** to the fault-free reference;
    * a lying fsync on a delta publish quarantines the delta (visible
      degraded shards) instead of serving garbage.

    With ``tcp=True`` a full disk is also driven through a real
    :class:`~repro.service.net.TcpSearchServer`: the ``ingest`` verb
    answers ``read-only`` error frames while ``search`` keeps serving.
    """
    report = ChaosReport("ingest chaos", seed, ChaosEventLog())
    log = report.log
    queries, new_records, loader = _ingest_workload(seed, n_new)
    submitted = {name for name, _ in new_records}
    base_names = set(_served(loader()))

    probe_fs = FaultFS()
    with tempfile.TemporaryDirectory(prefix="repro-ingest-ref-") as ref_dir:
        _service, manager, _acked, _crashed = _ingest_drive(
            loader, ref_dir, probe_fs, new_records, seal_every
        )
        reference = _ingest_signatures(manager, queries)
    labels = list(dict.fromkeys(probe_fs.labels_seen))
    log.record("probe", labels=len(labels), reference_queries=len(queries))

    def judge_recovery(
        directory: str, acked: list[str], recovery: str
    ) -> tuple[list[str], int]:
        """Restart over ``directory``; the broken promises and new records served.

        ``recovery`` is ``"converge"`` (acked ⊆ served, then rankings
        bit-identical to the reference after re-ingest), ``"lossy"``
        (the same without acked ⊆ served) or ``"quarantine"`` (the
        delta is quarantined as degraded shards, never served as
        garbage).
        """
        manager = IndexManager(index=loader(), loader=loader)
        try:
            revived = IngestService(manager, directory, seal_every=seal_every, fs=FaultFS())
        except Exception as exc:  # noqa: BLE001 - recovery must never fail
            return [f"recovery raised {exc!r}"], 0
        problems = []
        served = set(revived.served_names())
        served_new = served - base_names
        index = manager.current()[0]
        lost = set(acked) - served
        if recovery == "quarantine":
            # The quarantined placeholder keeps the lost delta's record
            # slots, so the gap between total records and served ones
            # is exactly the quarantined capacity.
            if not index.degraded:
                problems.append("quarantine not surfaced as degraded shards")
            if len(lost) > index.record_count - len(base_names) - len(served_new):
                problems.append("acked records lost beyond the quarantined delta")
        else:
            if index.degraded:
                problems.append(f"degraded shards after plain crash: {index.degraded}")
            # A lying journal fsync forfeits acked ⊆ served: the disk
            # claimed durability it did not deliver ("lossy").
            if lost and recovery != "lossy":
                problems.append(f"acked records lost: {sorted(lost)}")
        if served_new - submitted:
            problems.append(f"served never-submitted: {sorted(served_new - submitted)}")
        # Converge: re-ingest whatever the fault interrupted, in the
        # original order.
        for name, sequence in new_records:
            if name not in served:
                revived.ingest(name, sequence)
        revived.seal()
        if recovery == "quarantine":
            # Placeholders keep their degraded slots, so bit-identity is
            # out of scope; every submitted record must be servable.
            missing = submitted - set(revived.served_names())
            if missing:
                problems.append(f"records missing after re-ingest: {sorted(missing)}")
        elif _ingest_signatures(manager, queries) != reference:
            problems.append("post-recovery rankings differ from fault-free reference")
        return problems, len(served_new)

    # One row per fault: (kind, barrier label, plan, recovery judge
    # mode).  Read-only rows (mode None) are not restarted.
    plans = DiskFaultPlan
    rows = [("crash", label, plans.crash_at(label), "converge") for label in labels]
    rows += [
        ("torn", "journal.append", plans.torn_at("journal.append", after=2), "converge"),
        ("short", "journal.append", plans.short_at("journal.append", after=2), "converge"),
        ("fsync-drop", "journal.sync",
         plans.fsync_drop_at("journal.sync").merged(plans.crash_at("seal.rename")), "lossy"),
        ("fsync-drop", "delta.sync",
         plans.fsync_drop_at("delta.sync").merged(plans.crash_at("segment.retire")),
         "quarantine"),
        ("enospc", "journal.append", plans.enospc_at("journal.append", after=1, times=None), None),
        ("eio", "journal.sync", plans.eio_at("journal.sync", after=1, times=None), None),
    ]
    for kind, label, plan, recovery in rows:
        with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as directory:
            service, manager, acked, crashed = _ingest_drive(
                loader, directory, FaultFS(plan), new_records, seal_every
            )
            read_only = service is not None and service.read_only
            problems: list[str] = []
            served_new = 0
            if read_only:
                try:
                    service.ingest("after-fault", "ACGT")
                    problems.append("ingest accepted while read-only")
                except IngestReadOnly:
                    pass
                try:
                    _ingest_signatures(manager, queries)
                except Exception as exc:  # noqa: BLE001 - serving must survive
                    problems.append(f"search failed while read-only: {exc!r}")
            if recovery is not None:
                more, served_new = judge_recovery(directory, acked, recovery)
                problems += more
        outcome = {
            "crashed": crashed,
            "read_only": read_only,
            "acked": len(acked),
            "served_new": served_new,
            "problems": problems,
        }
        log.record("ingest-run", fault=kind, label=label, **outcome)
        expected = {
            "crashed": kind not in READ_ONLY_FAULTS,
            "read_only": kind in READ_ONLY_FAULTS,
            "problems": [],
        }
        report.entries.append((f"{kind}@{label}", outcome, expected))

    # -- the TCP leg: a full disk degrades the server, never kills it ---
    if tcp:
        problems = []
        read_only = False
        with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as directory:
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, directory, seal_every=seal_every,
                fs=FaultFS(
                    DiskFaultPlan.enospc_at("journal.append", after=2, times=None)
                ),
            )
            engine = SearchEngine(manager)
            engine.attach_ingest(service)
            handle = ServerThread(engine).start()
            try:
                with SearchClient(handle.host, handle.port) as client:
                    for name, sequence in new_records[:2]:
                        client.ingest(name, sequence)
                    try:
                        client.ingest(*new_records[2])
                    except ServiceError as exc:
                        read_only = exc.code == "read-only"
                    response = client.search(queries[0], QueryOptions(top=5))
                    if response.coverage != 1.0:
                        problems.append("search degraded while ingest is read-only")
                    ingest_state = client.health().get("ingest")
                    if not (
                        isinstance(ingest_state, dict) and ingest_state.get("read_only")
                    ):
                        problems.append("health does not surface read-only ingest")
                    if not client.ping():
                        problems.append("server unreachable after disk fault")
            except Exception as exc:  # noqa: BLE001 - the server must survive
                problems.append(f"TCP leg failed: {exc!r}")
            finally:
                handle.stop()
        outcome = {"read_only": read_only, "problems": problems}
        log.record("tcp-read-only-run", **outcome)
        report.entries.append(
            ("enospc-tcp@journal.append", outcome, {"read_only": True, "problems": []})
        )

    report.facts.update(crash_points=len(labels), runs=len(report.entries))
    return _judge(report, {})


def _served(index: DatabaseIndex) -> list[str]:
    return [name for shard in index.active_shards for name in shard.names]


def main(argv: Sequence[str] | None = None) -> int:
    """Direct entry point: run one chaos schedule and judge it."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--fault-rate", type=float, default=0.35)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="run the cluster kill/netsplit schedule instead",
    )
    parser.add_argument(
        "--selfheal",
        action="store_true",
        help="run the kill→eject→respawn→readmit self-healing schedule",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="run the WAL ingest disk-fault crash sweep instead",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="node mode for --selfheal (process spawns real `repro serve` children)",
    )
    parser.add_argument("--nodes", type=int, default=3, help="cluster node count")
    parser.add_argument("--log", help="dump the event log to this JSON path")
    args = parser.parse_args(argv)
    if args.ingest:
        report = run_ingest_chaos(seed=args.seed)
    elif args.selfheal:
        report = run_selfheal_chaos(seed=args.seed, nodes=args.nodes, mode=args.mode)
    elif args.cluster:
        report = run_cluster_chaos(
            seed=args.seed, requests=args.requests, nodes=args.nodes
        )
    else:
        report = run_chaos(
            seed=args.seed, requests=args.requests, fault_rate=args.fault_rate
        )
    print(report.summary())
    # The runner already dumped to $REPRO_CHAOS_LOG; --log names one more copy.
    if args.log:
        report.log.dump(args.log)
    target = args.log or os.environ.get(CHAOS_LOG_ENV)
    if target:
        print(f"event log: {target}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
