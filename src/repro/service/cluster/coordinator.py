"""The coordinator: scatter a query over shard nodes, gather, merge.

:class:`ClusterCoordinator` is the cluster's one client — the host
program of the paper's multi-board setup, which sends the query to
every board and reduces the few-byte answers.  It owns a live channel
per non-empty topology node — a
:class:`~repro.service.client.SearchClient` to the node's primary
address, optional replica clients, and the node's
:class:`~repro.service.guard.CircuitBreaker`, its one health verdict —
and turns one logical search into one fan-out over protocol v2:

* **gate** — a node whose breaker is open is refused before the
  scatter, at no cost in budget or threads (its span degrades);
* **scatter** — every other node gets the same request (same
  options, same remaining ``deadline_ms``: the group-min budget is
  computed once at fan-out, so no shard is granted more time than the
  request has left);
* **gather** — bounded by the remaining budget; a node that does not
  answer in time is *dropped from this answer*, not waited on;
* **merge** — :func:`~repro.service.cluster.merge.merge_node_responses`
  (globally consistent ranking, coverage accounting).

Failure semantics follow the taxonomy: a ``bad-request`` answer from
any node is the *query's* fault and is raised as-is (every node would
say the same); transport failures, breaker-open fast-fails and
deadline expiries degrade coverage by exactly the node's span.
Replicas serve as straight failover when the primary's transport is
down, so a node with a live replica keeps serving: its breaker counts
only a leg on which every serving path failed.  A
:class:`~repro.service.cluster.healthd.HealthMonitor`, when started,
feeds the same breakers from heartbeat probes.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Sequence

import dataclasses

from ...obs import (
    NULL_OBS,
    MetricsAggregator,
    Observability,
    SloTracker,
    Span,
    SpanEvent,
    stitch_trace,
    synthesize_trace,
)
from .. import QueryOptions, resolve_query_options
from ..client import SearchClient
from ..engine import SearchResponse
from ..guard import CircuitBreaker, CircuitOpen
from ..resilience import BadRequest, Deadline, DeadlineExceeded, RetryPolicy
from .healthd import HealthMonitor
from .merge import NodeAnswer, merge_node_responses
from .topology import ClusterTopology, NodeSpec

__all__ = ["ClusterCoordinator", "NodeChannel", "default_breaker"]

#: Failures that degrade coverage instead of failing the query: the
#: node (or the path to it) is unhealthy, the query itself is fine.
_DEGRADABLE = (ConnectionError, OSError, EOFError, TimeoutError, DeadlineExceeded)


def default_breaker(node_id: int) -> CircuitBreaker:
    """The per-node breaker: open after 3 failed legs or probes, for 1 s.

    It is not bound to the coordinator's registry: ``breaker_state`` is
    one gauge per registry, so node breakers would overwrite each
    other's state there.  ``cluster_node_up_<id>`` is the per-node view.
    """
    return CircuitBreaker(
        failure_threshold=3, recovery_time=1.0, name=f"node-{node_id}"
    )


class NodeChannel:
    """One node's client stack: primary, replicas, breaker.

    The breaker judges the whole node, not a socket: what the
    coordinator needs to know is "can this *node* answer".  A leg
    answered by the primary or by a replica is a success; only a leg on
    which every serving path failed is a failure, recorded once after
    failover.  :meth:`ping` tries the same paths in the same order.
    The coordinator gates legs on the breaker before scatter; the
    channel only records their outcomes.
    """

    def __init__(
        self,
        spec: NodeSpec,
        client_factory: Callable[..., SearchClient],
        breaker: CircuitBreaker | None,
        retry: RetryPolicy,
        timeout: float | None,
        obs: Observability,
    ) -> None:
        self.spec = spec
        self.breaker = breaker
        self.obs = obs
        self._client_factory = client_factory
        self._client_kwargs = {"retry": retry, "timeout": timeout, "obs": obs}
        self.primary = client_factory(
            spec.address, retry=retry, timeout=timeout, obs=obs
        )
        self.replicas = [
            client_factory(address, retry=retry, timeout=timeout, obs=obs)
            for address in spec.replicas
        ]

    @property
    def paths(self) -> tuple[SearchClient, ...]:
        """The node's serving paths in failover order: primary, replicas."""
        return (self.primary, *self.replicas)

    def reattach(self, address: str) -> None:
        """Point the primary at a fresh address (a respawned node).

        A respawned node almost always binds a new port, so healing
        swaps in a new primary client and closes the old one.  The
        breaker is left alone: the respawned node keeps its probation,
        and the next good probe or half-open trial readmits it.
        """
        old = self.primary
        self.spec = dataclasses.replace(self.spec, address=address)
        self.primary = self._client_factory(address, **self._client_kwargs)
        try:
            old.close()
        except Exception:  # noqa: BLE001 - the old stack is already dead
            pass
        self.obs.log.info(
            "cluster.reattached", node=self.spec.node_id, address=address
        )

    def search(
        self,
        query: str,
        options: QueryOptions,
        trace_id: str | None = None,
        parent_span: str | None = None,
        events: list[tuple[str, dict]] | None = None,
    ) -> SearchResponse:
        """One leg against this node: each serving path in turn.

        A transport-class failure fails over to the next path; the
        leg's one outcome then feeds the breaker.
        ``trace_id``/``parent_span`` are injected on the wire so the
        node's span tree joins the coordinator's trace.  ``events`` (a
        caller-owned list) collects each failover with an ``at`` offset
        relative to leg start, so the coordinator can pin it to the
        correct node span.
        """
        t0 = time.monotonic()
        paths = self.paths
        try:
            for n, client in enumerate(paths, 1):
                try:
                    response = client.search(
                        query, options, trace_id=trace_id, parent_span=parent_span
                    )
                    break
                except _DEGRADABLE as exc:
                    if n == len(paths):
                        raise
                    self.obs.log.warning(
                        "cluster.failover",
                        node=self.spec.node_id,
                        error=type(exc).__name__,
                    )
                    if events is not None:
                        events.append(
                            (
                                "failover",
                                {
                                    "node": self.spec.node_id,
                                    "error": type(exc).__name__,
                                    "at": time.monotonic() - t0,
                                },
                            )
                        )
        except BaseException as exc:
            if self.breaker is not None:
                self.breaker.record_failure(exc)
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return response

    def ping(self) -> bool:
        """Whether any serving path answers, tried in failover order."""
        for client in self.paths:
            try:
                if client.ping():
                    return True
            except Exception:  # noqa: BLE001 - health probe, any failure is "down"
                pass
        return False

    def close(self) -> None:
        self.primary.close()
        for replica in self.replicas:
            replica.close()


class ClusterCoordinator:
    """Scatter-gather search over a :class:`ClusterTopology`.

    Parameters
    ----------
    topology:
        Bound topology (every non-empty node needs an address); see
        also :meth:`from_addresses` and ``ClusterTopology.load``.
    client_factory:
        Hook building each node's :class:`SearchClient` from an
        ``address`` string plus keyword arguments — the chaos harness
        swaps in fault-injecting clients here.  Defaults to
        ``SearchClient`` itself.
    breaker_factory:
        Per-node breaker builder (``node_id -> CircuitBreaker``): the
        node's one health verdict, fed by its legs and, once
        :meth:`start_health_monitor` runs, by heartbeat probes.
        ``None`` disables breaking.  The default,
        :func:`default_breaker`, trips a node open after 3 consecutive
        failed legs or probes for 1 s.
    timeout:
        Socket timeout forwarded to every node client.  Node clients
        never retry: the coordinator's own degradation semantics (drop
        the node, answer partial) replace the single-client retry
        loop, and a retry storm under fan-out multiplies load exactly
        when the cluster is least able to take it.
    gather_timeout:
        Budget in seconds for a gather when the request itself
        carries no deadline.
    obs:
        Observability bundle; the coordinator emits
        ``cluster_requests_total``, fan-out/merge latency histograms,
        a ``cluster_nodes_up`` gauge and per-node
        ``cluster_node_up_<id>`` gauges, plus ``cluster.search`` span
        trees with one child span per node.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        client_factory: Callable[..., SearchClient] | None = None,
        breaker_factory: Callable[[int], CircuitBreaker] | None = default_breaker,
        timeout: float | None = 30.0,
        gather_timeout: float = 30.0,
        obs: Observability | None = None,
        slo: SloTracker | None = None,
    ) -> None:
        for node in topology.active_nodes:
            if not node.address:
                raise ValueError(f"node {node.node_id} has no address")
        self.topology = topology
        self.gather_timeout = gather_timeout
        self.obs = obs if obs is not None else NULL_OBS
        factory = client_factory if client_factory is not None else SearchClient
        self.channels: dict[int, NodeChannel] = {
            node.node_id: NodeChannel(
                spec=node,
                client_factory=factory,
                breaker=breaker_factory(node.node_id) if breaker_factory else None,
                retry=RetryPolicy(retries=0),
                timeout=timeout,
                obs=self.obs,
            )
            for node in topology.active_nodes
        }
        self._executor = ThreadPoolExecutor(
            max_workers=max(2 * len(self.channels), 1),
            thread_name_prefix="repro-cluster",
        )
        #: Optional heartbeat; see :meth:`start_health_monitor`.
        self.monitor: HealthMonitor | None = None
        #: Optional SLO tracking: when set, every :meth:`search` outcome
        #: (ok/latency/coverage) feeds the tracker's burn-rate windows.
        self.slo = slo
        #: Trace id of the most recent :meth:`search` (None when the
        #: tracer is disabled) — the handle ``trace``/``trace_tree`` take.
        self.last_trace_id: str | None = None
        self._aggregator: MetricsAggregator | None = None
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "cluster_requests_total", "Cluster searches served by the coordinator"
        )
        self._m_degraded = registry.counter(
            "cluster_degraded_total", "Cluster searches answered with partial coverage"
        )
        self._h_fanout = registry.histogram(
            "cluster_fanout_seconds", "Scatter-gather wall time per cluster search"
        )
        self._h_merge = registry.histogram(
            "cluster_merge_seconds", "Merge wall time per cluster search"
        )
        self._g_nodes_up = registry.gauge(
            "cluster_nodes_up", "Nodes that answered the most recent fan-out"
        )
        self._g_node_up = {
            node_id: registry.gauge(
                f"cluster_node_up_{node_id}",
                f"Node {node_id} answered the most recent fan-out (1/0)",
            )
            for node_id in self.channels
        }
        self._m_skipped = registry.counter(
            "cluster_skipped_down_total",
            "Fan-out legs refused because the node's breaker was open",
        )

    @classmethod
    def from_addresses(
        cls,
        addresses: Sequence[str],
        timeout: float | None = 10.0,
        obs: Observability | None = None,
        **kwargs,
    ) -> "ClusterCoordinator":
        """Coordinate running nodes given only their addresses.

        Probes each node's ``stats`` for its record count and declares
        the spans contiguous in address order — the order
        :func:`~repro.service.cluster.topology.partition_index` shipped
        them in.
        """
        counts = []
        versions = []
        for address in addresses:
            with SearchClient(address, timeout=timeout) as probe:
                stats = probe.stats()
            counts.append(int(stats.get("records", 0)))
            versions.append(str(stats.get("version", "")))
        topology = ClusterTopology.from_record_counts(
            counts, list(addresses), version=versions[0] if versions else ""
        )
        return cls(topology, timeout=timeout, obs=obs, **kwargs)

    # ------------------------------------------------------------------
    # Self-healing hooks
    # ------------------------------------------------------------------
    def start_health_monitor(self, **kwargs) -> HealthMonitor:
        """Attach and start a :class:`HealthMonitor` over this coordinator.

        Once running, the heartbeat feeds every node's breaker: failed
        probes open it while no traffic flows, so fan-outs skip the
        node *before* scatter, and a good probe half-opens it, so the
        next leg is the trial that readmits the node.  Keyword
        arguments go to :class:`HealthMonitor`; calling twice returns
        the existing monitor.
        """
        if self.monitor is None:
            kwargs.setdefault("obs", self.obs)
            self.monitor = HealthMonitor(self.channels, **kwargs)
            self.monitor.start()
        return self.monitor

    def reattach_node(self, node_id: int, address: str) -> None:
        """Re-point one node's channel at a respawned server address."""
        channel = self.channels.get(node_id)
        if channel is None:
            raise KeyError(f"no channel for node {node_id}")
        channel.reattach(address)

    # ------------------------------------------------------------------
    def _gather(
        self,
        query: str,
        options: QueryOptions,
        deadline: Deadline | None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> list[NodeAnswer]:
        """Gate, scatter to every admitted channel; gather inside the budget.

        The breaker gate runs once per node, before the scatter: an
        open breaker degrades the node's span up front instead of
        spending budget rediscovering what it already knows.  The
        per-node ``deadline_ms`` is the group minimum by construction:
        it is computed *once* here from the remaining budget and every
        node receives the same number.
        """
        budget = (
            deadline.remaining() if deadline is not None else self.gather_timeout
        )
        if deadline is not None:
            deadline.check("cluster fan-out")
            options = options.replace(deadline_ms=max(int(budget * 1000), 1))

        futures: dict[Future, int] = {}
        started: dict[int, float] = {}
        answers: list[NodeAnswer] = []
        leg_events: dict[int, list[tuple[str, dict]]] = {}
        for node_id, channel in self.channels.items():
            if channel.breaker is not None:
                try:
                    channel.breaker.allow()
                except CircuitOpen as exc:
                    self._m_skipped.inc()
                    answers.append(
                        NodeAnswer(
                            node_id=node_id,
                            response=None,
                            error=exc,
                            seconds=0.0,
                            events=(("ejected", {"reason": exc.code}),),
                        )
                    )
                    continue
            started[node_id] = time.monotonic()
            leg_events[node_id] = []
            futures[
                self._executor.submit(
                    channel.search,
                    query,
                    options,
                    trace_id,
                    parent_span,
                    leg_events[node_id],
                )
            ] = node_id

        pending = set(futures)
        deadline_at = time.monotonic() + budget
        while pending:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                break
            finished, pending = wait(
                pending, timeout=remaining, return_when=FIRST_COMPLETED
            )
            for future in finished:
                node_id = futures[future]
                seconds = time.monotonic() - started[node_id]
                try:
                    response = future.result()
                except BadRequest:
                    for open_future in pending:
                        self._withdraw(open_future, futures[open_future])
                    raise
                except Exception as exc:  # noqa: BLE001 - degrade, never fail the query
                    answers.append(
                        NodeAnswer(
                            node_id=node_id,
                            response=None,
                            error=exc,
                            seconds=seconds,
                            events=tuple(leg_events[node_id])
                            + (
                                (
                                    "failed",
                                    {"error": type(exc).__name__, "at": seconds},
                                ),
                            ),
                        )
                    )
                    self.obs.log.warning(
                        "cluster.node-failed",
                        node=node_id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    answers.append(
                        NodeAnswer(
                            node_id=node_id,
                            response=response,
                            seconds=seconds,
                            events=tuple(leg_events[node_id]),
                        )
                    )
        for future in pending:
            # Out of budget: abandon, degrade. The worker thread will
            # finish (or fail) in the background and be discarded.
            node_id = futures[future]
            self._withdraw(future, node_id)
            seconds = time.monotonic() - started[node_id]
            answers.append(
                NodeAnswer(
                    node_id=node_id,
                    response=None,
                    error=DeadlineExceeded(
                        f"node {node_id} did not answer within the gather budget"
                    ),
                    seconds=seconds,
                    events=tuple(leg_events[node_id]) + (("timeout", {"at": seconds}),),
                )
            )
            self.obs.log.warning("cluster.node-timeout", node=node_id)
        return answers

    def _withdraw(self, future: Future, node_id: int) -> None:
        """Cancel a leg; one never sent hands back its breaker admission.

        A leg that already runs finishes in the background and records
        its own outcome; one cancelled before it was sent says nothing
        about the node.
        """
        breaker = self.channels[node_id].breaker
        if future.cancel() and breaker is not None:
            breaker.record_failure(CancelledError())

    def search(
        self, query: str, options: QueryOptions | None = None
    ) -> SearchResponse:
        """One scatter-gather search, merged to a global ranking.

        With a live tracer the whole fan-out becomes one distributed
        trace: the root ``cluster.search`` span's id rides every wire
        frame, each node's server adopts it, and
        :meth:`trace`/:meth:`trace_tree` later stitch the per-node
        subtrees (with cells-swept and failover/ejection events)
        under the ``node.search`` legs recorded here.
        """
        tracer = self.obs.tracer
        t_start = time.monotonic()
        try:
            # Inside the try: a request refused at admission is still
            # an SLO observation (ok=False).
            resolved = resolve_query_options(options).validate()
            deadline = (
                Deadline.after_ms(resolved.deadline_ms)
                if resolved.deadline_ms is not None
                else None
            )
            if deadline is not None:
                deadline.check("cluster admission")
            with tracer.span(
                "cluster.search", nodes=len(self.channels), query_bp=len(query)
            ) as root:
                trace_id = root.trace_id or None
                self.last_trace_id = trace_id
                t0 = time.monotonic()
                with tracer.span("cluster.fanout"):
                    answers = self._gather(
                        query,
                        resolved,
                        deadline,
                        trace_id=trace_id,
                        parent_span="cluster.fanout",
                    )
                    for answer in sorted(answers, key=lambda a: a.node_id):
                        attrs: dict[str, object] = {
                            "node": answer.node_id,
                            "answered": answer.answered,
                        }
                        if answer.response is not None:
                            attrs["cells"] = answer.response.metrics.cells
                        if answer.error is not None:
                            attrs["error"] = type(answer.error).__name__
                        tracer.add_span(
                            "node.search",
                            seconds=answer.seconds,
                            events=[
                                SpanEvent(
                                    name=name,
                                    offset_seconds=float(detail.get("at", 0.0)),
                                    attrs={
                                        k: v for k, v in detail.items() if k != "at"
                                    },
                                )
                                for name, detail in answer.events
                            ],
                            **attrs,
                        )
                fanout_seconds = time.monotonic() - t0
                self._h_fanout.observe(fanout_seconds)
                up = sum(1 for a in answers if a.answered)
                self._g_nodes_up.set(up)
                for answer in answers:
                    self._g_node_up[answer.node_id].set(
                        1.0 if answer.answered else 0.0
                    )
                t1 = time.monotonic()
                with tracer.span("cluster.merge", answered=up):
                    response = merge_node_responses(
                        query.upper(),
                        answers,
                        self.topology,
                        resolved,
                        total_seconds=time.monotonic() - t_start,
                    )
                self._h_merge.observe(time.monotonic() - t1)
                self._m_requests.inc()
                if response.degraded:
                    self._m_degraded.inc()
        except Exception:
            if self.slo is not None:
                self.slo.observe(ok=False, seconds=time.monotonic() - t_start)
            raise
        if self.slo is not None:
            self.slo.observe(
                ok=True,
                seconds=time.monotonic() - t_start,
                coverage=response.coverage,
            )
        return response

    # ------------------------------------------------------------------
    # Distributed observability: stitched traces, fleet metrics
    # ------------------------------------------------------------------
    def trace_tree(self, trace_id: str, fetch_retries: int = 3) -> Span | None:
        """The stitched cross-node trace for ``trace_id``, if anyone has it.

        Fetches each node's half over the ``trace`` verb (the node ring
        keys it by the coordinator's id thanks to wire adoption) and
        grafts it under the matching ``node.search`` leg of the local
        root span.  When the local root is gone — another process ran
        the query — the node halves are wrapped under a synthetic
        ``reconstructed`` root instead.  Returns ``None`` only when
        neither the coordinator nor any node remembers the id.

        ``fetch_retries`` covers a benign race: a node finishes its
        span *after* flushing the response frame, so an immediate fetch
        can be a few microseconds early.
        """
        root = self.obs.tracer.get(trace_id)
        node_trees: dict[int, Span] = {}
        for node_id, channel in self.channels.items():
            payload = None
            for attempt in range(max(1, fetch_retries)):
                if attempt:
                    time.sleep(0.01)
                try:
                    payload = channel.primary.trace_tree(trace_id)
                except Exception:  # noqa: BLE001 - a dead node has no trace
                    payload = None
                if payload is not None:
                    break
            if payload is None:
                continue
            try:
                node_trees[node_id] = Span.from_payload(payload)
            except ValueError:
                continue
        if root is not None:
            return stitch_trace(root, node_trees)
        if node_trees:
            return synthesize_trace(trace_id, node_trees)
        return None

    def trace(self, trace_id: str | None = None) -> str:
        """Human-rendered traces: the recent ring, or one stitched tree.

        Mirrors the single-node ``trace`` verb contract: no argument
        lists recent coordinator roots (most recent first); with an id
        the stitched cross-node tree is rendered.  Raises
        ``ValueError`` for an id nobody holds — the CLI maps that to
        the same nonzero exit ``repro cluster health`` uses.
        """
        if trace_id:
            stitched = self.trace_tree(trace_id)
            if stitched is None:
                raise ValueError(
                    f"unknown trace id {trace_id!r} (not in the coordinator ring "
                    "or any node ring)"
                )
            return stitched.render()
        if not self.obs.tracer.enabled:
            return "# tracing disabled (coordinator has no live tracer)"
        recent = self.obs.tracer.recent
        if not recent:
            return "# no traces recorded"
        return "\n".join(
            f"{span.trace_id} {span.name} {span.duration * 1e3:.3f}ms "
            f"spans={sum(1 for _ in span.walk())}"
            for span in reversed(recent)
        )

    @property
    def aggregator(self) -> MetricsAggregator:
        """Lazy fleet scraper over every channel + the coordinator itself."""
        if self._aggregator is None:
            self._aggregator = MetricsAggregator.from_coordinator(self)
        return self._aggregator

    # ------------------------------------------------------------------
    def health(self) -> dict[str, object]:
        """Cluster liveness: ping every channel, report per-node state.

        A node is ``up`` when any of its serving paths answers (the
        same paths, in the same order, a leg would use); ``breaker`` is
        the node's verdict for fan-outs.

        ``status`` is the operator-facing verdict: ``"ok"`` only when
        every span can answer, ``"degraded"`` the moment any span is
        down (partial coverage is a real outage for whoever lives in
        the missing records), ``"down"`` when nobody answers.
        ``healthy`` keeps its historical liveness meaning (the cluster
        can answer *something*); scripts that gate deployments should
        branch on ``status``/``degraded``, which is what
        ``repro cluster health`` exits nonzero on.
        """
        nodes = {}
        up = 0
        for node_id, channel in self.channels.items():
            alive = channel.ping()
            up += bool(alive)
            nodes[str(node_id)] = {
                "up": alive,
                "address": channel.spec.address,
                "records": channel.spec.records,
                "breaker": channel.breaker.state if channel.breaker else "none",
            }
        empty = len(self.topology) - len(self.channels)
        degraded = up < len(self.channels)
        if up == 0 and self.channels:
            status = "down"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        payload: dict[str, object] = {
            "status": status,
            "healthy": up > 0,
            "ready": up == len(self.channels),
            "degraded": degraded,
            "nodes_up": up,
            "nodes": nodes,
            "empty_nodes": empty,
            "total_records": self.topology.total_records,
        }
        if self.monitor is not None:
            payload["monitor"] = self.monitor.describe()
        return payload

    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
        for channel in self.channels.values():
            channel.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
