"""Search service: the paper's deployment model as a subsystem.

Sections 1 and 5 describe an inherently server-shaped workload — a
fixed query streamed against a multi-megabase database, only score and
coordinates returned per record.  This package turns the one-shot
:func:`repro.scan.scan_database` into that service:

* :mod:`~repro.service.index` — persistent sharded database index
  (parse + encode once, content-hash version stamp, per-shard content
  hashes verified on load, save/load);
* :mod:`~repro.service.pool` — shard sweep tasks with the phase-1
  locate kernel, merged bit-identically to the sequential scanner;
* :mod:`~repro.service.resilience` — fault tolerance: the
  :class:`ServiceError` taxonomy, :class:`RetryPolicy` backoff,
  deterministic :class:`FaultPlan` injection, and the
  :class:`SupervisedWorkerPool` that runs every multi-worker sweep
  (worker supervision, retries, shard quarantine);
* :mod:`~repro.service.cache` — LRU result cache keyed by query,
  scheme and index version (partial answers are never cached);
* :mod:`~repro.service.engine` — the :class:`SearchEngine` facade:
  batched queries over one index pass, scan-equivalent semantics,
  per-request metrics, graceful degradation with explicit
  ``coverage``/``degraded_shards`` on every response;
* :mod:`~repro.service.protocol` — the versioned, length-prefixed
  JSON frame protocol shared byte-for-byte by the TCP server and the
  client SDK, with the error taxonomy's ``error <code> <message>``
  line format;
* :mod:`~repro.service.net` — the asyncio TCP front-end behind
  ``repro serve --tcp``, the service's one front-end: concurrent
  connections, per-connection pipelining, bounded backpressure,
  cross-request micro-batching and graceful drain;
* :mod:`~repro.service.client` — :class:`SearchClient` /
  :class:`AsyncSearchClient`, the SDK side of the wire protocol with
  connection pooling and :class:`RetryPolicy`-driven retries;
* :mod:`~repro.service.guard` — cross-layer robustness:
  :class:`CircuitBreaker` (per-endpoint fail-fast keyed on the error
  taxonomy), :class:`IndexManager` (generational hot index reload under live
  traffic), plus the :class:`Deadline`/:class:`DeadlineExceeded`
  budget machinery threaded through every layer above;
* :mod:`~repro.service.chaos` — deterministic chaos harness driving a
  real TCP server through seeded fault schedules while asserting the
  service's invariants;
* :mod:`~repro.service.ingest` — crash-safe streaming ingest: a
  CRC-framed write-ahead journal (fsync before ack), sealed segments
  compacted into delta shards published atomically through
  :class:`IndexManager`, startup recovery that replays the journal and
  quarantines digest-failing deltas, and an injectable
  :class:`~repro.service.resilience.FaultFS` whose labeled crash
  points the chaos harness kills at one by one
  (``repro.service.chaos --ingest``);
* :mod:`~repro.service.cluster` — the distributed tier:
  :func:`~repro.service.cluster.partition_index` splits an index into
  contiguous per-node sub-indexes, a
  :class:`~repro.service.cluster.ClusterCoordinator` scatter-gathers
  each query over protocol v2 with replica failover and group-min
  deadline propagation.  Each node has one health verdict, its circuit
  breaker, fed by its fan-out legs and by the optional
  :class:`~repro.service.cluster.HealthMonitor` heartbeat; a node whose
  primary is dead keeps serving through a live replica.  The
  coordinator is the cluster's one client, and it and
  :class:`LocalCluster` are the deployment surfaces (``repro cluster``
  on the CLI).

Stable public surface
---------------------
``__all__`` below is the *supported* API — :class:`SearchEngine`,
:class:`SearchClient`, :class:`QueryOptions`, :class:`DatabaseIndex`,
:class:`ResultCache` and the error taxonomy.  Everything else exported
by the submodules (worker pools, the TCP server, fault injection)
remains importable but is internal plumbing and free to evolve
between versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.stats import ScoreStatistics


@dataclass(frozen=True)
class QueryOptions:
    """Everything a caller may tune about one search request.

    One dataclass carried end-to-end — :class:`SearchEngine`, the TCP
    wire format and :class:`SearchClient` all speak it.

    ``statistics`` (calibrated Karlin-Altschul statistics) overrides
    the engine's default for this request; it never crosses the wire —
    a remote server applies its own engine's statistics.

    ``deadline_ms`` is the request's **end-to-end budget** in
    milliseconds, relative to when the request enters each layer: the
    client anchors it at send, the server re-anchors at receipt, and
    every layer below (batcher, engine, worker pool) derives its
    timeouts from the remaining budget.  ``None`` means no deadline; a
    value ≤ 0 means "already expired" and surfaces as
    :class:`~repro.service.resilience.DeadlineExceeded` rather than
    ``bad-request`` — an exhausted budget is a timeout, wherever it is
    discovered.

    ``kernel`` names the :mod:`repro.kernels` backend this request's
    sweep must run on (``"numpy-striped"``, ``"pure"``, ``"hw-sim"``).
    ``None`` — the default, and what an absent wire field decodes to —
    means "whatever the server is configured with" (its ``--kernel``
    flag, falling back to the process default).  Every backend is
    bit-identical on rankings, so the field selects a *cost model*,
    never an answer; cache keys still carry it so an operator can
    account hits per backend.

    Construction never raises so a request can be *carried* before it
    is *checked*; :meth:`validate` applies the range rules and is
    called by the engine on every request, which is what maps bad
    values to ``bad-request`` on every front-end.
    """

    top: int = 10
    min_score: int = 1
    retrieve: int = 0
    statistics: "ScoreStatistics | None" = None
    deadline_ms: int | None = None
    kernel: str | None = None

    def validate(self) -> "QueryOptions":
        """Range-check; returns self so calls chain."""
        if self.top < 1:
            raise ValueError(f"top must be positive, got {self.top}")
        if self.retrieve < 0:
            raise ValueError(f"retrieve cannot be negative, got {self.retrieve}")
        if self.kernel is not None:
            from ..kernels import available_backends

            if self.kernel not in available_backends():
                raise ValueError(
                    f"unknown kernel {self.kernel!r} "
                    f"(available: {', '.join(available_backends())})"
                )
        return self

    def replace(self, **changes: object) -> "QueryOptions":
        return _dc_replace(self, **changes)


def resolve_query_options(
    options: "QueryOptions | None" = None,
    defaults: "QueryOptions | None" = None,
) -> "QueryOptions":
    """``options``, else ``defaults``, else ``QueryOptions()``."""
    if options is None:
        return defaults if defaults is not None else QueryOptions()
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"options must be QueryOptions, got {type(options).__name__}"
        )
    return options


from .cache import CacheKey, CacheStats, ResultCache, scheme_token
from .engine import RequestMetrics, SearchEngine, SearchResponse
from .index import DatabaseIndex, IndexFormatError, Shard
from .pool import WorkerSpec, merge_candidates
from .resilience import (
    BadRequest,
    Deadline,
    DeadlineExceeded,
    Fault,
    FaultPlan,
    IndexCorrupt,
    Overloaded,
    RequestTimeout,
    RetryPolicy,
    ServiceError,
    ShardFailure,
    SupervisedWorkerPool,
    SweepOutcome,
    WorkerTimeout,
    corrupt_index_file,
    validate_sweep,
)
from .guard import (
    AdaptiveLimiter,
    CircuitBreaker,
    CircuitOpen,
    IndexManager,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .net import ServerConfig, TcpSearchServer
from .client import AsyncSearchClient, SearchClient
from .cluster import (
    ClusterCoordinator,
    ClusterSupervisor,
    ClusterTopology,
    HealthMonitor,
    LocalCluster,
    partition_index,
)

#: The stable, supported surface of ``repro.service``: the engine, the
#: client SDK, the unified request options, the index, the cache, and
#: the error taxonomy.  Internal machinery (pools, servers, fault
#: injection) stays importable but unpinned.
__all__ = [
    "AdaptiveLimiter",
    "BadRequest",
    "CircuitBreaker",
    "CircuitOpen",
    "ClusterCoordinator",
    "ClusterSupervisor",
    "ClusterTopology",
    "DatabaseIndex",
    "Deadline",
    "DeadlineExceeded",
    "HealthMonitor",
    "IndexCorrupt",
    "IndexFormatError",
    "IndexManager",
    "LocalCluster",
    "Overloaded",
    "ProtocolError",
    "QueryOptions",
    "RequestTimeout",
    "ResultCache",
    "SearchClient",
    "SearchEngine",
    "ServiceError",
    "ShardFailure",
    "WorkerTimeout",
]
