"""Batch query engine: the search service's facade.

:class:`SearchEngine` turns the one-shot scanner into a reusable
server-shaped component: a persistent pre-encoded
:class:`~repro.service.index.DatabaseIndex` is swept in-process or by a
:class:`~repro.service.resilience.SupervisedWorkerPool` (software
kernel or simulated accelerator), ranked candidates are remembered in a
:class:`~repro.service.cache.ResultCache`, and multiple queries batch
over **one pass of the index** — each shard ships to a worker once per
batch and is swept for every outstanding query while it is hot.

The engine's contract mirrors :func:`repro.scan.scan_database`
exactly: same ``top``/``min_score`` semantics, same E-value
application, and **bit-identical rankings** (the merge order
``(-score, database_index)`` is the scanner's stable sort; see
:mod:`repro.service.pool`).  What changes is the cost model — parse
and encode once, sweep in parallel, skip the sweep entirely on a
cache hit — and the accounting, which every request carries as a
:class:`RequestMetrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..align.local_linear import local_align_linear
from ..align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix
from ..align.smith_waterman import LocalHit
from ..analysis.cups import cups as _cups
from ..analysis.cups import format_cups, utilization
from ..analysis.report import render_kv
from ..analysis.stats import ScoreStatistics
from ..obs import NULL_OBS, Observability
from ..scan import ScanHit, ScanReport
from . import QueryOptions, resolve_query_options
from .cache import CacheKey, ResultCache, scheme_token
from .guard import IndexManager
from .index import DatabaseIndex
from .pool import (
    Candidate,
    WorkerSpec,
    _sweep_shard,
    busy_seconds,
    merge_candidates,
    shard_task,
)
from .resilience import Deadline, SupervisedWorkerPool

__all__ = ["RequestMetrics", "SearchResponse", "SearchEngine"]

#: The degradation path's kernel (see ``SearchEngine._sweep_inline``).
_REFERENCE = WorkerSpec("reference")


@dataclass(frozen=True)
class _CachedSweep:
    """What the cache stores: the sweep's ranked output, nothing more.

    Only full-coverage sweeps are ever cached — a degraded (partial)
    answer must not be replayed later as if it were complete — so
    ``coverage``/``degraded`` matter only for the in-flight entries a
    degraded batch builds for itself.
    """

    candidates: tuple[Candidate, ...]
    records: int
    coverage: float = 1.0
    degraded: tuple[int, ...] = ()


@dataclass(frozen=True)
class RequestMetrics:
    """Per-request accounting the service layer exposes.

    ``sweep_seconds`` is this request's share of the batch sweep wall
    time (apportioned by cells); ``sweep_wall_seconds`` is the whole
    batch's sweep wall time and ``worker_busy`` maps worker labels to
    busy seconds over that same batch.
    """

    query_length: int
    records: int
    cells: int
    sweep_seconds: float
    retrieval_seconds: float
    total_seconds: float
    workers: int
    shards: int
    cache_hit: bool
    worker_busy: tuple[tuple[str, float], ...] = ()
    sweep_wall_seconds: float = 0.0

    @property
    def cups(self) -> float:
        return self.cells / self.sweep_seconds if self.sweep_seconds > 0 else 0.0

    @property
    def worker_utilization(self) -> dict[str, float]:
        """Busy fraction per worker over the batch sweep wall time."""
        return utilization(dict(self.worker_busy), self.sweep_wall_seconds)

    def render(self) -> str:
        pairs: list[tuple[str, object]] = [
            ("records", self.records),
            ("cells", f"{self.cells:,}"),
            ("sweep s", f"{self.sweep_seconds:.4f}"),
            ("retrieval s", f"{self.retrieval_seconds:.4f}"),
            ("total s", f"{self.total_seconds:.4f}"),
            ("sweep rate", format_cups(self.cups)),
            ("workers", self.workers),
            ("shards", self.shards),
            ("cache", "hit" if self.cache_hit else "miss"),
        ]
        for worker, frac in sorted(self.worker_utilization.items()):
            pairs.append((worker, f"{frac:.0%} busy"))
        return render_kv(pairs, title="request metrics")


@dataclass
class SearchResponse:
    """One query's ranked report plus its service-side metrics.

    ``coverage`` is the fraction of database records actually swept
    (1.0 on the healthy path); when shards were quarantined or failed
    unrecoverably it drops below 1.0 and ``degraded_shards`` names the
    excluded shards, so callers always know a partial answer is
    partial.
    """

    query: str
    report: ScanReport
    metrics: RequestMetrics
    coverage: float = 1.0
    degraded_shards: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.coverage < 1.0

    def render(self, max_rows: int = 10, with_metrics: bool = False) -> str:
        text = ""
        if self.degraded:
            shards = ",".join(str(s) for s in self.degraded_shards)
            text += f"degraded coverage={self.coverage:.3f} shards={shards}\n"
        text += self.report.render(max_rows=max_rows)
        if with_metrics:
            text += "\n" + self.metrics.render()
        return text


class SearchEngine:
    """Cached, parallel, batched database search over a persistent index.

    Parameters
    ----------
    index:
        The pre-encoded database (build once, reuse per query).
    scheme:
        Scoring scheme — fixed per engine, like the synthesized
        datapath constants it models.
    workers:
        Process count for the shard sweep.  1 (with no ``pool``) sweeps
        in-process; more builds a :class:`SupervisedWorkerPool` with
        that class's defaults.
    spec:
        How workers build their locate kernel (software row sweep by
        default; ``WorkerSpec("accelerator", elements=N)`` for the
        simulated device).
    cache:
        Result cache; defaults to a 128-entry LRU.  Pass
        ``ResultCache(0)`` to disable.
    statistics:
        Calibrated Karlin-Altschul statistics; when set, hits carry
        E-values exactly as ``scan_database`` reports them.
    pool:
        A ready-made :class:`~repro.service.resilience.SupervisedWorkerPool`
        to sweep with, when its retry policy, timeouts or fault plan
        should differ from the defaults; ``None`` builds one from
        ``workers``/``spec`` (or none at all for a single worker).
    fallback_scan:
        When True (the default) the engine degrades gracefully: shards
        the pool could not sweep are re-swept in-process (the
        trusted ``scan_database`` path), and once the pool is marked
        unhealthy the whole sweep runs in-process — the service keeps
        serving instead of raising.  Set False to surface partial
        coverage in the response instead of healing it.
    obs:
        Observability bundle (metrics registry + tracer + logger).
        Defaults to :data:`~repro.obs.NULL_OBS` — no-op instruments,
        negligible overhead — so library callers pay nothing; a live
        bundle (``Observability.create()``) makes the engine emit
        request counters, sweep-latency histograms, a sustained-CUPS
        gauge, and per-request span trees.  A pool without its own
        bundle inherits this one.
    """

    def __init__(
        self,
        index: DatabaseIndex | IndexManager,
        scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
        workers: int = 1,
        spec: WorkerSpec | None = None,
        cache: ResultCache | None = None,
        statistics: ScoreStatistics | None = None,
        pool: SupervisedWorkerPool | None = None,
        fallback_scan: bool = True,
        obs: Observability | None = None,
    ) -> None:
        # Every engine holds its index through an IndexManager so hot
        # reload is uniformly available; a bare DatabaseIndex is wrapped
        # in a loaderless manager (swap() still works, reload() needs a
        # loader).  ``self.index`` stays as the live-generation view for
        # existing callers.
        self.indexes = (
            index if isinstance(index, IndexManager) else IndexManager(index=index)
        )
        self.scheme = scheme
        if pool is not None:
            self.spec = pool.spec
        else:
            if workers < 1:
                raise ValueError(f"need at least one worker, got {workers}")
            self.spec = spec if spec is not None else WorkerSpec()
            if workers > 1:
                pool = SupervisedWorkerPool(workers=workers, spec=self.spec)
        self.pool = pool
        self.workers = pool.workers if pool is not None else 1
        self.fallback_scan = fallback_scan
        self.fallback_sweeps = 0
        self.cache = cache if cache is not None else ResultCache()
        self.statistics = statistics
        self._scheme_token = scheme_token(scheme)
        self._retrieve_locate = None
        self.requests_served = 0
        self.obs = obs if obs is not None else NULL_OBS
        if self.obs.enabled and pool is not None and not pool.obs.enabled:
            pool.bind_obs(self.obs)
        registry = self.obs.registry
        self.cache.bind(registry)
        self.indexes.attach_cache(self.cache)
        if self.obs.enabled and not self.indexes.obs.enabled:
            self.indexes.bind_obs(self.obs)
        self._m_requests = registry.counter(
            "requests_total", "Search requests served by the engine"
        )
        self._m_request_seconds = registry.histogram(
            "request_seconds", "End-to-end request latency in seconds"
        )
        self._m_sweep_seconds = registry.histogram(
            "sweep_seconds", "Batch sweep wall time in seconds"
        )
        self._m_cells = registry.counter(
            "cells_swept_total", "Dynamic-programming cells swept"
        )
        self._m_sustained_cups = registry.gauge(
            "sustained_cups",
            "Cumulative cells swept over cumulative sweep wall seconds",
        )
        self._m_degraded = registry.gauge(
            "degraded_shards", "Shards excluded from the most recent sweep"
        )
        self._m_fallbacks = registry.counter(
            "fallback_sweeps_total", "Sweeps healed by the in-process fallback path"
        )
        self._cells_swept_total = 0
        self._sweep_wall_total = 0.0
        # Streaming ingest (attach_ingest): None until a WAL-backed
        # IngestService is wired in; health() then reports its state.
        self.ingest = None

    # ------------------------------------------------------------------
    @property
    def index(self) -> DatabaseIndex:
        """The live-generation index (see :attr:`indexes` for reload)."""
        return self.indexes.index

    def _key(
        self,
        query: str,
        min_score: int,
        top: int,
        index: DatabaseIndex,
        generation: int,
        kernel: str,
    ) -> CacheKey:
        return CacheKey(
            query=query,
            scheme=self._scheme_token,
            index_version=index.version,
            min_score=min_score,
            top=top,
            generation=generation,
            kernel=kernel,
        )

    def _kernel_for(self, resolved: QueryOptions) -> tuple[str, WorkerSpec | None]:
        """Resolve a request's kernel: name plus a sweep-spec override.

        Precedence is ``QueryOptions.kernel`` over the engine's own
        spec (the server's ``--kernel`` flag or the process default).
        The override is ``None`` when the request agrees with the
        engine — the pool then sweeps with its own spec untouched.
        """
        engine_kernel = self.spec.resolved_kernel()
        if resolved.kernel is None or resolved.kernel == engine_kernel:
            return engine_kernel, None
        override = WorkerSpec(
            kind=resolved.kernel,
            elements=self.spec.elements,
            engine=self.spec.engine,
        )
        return resolved.kernel, override

    def _locate_for_retrieval(self):
        if self._retrieve_locate is None:
            self._retrieve_locate = self.spec.make_locate(self.scheme)
        return self._retrieve_locate

    # ------------------------------------------------------------------
    def _sweep_inline(
        self, shards, queries, min_score: int, k: int, deadline, spec: WorkerSpec
    ):
        """Sweep ``shards`` in-process with ``spec``'s kernel.

        No subprocesses, no fault injection.  A single-worker engine
        with no pool sweeps every request here with the request's
        kernel.  The graceful-degradation path passes the ``reference``
        spec — the same row sweep ``scan_database`` runs, the most
        trustworthy way to finish a sweep the pool could not; every
        backend is bit-identical, so that changes nothing a caller can
        observe.  The deadline (when set) is enforced at shard
        granularity.
        """
        sweeps = []
        for shard in shards:
            if deadline is not None:
                deadline.check("inline sweep")
            sweeps.append(
                _sweep_shard(shard_task(shard, queries, self.scheme, spec, min_score, k))
            )
        return sweeps

    def _run_sweep(
        self, index, queries, min_score: int, k: int, deadline=None, spec=None
    ):
        """One batch sweep with degradation handling.

        Returns ``(sweeps, degraded_ids)`` where ``degraded_ids`` are
        the shards excluded from this sweep (load-quarantined plus any
        the pool failed on that fallback did not heal).  ``spec``, when
        set, overrides the engine's kernel spec for this sweep only (a
        request-level ``QueryOptions.kernel`` selection).

        :class:`~repro.service.resilience.DeadlineExceeded` raised by
        the pool propagates untouched — the fallback path re-sweeps
        in-process, which can only take *longer* than the budget that
        just ran out.
        """
        load_degraded = set(index.degraded)
        if self.pool is None:
            # One worker and no pool: sweep in-process on the request's
            # kernel.
            sweeps = self._sweep_inline(
                index.active_shards,
                queries,
                min_score,
                k,
                deadline,
                spec if spec is not None else self.spec,
            )
            return sweeps, tuple(sorted(load_degraded))
        if not self.pool.healthy and self.fallback_scan:
            # The pool proved itself unable to complete a sweep; stop
            # paying its overhead and keep serving in-process.
            self.fallback_sweeps += 1
            self._m_fallbacks.inc()
            self.obs.tracer.event("fallback", reason="pool-unhealthy")
            self.obs.log.warning(
                "engine.fallback", reason="pool-unhealthy", queries=len(queries)
            )
            sweeps = self._sweep_inline(
                index.active_shards, queries, min_score, k, deadline, _REFERENCE
            )
            return sweeps, tuple(sorted(load_degraded))
        result = self.pool.sweep(
            index,
            queries,
            self.scheme,
            min_score=min_score,
            k=k,
            deadline=deadline,
            spec=spec,
        )
        sweeps = list(result.sweeps)
        failed = dict(result.failed)
        if failed and self.fallback_scan:
            healed = [s for s in index.active_shards if s.shard_id in failed]
            self.fallback_sweeps += 1
            self._m_fallbacks.inc()
            shard_ids = ",".join(str(s) for s in sorted(failed))
            self.obs.tracer.event("fallback", reason="failed-shards", shards=shard_ids)
            self.obs.log.warning(
                "engine.fallback", reason="failed-shards", shards=shard_ids
            )
            sweeps.extend(
                self._sweep_inline(healed, queries, min_score, k, deadline, _REFERENCE)
            )
            failed.clear()
        return sweeps, tuple(sorted(load_degraded | set(failed)))

    def _observe_sweep(self, sweeps, sweep_wall: float, degraded) -> None:
        """Fold one batch sweep into the engine's metrics.

        The sustained-CUPS gauge is the service-side counterpart of the
        benchmarks' offline computation: cumulative cells actually
        swept over cumulative sweep wall seconds, via
        :func:`repro.analysis.cups.cups` — the sustained (not peak)
        figure the FPGA-survey literature says distinguishes designs.
        """
        self._m_sweep_seconds.observe(sweep_wall)
        batch_cells = sum(s.cells for s in sweeps)
        self._m_cells.inc(batch_cells)
        self._cells_swept_total += batch_cells
        self._sweep_wall_total += sweep_wall
        if self._sweep_wall_total > 0:
            self._m_sustained_cups.set(
                _cups(self._cells_swept_total, self._sweep_wall_total)
            )
        self._m_degraded.set(len(degraded))
        if degraded:
            self.obs.log.warning(
                "engine.degraded-sweep",
                shards=",".join(str(s) for s in degraded),
            )

    @property
    def sustained_cups(self) -> float:
        """Cumulative cells swept over cumulative sweep wall seconds."""
        if self._sweep_wall_total <= 0:
            return 0.0
        return _cups(self._cells_swept_total, self._sweep_wall_total)

    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        options: QueryOptions | int | None = None,
        *,
        top: int | None = None,
        min_score: int | None = None,
        retrieve: int | None = None,
        statistics: ScoreStatistics | None = None,
        deadline: Deadline | None = None,
    ) -> SearchResponse:
        """Rank the database against one query (see ``search_batch``).

        ``options`` is the request's :class:`~repro.service.QueryOptions`;
        the spelled-out keywords are the deprecated pre-options
        signature, kept working through the same shim ``search_batch``
        applies.
        """
        resolved = resolve_query_options(
            options,
            top=top,
            min_score=min_score,
            retrieve=retrieve,
            statistics=statistics,
        )
        return self.search_batch([query], resolved, deadline=deadline)[0]

    def search_batch(
        self,
        queries: Sequence[str],
        options: QueryOptions | int | None = None,
        *,
        top: int | None = None,
        min_score: int | None = None,
        retrieve: int | None = None,
        statistics: ScoreStatistics | None = None,
        deadline: Deadline | None = None,
    ) -> list[SearchResponse]:
        """Rank the database against every query in one index pass.

        Cache-resident queries skip the sweep entirely; the remaining
        distinct queries are swept together — each shard is shipped to
        a worker once and swept for all of them while its payload is
        hot.  Rankings are bit-identical to ``scan_database`` per
        query.

        ``options`` (a :class:`~repro.service.QueryOptions`) carries
        ``top``/``min_score``/``retrieve``/``statistics``/
        ``deadline_ms``; the legacy keywords still work but emit a
        :class:`DeprecationWarning`.

        ``deadline`` is an already-anchored budget from an upstream
        layer (the TCP server anchors at receipt); when absent and the
        options carry ``deadline_ms``, the budget is anchored here.
        The whole batch shares one deadline — batching groups requests
        by identical options, so all members asked for the same budget.

        The ``(index, generation)`` pair is snapshotted **once** here:
        a hot reload mid-batch is invisible to this batch, which
        finishes on the generation it admitted under.
        """
        resolved = resolve_query_options(
            options,
            top=top,
            min_score=min_score,
            retrieve=retrieve,
            statistics=statistics,
        ).validate()
        top = resolved.top
        min_score = resolved.min_score
        retrieve = resolved.retrieve
        stats = resolved.statistics if resolved.statistics is not None else self.statistics
        kernel, sweep_spec = self._kernel_for(resolved)
        if deadline is None and resolved.deadline_ms is not None:
            deadline = Deadline.after_ms(resolved.deadline_ms)
        if deadline is not None:
            deadline.check("engine admission")
        index, generation = self.indexes.current()
        tracer = self.obs.tracer
        t_start = time.perf_counter()
        with tracer.span("engine.search", queries=len(queries)):
            normalized = [q.upper() for q in queries]
            keys = [
                self._key(q, min_score, top, index, generation, kernel)
                for q in normalized
            ]
            cached: dict[CacheKey, _CachedSweep] = {}
            pending: list[str] = []
            pending_keys: list[CacheKey] = []
            with tracer.span("cache.lookup", keys=len(keys)):
                for q, key in zip(normalized, keys):
                    if key in cached or key in pending_keys:
                        continue
                    entry = self.cache.get(key)
                    if entry is not None:
                        cached[key] = entry  # type: ignore[assignment]
                    else:
                        pending.append(q)
                        pending_keys.append(key)

            sweep_wall = 0.0
            worker_busy: tuple[tuple[str, float], ...] = ()
            swept_bp = index.total_bp
            if pending:
                query_bp = sum(len(q) for q in pending)
                shard_bp = {s.shard_id: s.bp for s in index.shards}
                with tracer.span(
                    "pool.sweep", pending=len(pending), kernel=kernel
                ) as sweep_span:
                    t0 = time.perf_counter()
                    sweeps, degraded = self._run_sweep(
                        index, pending, min_score, top, deadline, sweep_spec
                    )
                    sweep_wall = time.perf_counter() - t0
                    for sweep in sweeps:
                        # cells = query bp x shard bp: the per-span CUPS
                        # numerator, attributable per query per shard.
                        tracer.add_span(
                            "shard.sweep",
                            seconds=sweep.seconds,
                            shard=sweep.shard_id,
                            records=sweep.records,
                            worker=sweep.worker,
                            cells=query_bp * shard_bp.get(sweep.shard_id, 0),
                        )
                    sweep_span.attrs["cells"] = query_bp * sum(
                        shard_bp.get(s.shard_id, 0) for s in sweeps
                    )
                self._observe_sweep(sweeps, sweep_wall, degraded)
                excluded = set(degraded)
                swept_records = sum(
                    len(s) for s in index.shards if s.shard_id not in excluded
                )
                swept_bp = sum(
                    s.bp for s in index.shards if s.shard_id not in excluded
                )
                total = index.record_count
                coverage = swept_records / total if total else 1.0
                merged = merge_candidates(sweeps, len(pending), top)
                worker_busy = tuple(sorted(busy_seconds(sweeps).items()))
                for key, ranked in zip(pending_keys, merged):
                    entry = _CachedSweep(
                        candidates=tuple(ranked),
                        records=swept_records,
                        coverage=coverage,
                        degraded=degraded,
                    )
                    cached[key] = entry
                    if coverage >= 1.0:
                        # Partial answers are never cached: a later request
                        # must re-attempt the full sweep, not replay a
                        # degraded ranking as if it were complete.
                        self.cache.put(key, entry)

            pending_cells = sum(len(q) * swept_bp for q in pending) or 1
            hit_keys = {key for key in keys if key not in pending_keys}

            responses: list[SearchResponse] = []
            with tracer.span("response.build", responses=len(keys)):
                for q, key in zip(normalized, keys):
                    entry = cached[key]
                    was_hit = key in hit_keys
                    report = ScanReport(
                        query_length=len(q),
                        min_score=min_score,
                        records_scanned=entry.records,
                        cells=0 if was_hit else len(q) * swept_bp,
                    )
                    t_retrieve = time.perf_counter()
                    for rank, (score, gidx, i, j) in enumerate(entry.candidates):
                        name, codes = index.record(gidx)
                        alignment = None
                        if rank < retrieve:
                            seq = index.sequence(gidx)
                            with tracer.span("local_linear", record=name) as traced:
                                # The sweep's (score, i, j) is phase 1 of the
                                # retrieval; only the host's reverse,
                                # anchored and Hirschberg passes run here.
                                result = local_align_linear(
                                    q,
                                    seq,
                                    self.scheme,
                                    self._locate_for_retrieval(),
                                    end=LocalHit(score, i, j),
                                )
                                a, e_i, b, e_j = result.span
                                traced.attrs["cells"] = (e_i - a) * (e_j - b)
                            alignment = result.alignment
                        evalue = (
                            stats.evalue(score, len(q), len(codes))
                            if stats is not None
                            else None
                        )
                        report.hits.append(
                            ScanHit(
                                record=name,
                                length=len(codes),
                                hit=LocalHit(score, i, j),
                                alignment=alignment,
                                evalue=evalue,
                            )
                        )
                    retrieval_seconds = time.perf_counter() - t_retrieve
                    share = (
                        0.0
                        if was_hit
                        else sweep_wall * (len(q) * swept_bp) / pending_cells
                    )
                    report.sweep_seconds = share
                    report.total_seconds = share + retrieval_seconds
                    metrics = RequestMetrics(
                        query_length=len(q),
                        records=entry.records,
                        cells=report.cells,
                        sweep_seconds=share,
                        retrieval_seconds=retrieval_seconds,
                        total_seconds=time.perf_counter() - t_start,
                        workers=self.workers,
                        shards=index.shard_count,
                        cache_hit=was_hit,
                        worker_busy=() if was_hit else worker_busy,
                        sweep_wall_seconds=0.0 if was_hit else sweep_wall,
                    )
                    self.requests_served += 1
                    self._m_requests.inc()
                    self._m_request_seconds.observe(metrics.total_seconds)
                    responses.append(
                        SearchResponse(
                            query=q,
                            report=report,
                            metrics=metrics,
                            coverage=entry.coverage,
                            degraded_shards=entry.degraded,
                        )
                    )
            return responses

    # ------------------------------------------------------------------
    def reload_index(self) -> int:
        """Hot-reload the index through the manager; returns the new generation.

        Raises ``ValueError`` when the manager has no loader (the
        engine was built around a bare in-memory index).
        """
        return self.indexes.reload()

    def health(self) -> dict[str, object]:
        """Liveness/readiness snapshot: pool, shards, index generation.

        ``ready`` is the readiness signal: the engine can currently
        produce full-coverage answers (pool healthy or fallback armed,
        and no shards excluded).  ``healthy`` is the weaker liveness
        signal: the engine can answer at all, possibly degraded.
        """
        index, generation = self.indexes.current()
        pool_healthy = self.pool is None or self.pool.healthy
        quarantined = self.pool.quarantined if self.pool is not None else ()
        excluded = sorted(set(index.degraded) | set(quarantined))
        can_sweep = pool_healthy or self.fallback_scan
        payload: dict[str, object] = {
            "healthy": bool(can_sweep),
            "ready": bool(can_sweep and not excluded),
            "pool_healthy": pool_healthy,
            "fallback_scan": self.fallback_scan,
            "fallback_sweeps": self.fallback_sweeps,
            "quarantined_shards": list(quarantined),
            "degraded_shards": list(excluded),
            "shards": index.shard_count,
            "generation": generation,
            "index_version": index.version[:12],
            "reloads": self.indexes.reloads,
            "requests": self.requests_served,
        }
        if self.ingest is not None:
            payload["ingest"] = self.ingest.describe()
        return payload

    def attach_ingest(self, service) -> None:
        """Wire a :class:`~repro.service.ingest.IngestService` in.

        The service must already drive this engine's ``indexes``
        manager (its recovery installed the combined base+delta
        loader); attaching here only makes the engine's ``health``
        payload and the TCP ``ingest`` verb aware of it.
        """
        if service.manager is not self.indexes:
            raise ValueError(
                "ingest service is bound to a different IndexManager "
                "than this engine"
            )
        self.ingest = service

    def describe(self) -> dict[str, object]:
        """Engine + index + cache summary (the ``stats`` server verb)."""
        info = dict(self.index.describe())
        cache = self.cache.stats
        info["generation"] = self.indexes.generation
        info.update(
            {
                "workers": self.workers,
                "kernel": self.spec.resolved_kernel(),
                "requests": self.requests_served,
                "cache size": f"{cache.size}/{cache.capacity}",
                "cache hits": cache.hits,
                "cache misses": cache.misses,
                "cache hit rate": f"{cache.hit_rate:.0%}",
            }
        )
        if self._sweep_wall_total > 0:
            info["sustained rate"] = format_cups(self.sustained_cups)
        if self.pool is not None:
            info.update(self.pool.describe())
            info["fallback sweeps"] = self.fallback_sweeps
        return info
