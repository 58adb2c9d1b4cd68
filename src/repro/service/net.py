"""Asyncio TCP front-end: the host↔board interface over a socket.

The paper's deployment model (section 5) is a host streaming queries
to a resident accelerator and reading a few bytes of ranked results
back; :class:`TcpSearchServer` is that interface made real for the
software service.  It wraps the existing :class:`SearchEngine`
machinery with:

* **concurrent connections**, each pipelining many in-flight requests
  over one socket (frames are matched by request id, so responses may
  return out of submission order);
* **bounded backpressure** — at most ``max_inflight`` search requests
  in flight server-wide; excess requests are *rejected immediately*
  with a structured ``overloaded`` error frame instead of queueing
  without bound.  Out-of-range options are refused with
  ``bad-request`` before admission, so they take no slot;
* **adaptive admission** (``adaptive=True``, the default) — the
  in-flight bound is an :class:`~repro.service.guard.AdaptiveLimiter`
  that starts at ``max_inflight`` and AIMD-adjusts it: on-time
  completions grow the limit back toward the ceiling, deadline misses
  and timeouts cut it multiplicatively, so a server whose sweeps have
  slowed (hot index reload, noisy neighbour, degraded disk) sheds
  load *before* queueing work it cannot finish;
* **deadline-aware shedding** — once the
  :class:`~repro.service.guard.ServiceTimeTracker` has warmed up, a
  search whose remaining ``deadline_ms`` budget is smaller than the
  observed p90 sweep time is refused at admission with
  ``overloaded`` (which the client SDK retries with backoff): it
  would occupy a sweep slot and then expire, which under overload is
  precisely the work to drop first.  An idle server always admits,
  so a stale service-time estimate can never latch into refusing
  every request;
* **cross-request micro-batching** — search requests arriving within
  ``batch_window`` seconds (less, once every open connection has one
  in the batch) are coalesced (grouped by identical
  :class:`~repro.service.QueryOptions`) into one
  :meth:`SearchEngine.search_batch` sweep, so concurrent clients share
  a single pass over the index exactly as SWAPHI keeps many queries
  resident against one database;
* **idle timeout** — a silent connection is closed after
  ``idle_timeout``; a slow request is bounded by its own
  ``deadline_ms``, which stops its sweep mid-shard and answers
  ``deadline-exceeded``;
* **graceful drain** — :meth:`stop` refuses new work (``overloaded``
  frames), lets in-flight requests finish (for at most
  :data:`DRAIN_TIMEOUT` seconds) and flushes their responses before
  closing connections.

The engine runs on a single dispatch thread (one
:class:`~concurrent.futures.ThreadPoolExecutor` worker), which both
keeps the asyncio loop responsive during sweeps and serializes access
to the engine.  :class:`ServerThread` is the one way to run a server:
it owns the event loop on a background thread, so tests, benchmarks,
``LocalCluster`` and both serving commands (``repro serve``,
``repro cluster serve``) start and drain servers the same way.

All bytes on the wire are produced and consumed by
:mod:`repro.service.protocol`; nothing here encodes frames by hand.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..obs import Observability
from . import QueryOptions
from .engine import SearchEngine
from .guard import AdaptiveLimiter, ServiceTimeTracker
from .resilience import BadRequest, Deadline, DeadlineExceeded, Overloaded, RequestTimeout
from . import protocol

__all__ = ["ServerConfig", "TcpSearchServer", "ServerThread"]

#: Seconds :meth:`TcpSearchServer.stop` waits for in-flight requests
#: before it closes their connections anyway.
DRAIN_TIMEOUT = 10.0

#: The observed sweep-time quantile a request's remaining deadline
#: budget must cover, at admission and again at dispatch.
SHED_PERCENTILE = 0.9


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one :class:`TcpSearchServer`.

    ``batch_window`` is the micro-batching horizon: once a search
    request arrives, the dispatcher waits up to this many seconds for
    more requests (up to ``batch_max``) before sweeping them together.
    The window closes early once every open connection has a request
    in the batch (requests that have already arrived still join), so
    lockstep clients never wait out the full window; while any
    connection has none in the batch, the full window applies.
    ``0.0`` disables coalescing entirely — every request becomes its
    own sweep, which is the configuration the throughput benchmark
    compares against.

    ``adaptive`` turns ``max_inflight`` from a static bound into the
    *ceiling* of an AIMD limiter that shrinks toward one request in
    flight when requests miss their deadlines, and turns on
    deadline-aware shedding (:data:`SHED_PERCENTILE`);
    ``shed_min_samples`` observations warm the service-time tracker
    before any shedding happens.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    adaptive: bool = True
    shed_min_samples: int = 20
    batch_window: float = 0.002
    batch_max: int = 32
    idle_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")
        if self.shed_min_samples < 1:
            raise ValueError(
                f"shed_min_samples must be positive, got {self.shed_min_samples}"
            )
        if self.batch_window < 0:
            raise ValueError(f"batch_window cannot be negative, got {self.batch_window}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be positive, got {self.batch_max}")


@dataclass
class _Pending:
    """One accepted search request waiting for (or in) a sweep.

    ``deadline`` is the request's end-to-end budget, anchored at
    receipt (``deadline_ms`` re-anchors on the server clock — wall
    clocks are not shared, remaining budgets are).
    """

    request_id: int
    query: str
    options: QueryOptions
    writer: asyncio.StreamWriter
    received: float
    deadline: Deadline | None = None
    done: bool = False
    trace_id: str | None = None
    parent_span: str | None = None


class TcpSearchServer:
    """Asyncio TCP server speaking the versioned frame protocol.

    Parameters
    ----------
    engine:
        The resident :class:`SearchEngine` all connections share.
    config:
        Network/batching/backpressure knobs (:class:`ServerConfig`).
    defaults:
        Per-server default :class:`~repro.service.QueryOptions`, the
        base each request's ``options`` mapping overrides.
    obs:
        Observability bundle; defaults to the engine's.  A live bundle
        gains connection/in-flight gauges, frame counters and a
        ``net.batch`` span (with ``net.recv``/``net.send`` children)
        enveloping every batched ``engine.search`` span.
    """

    def __init__(
        self,
        engine: SearchEngine,
        config: ServerConfig | None = None,
        defaults: QueryOptions | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        self.defaults = defaults if defaults is not None else QueryOptions()
        self.obs = obs if obs is not None else engine.obs
        self.host = self.config.host
        self.port = self.config.port
        self.served = 0
        self._inflight = 0
        self._connections = 0
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Pending] | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._drained: asyncio.Event | None = None
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-dispatch"
        )
        # Adaptive admission: the limiter starts at the ceiling, so a
        # fault-free run is indistinguishable from the static bound.
        self.limiter: AdaptiveLimiter | None = (
            AdaptiveLimiter(
                initial=self.config.max_inflight, max_limit=self.config.max_inflight
            )
            if self.config.adaptive
            else None
        )
        self.service_times = ServiceTimeTracker(
            min_samples=self.config.shed_min_samples
        )
        registry = self.obs.registry
        self._g_connections = registry.gauge(
            "net_connections", "Open TCP connections"
        )
        self._g_inflight = registry.gauge(
            "net_inflight", "Search requests accepted and not yet answered"
        )
        self._m_frames_in = registry.counter(
            "net_frames_read_total", "Protocol frames read from clients"
        )
        self._m_frames_out = registry.counter(
            "net_frames_written_total", "Protocol frames written to clients"
        )
        self._m_requests = registry.counter(
            "net_requests_total", "Search requests accepted over TCP"
        )
        self._m_rejected = registry.counter(
            "net_rejected_total", "Search requests rejected by backpressure"
        )
        self._m_errors = registry.counter(
            "net_errors_total", "Error frames sent to clients"
        )
        self._m_batches = registry.counter(
            "net_batches_total", "Micro-batches dispatched to the engine"
        )
        self._m_batched = registry.counter(
            "net_batched_requests_total", "Search requests carried by micro-batches"
        )
        self._h_request = registry.histogram(
            "net_request_seconds", "Accept-to-response latency over TCP"
        )
        self._g_limit = registry.gauge(
            "net_admission_limit", "Current adaptive in-flight admission limit"
        )
        self._g_limit.set(self._admission_limit())
        self._m_shed = registry.counter(
            "net_shed_total",
            "Requests shed at admission (budget below observed p90 service time)",
        )
        self._m_limit_cuts = registry.counter(
            "net_limit_cuts_total",
            "Multiplicative cuts applied to the adaptive admission limit",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, start accepting connections, start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self.obs.log.info("net.listening", host=self.host, port=self.port)

    async def stop(self) -> None:
        """Graceful drain: no new work, finish in-flight, then close.

        New connections are refused and new search frames answered
        with ``overloaded`` the moment draining starts; requests
        already accepted run to completion (bounded by
        :data:`DRAIN_TIMEOUT`) and their responses are flushed before
        their connections close.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drained is not None:
            if self._inflight == 0:
                self._drained.set()
            try:
                await asyncio.wait_for(self._drained.wait(), DRAIN_TIMEOUT)
            except (asyncio.TimeoutError, TimeoutError):
                self.obs.log.warning(
                    "net.drain-timeout", inflight=self._inflight
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for writer in list(self._writers):
            writer.close()
        self._exec.shutdown(wait=True)
        if self.engine.pool is not None:
            self.engine.pool.close()  # reap the last sweep's workers
        self.obs.log.info("net.stopped", served=self.served)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        self._connections += 1
        self._g_connections.set(self._connections)
        self._writers.add(writer)
        peer = writer.get_extra_info("peername")
        self.obs.log.debug("net.connect", peer=str(peer))
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                try:
                    await self._handle_frame(frame, writer)
                except Exception as exc:  # noqa: BLE001 - keep the connection alive
                    request_id = frame.get("id") if isinstance(frame, dict) else None
                    rid = request_id if isinstance(request_id, int) else None
                    await self._send(
                        writer,
                        protocol.error_frame(rid, *protocol.classify_exception(exc)),
                    )
                    self._m_errors.inc()
        except protocol.ProtocolError as exc:
            # The byte stream itself is broken (bad length prefix,
            # oversized frame, garbage JSON): answer once, then close —
            # there is no trustworthy way to resynchronize.
            try:
                await self._send(
                    writer, protocol.error_frame(None, exc.code, str(exc))
                )
                self._m_errors.inc()
            except (ConnectionError, RuntimeError):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._writers.discard(writer)
            self._connections -= 1
            self._g_connections.set(self._connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            self.obs.log.debug("net.disconnect", peer=str(peer))

    async def _read_frame(self, reader: asyncio.StreamReader) -> dict | None:
        """Read one frame; ``None`` on clean EOF; idle timeout closes."""
        try:
            header = await self._maybe_idle(reader.readexactly(protocol.HEADER.size))
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise protocol.ProtocolError(
                f"connection closed mid-header ({len(exc.partial)} bytes)"
            ) from None
        except (asyncio.TimeoutError, TimeoutError):
            self.obs.log.debug("net.idle-close")
            return None
        length = protocol.frame_length(header)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise protocol.ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)} of {length} bytes)"
            ) from None
        self._m_frames_in.inc()
        return protocol.decode_frame(body)

    def _maybe_idle(self, coro):
        if self.config.idle_timeout is None:
            return coro
        return asyncio.wait_for(coro, self.config.idle_timeout)

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(protocol.encode_frame(frame))
        await writer.drain()
        self._m_frames_out.inc()

    async def _handle_frame(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        ftype = frame.get("type")
        if ftype == "hello":
            protocol.negotiate(frame)
            await self._send(writer, protocol.hello_reply())
            return
        request = protocol.parse_request(frame)
        if request.verb == "ping":
            await self._send(
                writer,
                protocol.result_frame(request.request_id, {"pong": True}),
            )
            return
        if request.verb == "health":
            await self._send(
                writer,
                protocol.result_frame(request.request_id, self._health_payload()),
            )
            return
        if request.verb == "reload":
            # Index loading is blocking file IO: run it off the event
            # loop.  Traffic keeps flowing on the old generation until
            # the fully-loaded new one swaps in.
            assert self._loop is not None
            generation = await self._loop.run_in_executor(
                None, self.engine.reload_index
            )
            await self._send(
                writer,
                protocol.result_frame(request.request_id, {"generation": generation}),
            )
            return
        if request.verb == "ingest":
            ingest = self.engine.ingest
            if ingest is None:
                raise BadRequest(
                    "ingest is not enabled on this server "
                    "(start it with an ingest directory)"
                )
            # The WAL append fsyncs before acknowledging — blocking
            # file IO, so run it off the event loop like ``reload``.
            # A full/failing disk surfaces as an error frame
            # (code ``read-only``) while searches keep serving the
            # live generation.
            assert self._loop is not None
            record = request.record or {}
            ack = await self._loop.run_in_executor(
                None, ingest.ingest, record["name"], record["sequence"]
            )
            await self._send(
                writer,
                protocol.result_frame(request.request_id, {"ingest": ack}),
            )
            return
        if request.verb in ("stats", "metrics", "trace"):
            payload = self._admin_payload(request.verb, request.arg)
            await self._send(
                writer, protocol.result_frame(request.request_id, payload)
            )
            return
        # verb == "search".  Options the caller got wrong are refused
        # before admission: a bad request takes no slot, batch or
        # dispatch hop, and is never mistaken for overload.
        options = protocol.options_from_wire(request.options, self.defaults).validate()
        if self._draining:
            raise Overloaded("server is draining; retry against another instance")
        limit = self._admission_limit()
        if self._inflight >= limit:
            self._m_rejected.inc()
            raise Overloaded(
                f"{self._inflight} requests in flight (limit {limit}); retry later"
            )
        deadline = None
        if options.deadline_ms is not None:
            # Re-anchor the budget on the server's monotonic clock; a
            # budget that is already gone is rejected at admission —
            # sweeping for a caller that stopped waiting wastes the
            # whole board.
            deadline = Deadline.after_ms(options.deadline_ms)
            if deadline.expired:
                raise DeadlineExceeded(
                    f"deadline_ms={options.deadline_ms} already expired at admission"
                )
            # A shed at admission never feeds the limiter — the
            # request did no work, so it is evidence of the *client's*
            # budget, not of this server slowing down.  Two deliberate
            # choices keep the mechanism stable: the refusal is
            # ``Overloaded`` (the SDK backs off and retries it, so
            # shedding cannot trigger a retry storm the way an instant
            # terminal error would), and an *idle* server always admits
            # (the sweep refreshes the service-time estimate, so a
            # stale, pessimistic p90 can never latch the server into
            # refusing everything).
            if self._inflight > 0:
                reason = self._shed_reason(deadline)
                if reason is not None:
                    raise Overloaded(f"{reason}; shed at admission")
        assert self._queue is not None and self._loop is not None
        self._inflight += 1
        self._g_inflight.set(self._inflight)
        self._m_requests.inc()
        await self._queue.put(
            _Pending(
                request_id=request.request_id,
                query=request.query,
                options=options,
                writer=writer,
                received=self._loop.time(),
                deadline=deadline,
                trace_id=request.trace_id,
                parent_span=request.parent_span,
            )
        )

    def _admission_limit(self) -> int:
        """The in-flight bound this instant (adaptive or static)."""
        if self.limiter is not None:
            return self.limiter.limit
        return self.config.max_inflight

    def _shed_reason(self, deadline: Deadline) -> str | None:
        """Why ``deadline`` cannot cover a sweep, or ``None`` if it can.

        The one deadline-aware shedding rule, applied at admission and
        again at dispatch: under adaptive admission, once the tracker
        has warmed up, a remaining budget below the observed
        :data:`SHED_PERCENTILE` sweep time is shed (and counted).
        """
        if self.limiter is None:
            return None
        p90 = self.service_times.percentile(SHED_PERCENTILE)
        remaining = deadline.remaining()
        if p90 is None or remaining >= p90:
            return None
        self._m_shed.inc()
        return (
            f"remaining budget {remaining * 1e3:.1f}ms cannot cover the observed "
            f"p{round(SHED_PERCENTILE * 100)} sweep time {p90 * 1e3:.1f}ms"
        )

    def _observe_outcome(self, frame: dict) -> None:
        """Feed one settled request into the limiter.

        Only genuine latency failures — an expired end-to-end budget on
        *accepted* work, or a ``timeout`` the engine raised — drive the
        multiplicative decrease; everything else (including non-latency
        errors like ``bad-request``) is an on-time completion.  Service
        times are observed separately in :meth:`_process_group`, sweep
        only, so the shedding estimate never inflates with queue wait.
        """
        code = frame.get("code") if frame.get("type") == "error" else None
        missed = code in (RequestTimeout.code, DeadlineExceeded.code)
        if self.limiter is None:
            return
        if missed:
            if self.limiter.on_overload():
                self._m_limit_cuts.inc()
                self.obs.log.warning(
                    "net.limit-cut", limit=self.limiter.limit, code=code
                )
        else:
            self.limiter.on_success()
        self._g_limit.set(self.limiter.limit)

    def _health_payload(self) -> dict:
        """The ``health`` verb: engine readiness plus this front-end's state."""
        health = dict(self.engine.health())
        health["draining"] = self._draining
        health["connections"] = self._connections
        health["inflight"] = self._inflight
        health["limit"] = self._admission_limit()
        health["adaptive"] = self.limiter is not None
        health["served"] = self.served
        return {"health": health}

    def _admin_payload(self, verb: str, arg: str | None) -> dict:
        if verb == "stats":
            stats = {str(k): str(v) for k, v in self.engine.describe().items()}
            stats["net connections"] = str(self._connections)
            stats["net inflight"] = str(self._inflight)
            stats["net limit"] = str(self._admission_limit())
            if self.limiter is not None:
                described = self.limiter.describe()
                stats["net limit cuts"] = str(described["cuts"])
                stats["net deadline misses"] = str(described["misses"])
            stats["net served"] = str(self.served)
            return {"stats": stats}
        if verb == "metrics":
            return {"text": self.obs.registry.render_prometheus()}
        tracer = self.obs.tracer
        if not tracer.enabled:
            return {"text": "# tracing disabled (engine has no live tracer)"}
        if arg:
            span = tracer.get(arg)
            if span is None:
                raise ValueError(f"unknown trace id {arg!r} (see 'trace' for the ring)")
            # ``tree`` is the structured form a coordinator stitches
            # with; ``text`` stays for humans and old clients.
            return {"text": span.render(), "tree": span.to_payload()}
        recent = tracer.recent
        if not recent:
            return {"text": "# no traces recorded"}
        return {
            "text": "\n".join(
                f"{span.trace_id} {span.name} {span.duration * 1e3:.3f}ms "
                f"spans={sum(1 for _ in span.walk())}"
                for span in reversed(recent)
            )
        }

    # ------------------------------------------------------------------
    # Dispatch: micro-batching across connections
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            batch = [await self._queue.get()]
            if self.config.batch_window > 0:
                await self._fill_batch(batch)
            self._m_batches.inc()
            self._m_batched.inc(len(batch))
            # Requests whose budget ran out while queued are answered
            # now, not swept: the caller has already given up.  Under
            # adaptive admission the same check is *predictive* — a
            # budget still nominally alive but smaller than the
            # observed p90 sweep time would burn a full board pass and
            # miss anyway, so it is answered here too.  Dropping doomed
            # work at dispatch is where deadline-awareness pays: the
            # queue wait is already known exactly, unlike at admission.
            live: list[_Pending] = []
            for item in batch:
                doomed = None
                if item.deadline is not None:
                    if item.deadline.expired:
                        doomed = "deadline expired while queued for dispatch"
                    else:
                        reason = self._shed_reason(item.deadline)
                        if reason is not None:
                            doomed = f"{reason}; dropped before sweep"
                if doomed is not None:
                    await self._deliver(
                        [item],
                        [
                            protocol.error_frame(
                                item.request_id, DeadlineExceeded.code, doomed
                            )
                        ],
                    )
                else:
                    live.append(item)
            # Group by options (a sweep shares one parameter set) and by
            # remote trace context: traced requests come one-per-search
            # from a coordinator, and keeping contexts separate means
            # each adopted ``net.batch`` span lands in the ring under
            # exactly one caller's trace id.  Untraced requests
            # (trace_id None) still coalesce freely.
            groups: dict[tuple[QueryOptions, str | None], list[_Pending]] = {}
            for item in live:
                groups.setdefault((item.options, item.trace_id), []).append(item)
            for (options, _trace_id), items in groups.items():
                await self._loop.run_in_executor(
                    self._exec, self._process_group, options, items
                )

    async def _fill_batch(self, batch: list[_Pending]) -> None:
        """Add queued requests to ``batch`` until its window closes.

        The window is ``batch_window`` seconds from the first request,
        but it closes early once every open connection has a request in
        the batch: a lockstep client sends nothing more until it is
        answered, so waiting longer only adds latency.  What has already
        arrived still joins: the loop yields until a yield brings no new
        request, so a pipelined burst coalesces before the sweep.
        """
        assert self._queue is not None and self._loop is not None
        deadline = self._loop.time() + self.config.batch_window
        senders = {item.writer for item in batch}
        while len(batch) < self.config.batch_max:
            if len(senders) >= self._connections:
                await self._take_arrived(batch)
                return
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                return
            try:
                item = await asyncio.wait_for(self._queue.get(), remaining)
            except (asyncio.TimeoutError, TimeoutError):
                return
            batch.append(item)
            senders.add(item.writer)

    async def _take_arrived(self, batch: list[_Pending]) -> None:
        """Move requests already on their way into ``batch``, then stop.

        Bytes in a socket reach the queue in three loop iterations: the
        selector schedules the transport's read, the read wakes the
        connection's reader task, and that task queues the frame.  So
        each round yields three times, and the batch closes after a
        round that brings nothing.
        """
        assert self._queue is not None
        while len(batch) < self.config.batch_max:
            for _ in range(3):
                await asyncio.sleep(0)
            if self._queue.empty():
                return
            while not self._queue.empty() and len(batch) < self.config.batch_max:
                batch.append(self._queue.get_nowait())

    def _process_group(self, options: QueryOptions, items: list[_Pending]) -> None:
        """Sweep one options-group of a batch (runs on the dispatch thread).

        The ``net.batch`` span envelopes the engine's own
        ``engine.search`` span; ``net.recv`` records how long the
        oldest request waited between socket and sweep, ``net.send``
        the time to flush every response frame back out.  A group that
        arrived with a remote trace context *adopts* it: the whole
        subtree lands in this server's ring under the coordinator's
        trace id, where ``trace <id>`` can fetch it for stitching.
        """
        assert self._loop is not None
        tracer = self.obs.tracer
        with tracer.adopt(
            "net.batch",
            trace_id=items[0].trace_id,
            parent_span=items[0].parent_span,
            requests=len(items),
            top=options.top,
        ):
            now = self._loop.time()
            oldest = max((now - item.received for item in items), default=0.0)
            tracer.add_span("net.recv", seconds=oldest, requests=len(items))
            # Members of one group share a deadline_ms budget but were
            # anchored at their own receipt instants; the group sweeps
            # under the tightest one so no member overruns its budget.
            deadline = None
            anchored = [item.deadline for item in items if item.deadline is not None]
            if anchored:
                deadline = min(anchored, key=lambda d: d.expires_at)
            try:
                t_sweep = time.monotonic()
                responses = self.engine.search_batch(
                    [item.query for item in items], options, deadline=deadline
                )
                # Service time is the sweep alone, not queue + sweep:
                # shedding asks "can this budget cover the work once it
                # reaches the front", and a queue-inflated estimate
                # latches into rejecting everything under overload.
                self.service_times.observe(time.monotonic() - t_sweep)
                frames = [
                    protocol.response_frame(item.request_id, response)
                    for item, response in zip(items, responses)
                ]
            except Exception as exc:  # noqa: BLE001 - answer, never die
                code, message = protocol.classify_exception(exc)
                frames = [
                    protocol.error_frame(item.request_id, code, message)
                    for item in items
                ]
                self.obs.log.warning("net.batch-failed", code=code, error=message)
            t_send = time.monotonic()
            asyncio.run_coroutine_threadsafe(
                self._deliver(items, frames), self._loop
            ).result()
            tracer.add_span(
                "net.send", seconds=time.monotonic() - t_send, frames=len(frames)
            )

    async def _deliver(self, items: list[_Pending], frames: list[dict]) -> None:
        """Write one frame per pending item; settles in-flight accounting."""
        assert self._loop is not None
        for item, frame in zip(items, frames):
            if item.done:
                continue
            item.done = True
            # Count before the write: once the frame is on the wire the
            # client may act on it, and a failed write is ignored anyway.
            if frame.get("type") == "error":
                self._m_errors.inc()
            else:
                self.served += 1
            try:
                await self._send(item.writer, frame)
            except (ConnectionError, RuntimeError):
                pass  # client went away; the answer dies with it
            self._h_request.observe(self._loop.time() - item.received)
            self._observe_outcome(frame)
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
        if self._draining and self._inflight == 0 and self._drained is not None:
            self._drained.set()


class ServerThread:
    """Run a :class:`TcpSearchServer` on a background event loop.

    The one server lifecycle: ``with ServerThread(engine) as handle:``
    (or :meth:`start` / :meth:`stop`) gives a bound ``handle.host`` /
    ``handle.port`` and a server that drains cleanly on exit.  It
    installs no signal handlers; a serving command waits for its stop
    signal on the main thread and then calls :meth:`stop`.
    """

    def __init__(
        self,
        engine: SearchEngine,
        config: ServerConfig | None = None,
        defaults: QueryOptions | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.server = TcpSearchServer(engine, config=config, defaults=defaults, obs=obs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - surface to starter
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            self._loop.run_forever()
            self._loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
            try:
                future.result(timeout=DRAIN_TIMEOUT + 10)
            except (TimeoutError, RuntimeError):  # pragma: no cover - defensive
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
