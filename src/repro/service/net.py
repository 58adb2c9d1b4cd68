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
  without bound;
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
  ``batch_window`` seconds are coalesced (grouped by identical
  :class:`~repro.service.QueryOptions`) into one
  :meth:`SearchEngine.search_batch` sweep, so concurrent clients share
  a single pass over the index exactly as SWAPHI keeps many queries
  resident against one database;
* **idle / request timeouts** — a silent connection is closed after
  ``idle_timeout``; a request exceeding ``request_timeout`` answers
  with a ``timeout`` error frame;
* **graceful drain** — :meth:`stop` refuses new work (``overloaded``
  frames), lets in-flight requests finish and flushes their responses
  before closing connections.

The engine runs on a single dispatch thread (one
:class:`~concurrent.futures.ThreadPoolExecutor` worker), which both
keeps the asyncio loop responsive during sweeps and serializes access
to the engine.

All bytes on the wire are produced and consumed by
:mod:`repro.service.protocol`; nothing here encodes frames by hand.
"""

from __future__ import annotations

import asyncio
import signal
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


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one :class:`TcpSearchServer`.

    ``batch_window`` is the micro-batching horizon: once a search
    request arrives, the dispatcher waits up to this many seconds for
    more requests (up to ``batch_max``) before sweeping them together;
    ``0.0`` disables coalescing entirely — every request becomes its
    own sweep, which is the configuration the throughput benchmark
    compares against.

    ``adaptive`` turns ``max_inflight`` from a static bound into the
    *ceiling* of an AIMD limiter that shrinks toward ``min_inflight``
    when requests miss their deadlines.  ``shed_percentile`` /
    ``shed_min_samples`` tune deadline-aware admission shedding
    (``shed_min_samples`` observations warm the tracker before any
    shedding happens).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    adaptive: bool = True
    min_inflight: int = 1
    shed_percentile: float = 0.9
    shed_min_samples: int = 20
    batch_window: float = 0.002
    batch_max: int = 32
    idle_timeout: float | None = None
    request_timeout: float | None = None
    drain_timeout: float = 10.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")
        if not 1 <= self.min_inflight <= self.max_inflight:
            raise ValueError(
                f"min_inflight must be in [1, max_inflight], got {self.min_inflight}"
            )
        if not 0.0 < self.shed_percentile < 1.0:
            raise ValueError(
                f"shed_percentile must be in (0, 1), got {self.shed_percentile}"
            )
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
        self._conn_versions: dict[asyncio.StreamWriter, int] = {}
        self._drained: asyncio.Event | None = None
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-dispatch"
        )
        # Adaptive admission: the limiter starts at the ceiling, so a
        # fault-free run is indistinguishable from the static bound.
        self.limiter: AdaptiveLimiter | None = (
            AdaptiveLimiter(
                initial=self.config.max_inflight,
                min_limit=self.config.min_inflight,
                max_limit=self.config.max_inflight,
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
        ``drain_timeout``) and their responses are flushed before
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
                await asyncio.wait_for(
                    self._drained.wait(), self.config.drain_timeout
                )
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
        self.obs.log.info("net.stopped", served=self.served)

    def run_blocking(self, ready=None, reload_signal: int | None = None) -> None:
        """Start and serve until SIGINT/SIGTERM; then drain gracefully.

        Explicit loop signal handlers (not Python's default
        KeyboardInterrupt) so that graceful drain also runs when the
        process was started with an inherited SIG_IGN disposition —
        the fate of every ``cmd &`` child of a non-interactive shell,
        CI steps included — and when a supervisor sends SIGTERM.

        ``ready`` (if given) is called with this server once the port
        is bound — the CLI uses it to announce the address.

        ``reload_signal`` (e.g. ``signal.SIGHUP``) arms hot index
        reload: on that signal the engine's index loader runs off the
        event loop and the fresh generation swaps in under live
        traffic.  A failed reload is logged and the old generation
        keeps serving.
        """

        async def _main() -> None:
            await self.start()
            if ready is not None:
                ready(self)
            loop = asyncio.get_running_loop()
            stopping = loop.create_future()

            def _request_stop() -> None:
                if not stopping.done():
                    stopping.set_result(None)

            def _reload_done(future) -> None:
                exc = future.exception()
                if exc is not None:
                    self.obs.log.error("net.reload-failed", error=str(exc))

            def _request_reload() -> None:
                future = loop.run_in_executor(None, self.engine.reload_index)
                future.add_done_callback(_reload_done)

            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, _request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-unix loop: fall back to KeyboardInterrupt
            if reload_signal is not None:
                try:
                    loop.add_signal_handler(reload_signal, _request_reload)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            try:
                await stopping
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
            pass

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
                        protocol.error_frame(
                            rid,
                            *protocol.classify_exception(exc),
                            version=self._version_for(writer),
                        ),
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
            self._conn_versions.pop(writer, None)
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
        length = protocol.frame_length(header, self.config.max_frame_bytes)
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

    def _version_for(self, writer: asyncio.StreamWriter) -> int:
        """The protocol version negotiated (or implied) on this connection."""
        return self._conn_versions.get(writer, protocol.PROTOCOL_VERSION)

    async def _handle_frame(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        ftype = frame.get("type")
        if ftype == "hello":
            version = protocol.negotiate(frame)
            self._conn_versions[writer] = version
            await self._send(writer, protocol.hello_reply(version))
            return
        request = protocol.parse_request(frame)
        if writer not in self._conn_versions and frame.get("v") in (
            protocol.SUPPORTED_VERSIONS
        ):
            # A hello-less client implicitly claims the version in "v";
            # reply frames honour it for the rest of the connection.
            self._conn_versions[writer] = frame["v"]
        version = self._version_for(writer)
        if request.verb == "ping":
            await self._send(
                writer,
                protocol.result_frame(request.request_id, {"pong": True}, version),
            )
            return
        if request.verb == "health":
            await self._send(
                writer,
                protocol.result_frame(
                    request.request_id, self._health_payload(), version
                ),
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
                protocol.result_frame(
                    request.request_id, {"generation": generation}, version
                ),
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
                protocol.result_frame(request.request_id, {"ingest": ack}, version),
            )
            return
        if request.verb in ("stats", "metrics", "trace"):
            payload = self._admin_payload(request.verb, request.arg)
            await self._send(
                writer, protocol.result_frame(request.request_id, payload, version)
            )
            return
        # verb == "search"
        if self._draining:
            raise Overloaded("server is draining; retry against another instance")
        limit = self._admission_limit()
        if self._inflight >= limit:
            self._m_rejected.inc()
            raise Overloaded(
                f"{self._inflight} requests in flight (limit {limit}); retry later"
            )
        options = protocol.options_from_wire(request.options, self.defaults)
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
            # Deadline-aware shedding: once warmed up, refuse a budget
            # the observed p90 says we cannot honour.  A shed at
            # admission never feeds the limiter — the request did no
            # work, so it is evidence of the *client's* budget, not of
            # this server slowing down.  Two deliberate choices keep
            # the mechanism stable: the refusal is ``Overloaded`` (the
            # SDK backs off and retries it, so shedding cannot trigger
            # a retry storm the way an instant terminal error would),
            # and an *idle* server always admits (the sweep refreshes
            # the service-time estimate, so a stale, pessimistic p90
            # can never latch the server into refusing everything).
            if self.config.adaptive and self._inflight > 0:
                p90 = self.service_times.percentile(self.config.shed_percentile)
                remaining = deadline.remaining()
                if p90 is not None and remaining < p90:
                    self._m_shed.inc()
                    raise Overloaded(
                        f"remaining budget {remaining * 1e3:.1f}ms is below "
                        f"the observed p{int(self.config.shed_percentile * 100)} "
                        f"service time {p90 * 1e3:.1f}ms; shed at admission"
                    )
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

    def _observe_outcome(self, frame: dict, seconds: float) -> None:
        """Feed one settled request into the limiter.

        Only genuine latency failures — the server's own timeout or an
        expired end-to-end budget on *accepted* work — drive the
        multiplicative decrease; everything else (including non-latency
        errors like ``bad-request``) is an on-time completion.  Service
        times are observed separately in :meth:`_process_group`, sweep
        only, so the shedding estimate never inflates with queue wait.
        """
        del seconds  # accept-to-response; the histogram already has it
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
            window = self.config.batch_window
            if window > 0:
                deadline = self._loop.time() + window
                while len(batch) < self.config.batch_max:
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except (asyncio.TimeoutError, TimeoutError):
                        break
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
            p90 = (
                self.service_times.percentile(self.config.shed_percentile)
                if self.config.adaptive
                else None
            )
            live: list[_Pending] = []
            for item in batch:
                doomed = None
                if item.deadline is not None:
                    if item.deadline.expired:
                        doomed = "deadline expired while queued for dispatch"
                    elif p90 is not None and item.deadline.remaining() < p90:
                        self._m_shed.inc()
                        doomed = (
                            f"remaining budget "
                            f"{item.deadline.remaining() * 1e3:.1f}ms cannot "
                            f"cover the observed "
                            f"p{int(self.config.shed_percentile * 100)} sweep "
                            f"time {p90 * 1e3:.1f}ms; dropped before sweep"
                        )
                if doomed is not None:
                    await self._deliver(
                        [item],
                        [
                            protocol.error_frame(
                                item.request_id,
                                DeadlineExceeded.code,
                                doomed,
                                version=self._version_for(item.writer),
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
                future = self._loop.run_in_executor(
                    self._exec, self._process_group, options, items
                )
                if self.config.request_timeout is not None:
                    try:
                        await asyncio.wait_for(future, self.config.request_timeout)
                    except (asyncio.TimeoutError, TimeoutError):
                        # The sweep thread keeps running; answer now and
                        # let the done-guard drop its late responses.
                        frames = [
                            protocol.error_frame(
                                item.request_id,
                                "timeout",
                                f"request exceeded {self.config.request_timeout:.3g}s",
                            )
                            for item in items
                        ]
                        await self._deliver(items, frames)
                else:
                    await future

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
                    protocol.response_frame(
                        item.request_id, response, self._version_for(item.writer)
                    )
                    for item, response in zip(items, responses)
                ]
            except Exception as exc:  # noqa: BLE001 - answer, never die
                code, message = protocol.classify_exception(exc)
                frames = [
                    protocol.error_frame(
                        item.request_id,
                        code,
                        message,
                        version=self._version_for(item.writer),
                    )
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
            elapsed = self._loop.time() - item.received
            self._h_request.observe(elapsed)
            self._observe_outcome(frame, elapsed)
            self._inflight -= 1
            self._g_inflight.set(self._inflight)
        if self._draining and self._inflight == 0 and self._drained is not None:
            self._drained.set()


class ServerThread:
    """Run a :class:`TcpSearchServer` on a background event loop.

    The embedding tests and benchmarks need: ``with
    ServerThread(engine) as handle:`` gives a bound ``handle.host`` /
    ``handle.port`` and a server that drains cleanly on exit.
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
                future.result(timeout=self.server.config.drain_timeout + 10)
            except (TimeoutError, RuntimeError):  # pragma: no cover - defensive
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
