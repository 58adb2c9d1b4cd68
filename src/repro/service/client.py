"""Client SDK for the networked search service.

Two call styles over the same wire protocol
(:mod:`repro.service.protocol`):

* :class:`SearchClient` — synchronous, blocking sockets, a small
  connection pool, and :class:`~repro.service.resilience.RetryPolicy`
  -driven retries on transient failures (connection loss, protocol
  breakage, ``overloaded`` rejections).  ``search()`` returns the very
  same :class:`~repro.service.engine.SearchResponse` shape the
  in-process engine yields — rankings, coverage, degraded-shard set,
  per-request metrics — so code written against
  ``SearchEngine.search`` ports by swapping the object.
* :class:`AsyncSearchClient` — asyncio, one connection, unlimited
  pipelining: every request gets an id, a background reader task
  resolves the matching future as response frames arrive (in any
  order).

Error frames are raised as their taxonomy classes
(:func:`~repro.service.protocol.error_for_code`): a remote
``bad-request`` raises :class:`~repro.service.resilience.BadRequest`,
which is also a ``ValueError`` — the same exception contract the
in-process engine has.  Taxonomy errors are *answers*, not transport
failures, so they are never retried (except ``overloaded``, which is
the server explicitly saying "retry later").
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Callable, Iterable, Mapping, Sequence

from ..obs import NULL_OBS, Observability
from . import QueryOptions, resolve_query_options
from .engine import SearchResponse
from .guard import CircuitBreaker
from .resilience import Overloaded, RetryPolicy, ServiceError
from . import protocol

__all__ = ["SearchClient", "AsyncSearchClient"]

#: Errors worth reconnect-and-retry: the transport broke, not the request.
_TRANSPORT_ERRORS = (ConnectionError, OSError, EOFError, protocol.ProtocolError)


def _split_address(host: str, port: int | None) -> tuple[str, int]:
    """Accept ``("host", port)`` or a single ``"host:port"`` string."""
    if port is not None:
        return host, port
    head, sep, tail = host.rpartition(":")
    if not sep:
        raise ValueError(f"address {host!r} needs a port (host:port)")
    try:
        return head, int(tail)
    except ValueError:
        raise ValueError(f"address {host!r} has a non-integer port") from None


class _Connection:
    """One blocking socket that has completed the hello handshake."""

    def __init__(self, host: str, port: int, timeout: float | None) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        try:
            self.send(protocol.hello_frame())
            protocol.check_hello_reply(self.recv())
        except BaseException:
            self.close()
            raise

    def send(self, *frames: dict) -> None:
        # One write for many frames: split into small writes, a burst
        # would be held back by Nagle until the server acknowledged the
        # first frame, which it does with that frame's answer.
        self.sock.sendall(b"".join(protocol.encode_frame(frame) for frame in frames))

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise EOFError(f"server closed the connection ({n - remaining} of {n} bytes)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> dict:
        header = self._read_exact(protocol.HEADER.size)
        return protocol.decode_frame(self._read_exact(protocol.frame_length(header)))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class SearchClient:
    """Synchronous client with connection pooling and retries.

    Parameters
    ----------
    host, port:
        Server address; ``SearchClient("127.0.0.1:9876")`` also works.
    defaults:
        Client-side default :class:`~repro.service.QueryOptions`
        applied when ``search()`` is called without options.
    retry:
        :class:`~repro.service.resilience.RetryPolicy` for transient
        failures; defaults to ``RetryPolicy(retries=2)``.  Taxonomy
        errors other than ``overloaded`` are answers and never retried.
    pool_size:
        Connections kept open between calls (grown on demand, excess
        closed on release).
    timeout:
        Socket timeout per blocking operation, seconds.
    breaker:
        Optional :class:`~repro.service.guard.CircuitBreaker`.  Every
        network attempt asks the breaker for admission first: an open
        circuit raises :class:`~repro.service.guard.CircuitOpen`
        without touching the socket.  Failures are recorded per the
        taxonomy (``bad-request`` answers are *successes* for breaker
        purposes — they say nothing about endpoint health).
    obs:
        Observability bundle; adopted by the breaker when the breaker
        has no live bundle of its own.
    connection_factory:
        Hook replacing ``_Connection`` — how the chaos harness splices
        fault-injecting sockets under a real client.  Must accept
        ``(host, port, timeout)`` and expose ``send``/``recv``/
        ``close``.
    """

    def __init__(
        self,
        host: str,
        port: int | None = None,
        defaults: QueryOptions | None = None,
        retry: RetryPolicy | None = None,
        pool_size: int = 2,
        timeout: float | None = 30.0,
        breaker: CircuitBreaker | None = None,
        obs: Observability | None = None,
        connection_factory: Callable[..., _Connection] | None = None,
    ) -> None:
        self.host, self.port = _split_address(host, port)
        self.defaults = defaults if defaults is not None else QueryOptions()
        self.retry = retry if retry is not None else RetryPolicy(retries=2)
        self.pool_size = pool_size
        self.timeout = timeout
        self.breaker = breaker
        self.obs = obs if obs is not None else NULL_OBS
        if breaker is not None and self.obs.enabled and not breaker.obs.enabled:
            breaker.bind_obs(self.obs)
        self._connect = (
            connection_factory if connection_factory is not None else _Connection
        )
        self._pool: list[_Connection] = []
        self._lock = threading.Lock()
        self._next_id = 0

    # -- connection pool ------------------------------------------------
    def _acquire(self) -> _Connection:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return self._connect(self.host, self.port, self.timeout)

    def _release(self, conn: _Connection) -> None:
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every pooled connection."""
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _request_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- request plumbing -----------------------------------------------
    def _roundtrip(self, frame: dict, token: str) -> dict:
        """Send one frame, read its reply; retry transport failures.

        A broken connection is discarded and a fresh one dialed on the
        next attempt; ``overloaded`` answers back off via the retry
        policy's deterministic jittered delays.  The breaker (when
        configured) gates every attempt and is fed every outcome.
        """
        last: BaseException | None = None
        for attempt in range(self.retry.retries + 1):
            if attempt:
                time.sleep(self.retry.delay(attempt - 1, token))
            if self.breaker is not None:
                self.breaker.allow()
            conn: _Connection | None = None
            try:
                conn = self._acquire()
                conn.send(frame)
                reply = conn.recv()
            except _TRANSPORT_ERRORS as exc:
                if conn is not None:
                    conn.close()
                if self.breaker is not None:
                    self.breaker.record_failure(exc)
                last = exc
                continue
            self._release(conn)
            if reply.get("type") == "error":
                error = protocol.error_for_code(
                    reply.get("code", "internal"), reply.get("message", "")
                )
                if self.breaker is not None:
                    self.breaker.record_failure(error)
                if isinstance(error, Overloaded) and attempt < self.retry.retries:
                    last = error
                    continue
                raise error
            if self.breaker is not None:
                self.breaker.record_success()
            return reply
        assert last is not None
        raise last

    # -- public API -----------------------------------------------------
    def search(
        self,
        query: str,
        options: QueryOptions | None = None,
        *,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> SearchResponse:
        """One remote search; same signature family as ``SearchEngine.search``.

        ``trace_id``/``parent_span`` propagate a distributed trace
        context so the server's span tree joins the caller's trace;
        when omitted, the context of the span currently open on this
        thread (if any) is injected automatically.
        """
        resolved = resolve_query_options(options, self.defaults)
        if trace_id is None:
            current = self.obs.tracer.current()
            if current is not None and current.trace_id:
                trace_id = current.trace_id
                parent_span = parent_span or current.name
        request_id = self._request_id()
        reply = self._roundtrip(
            protocol.search_request(
                request_id,
                query,
                resolved,
                trace_id=trace_id,
                parent_span=parent_span,
            ),
            token=f"search-{request_id}",
        )
        return self._parse_search_reply(reply, request_id)

    @staticmethod
    def _parse_search_reply(reply: dict, request_id: int) -> SearchResponse:
        if reply.get("id") != request_id:
            raise protocol.ProtocolError(
                f"response id {reply.get('id')!r} does not match request {request_id}"
            )
        return protocol.parse_response(reply)

    def search_pipelined(
        self,
        queries: Sequence[str],
        options: QueryOptions | None = None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> list[SearchResponse | ServiceError]:
        """Send every query on one connection before reading any reply.

        This is the batch-friendly path: all frames land inside the
        server's micro-batching window, so N queries cost one sweep.
        Returns one entry per query, in order — a
        :class:`SearchResponse`, or the taxonomy error that query
        earned (a failing query must not mask its neighbours'
        answers).  Transport failures raise after closing the
        connection; no retry, since partial batches are ambiguous.
        """
        resolved = resolve_query_options(options, self.defaults)
        ids = [self._request_id() for _ in queries]
        conn = self._acquire()
        try:
            conn.send(
                *(
                    protocol.search_request(
                        request_id,
                        query,
                        resolved,
                        trace_id=trace_id,
                        parent_span=parent_span,
                    )
                    for request_id, query in zip(ids, queries)
                )
            )
            by_id: dict[int, dict] = {}
            for _ in ids:
                reply = conn.recv()
                reply_id = reply.get("id")
                if not isinstance(reply_id, int) or reply_id not in set(ids):
                    raise protocol.ProtocolError(
                        f"unexpected response id {reply_id!r} in pipelined batch"
                    )
                by_id[reply_id] = reply
        except _TRANSPORT_ERRORS:
            conn.close()
            raise
        self._release(conn)
        results: list[SearchResponse | ServiceError] = []
        for request_id in ids:
            reply = by_id[request_id]
            if reply.get("type") == "error":
                results.append(
                    protocol.error_for_code(
                        reply.get("code", "internal"), reply.get("message", "")
                    )
                )
            else:
                results.append(protocol.parse_response(reply))
        return results

    def _admin(self, verb: str, arg: str | None = None) -> dict:
        request_id = self._request_id()
        reply = self._roundtrip(
            protocol.admin_request(request_id, verb, arg),
            token=f"{verb}-{request_id}",
        )
        if reply.get("type") != "result" or reply.get("id") != request_id:
            raise protocol.ProtocolError(
                f"expected a result frame for {verb!r}, got {reply.get('type')!r}"
            )
        payload = reply.get("payload")
        if not isinstance(payload, dict):
            raise protocol.ProtocolError(f"{verb!r} result payload must be an object")
        return payload

    def stats(self) -> Mapping[str, str]:
        """The server's engine/index/cache summary plus net gauges."""
        return self._admin("stats")["stats"]

    def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        return self._admin("metrics")["text"]

    def trace(self, trace_id: str | None = None) -> str:
        """List recent traces, or render one span tree by id."""
        return self._admin("trace", trace_id)["text"]

    def trace_tree(self, trace_id: str) -> dict | None:
        """One trace as a structured span-tree payload (None if absent).

        This is the stitching path: a coordinator fetches each node's
        half of a distributed trace by the shared id and grafts it
        under its own fan-out span.  Servers that predate the ``tree``
        payload (or no longer hold the id) yield ``None``.
        """
        try:
            payload = self._admin("trace", trace_id)
        except ServiceError:
            return None
        tree = payload.get("tree")
        return tree if isinstance(tree, dict) else None

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._admin("ping").get("pong"))

    def health(self) -> Mapping[str, object]:
        """The server's liveness/readiness snapshot."""
        return self._admin("health")["health"]

    def reload(self) -> int:
        """Ask the server to hot-reload its index; returns the new generation."""
        return int(self._admin("reload")["generation"])

    def ingest(self, name: str, sequence: str) -> Mapping[str, object]:
        """Stream one record into the server's write-ahead journal.

        The acknowledgement means the record is fsynced into the
        server's journal — durable across a crash — not yet that it is
        searchable; the server seals and publishes it within one
        segment rotation.  Transport retries make ingest at-least-once:
        a retried record may land twice in the database, never zero
        times once acked.  A full or failing server disk raises
        :class:`~repro.service.resilience.ServiceError` with code
        ``read-only``.
        """
        request_id = self._request_id()
        reply = self._roundtrip(
            protocol.ingest_request(request_id, name, sequence),
            token=f"ingest-{request_id}",
        )
        if reply.get("type") != "result" or reply.get("id") != request_id:
            raise protocol.ProtocolError(
                f"expected a result frame for ingest, got {reply.get('type')!r}"
            )
        payload = reply.get("payload")
        ack = payload.get("ingest") if isinstance(payload, dict) else None
        if not isinstance(ack, dict):
            raise protocol.ProtocolError("ingest result payload must be an object")
        return ack


class AsyncSearchClient:
    """Asyncio client: one connection, id-matched pipelining.

    Usage::

        client = await AsyncSearchClient.connect(host, port)
        try:
            responses = await asyncio.gather(
                *(client.search(q) for q in queries)
            )
        finally:
            await client.close()

    Every in-flight request owns a future keyed by its id; a reader
    task resolves futures as frames arrive, in whatever order the
    server answers.  Connection loss fails every pending future with
    the underlying error.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        defaults: QueryOptions | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.defaults = defaults if defaults is not None else QueryOptions()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int | None = None,
        defaults: QueryOptions | None = None,
    ) -> "AsyncSearchClient":
        host, port = _split_address(host, port)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(protocol.encode_frame(protocol.hello_frame()))
        await writer.drain()
        header = await reader.readexactly(protocol.HEADER.size)
        body = await reader.readexactly(protocol.frame_length(header))
        protocol.check_hello_reply(protocol.decode_frame(body))
        return cls(reader, writer, defaults=defaults)

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(protocol.HEADER.size)
                body = await self._reader.readexactly(protocol.frame_length(header))
                frame = protocol.decode_frame(body)
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (asyncio.IncompleteReadError, ConnectionError, protocol.ProtocolError) as exc:
            self._fail_pending(exc)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionError("client closed"))
            raise

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError(f"connection lost with request in flight: {exc}")
                )

    async def _roundtrip(self, frame: dict, request_id: int) -> dict:
        if self._closed:
            raise ConnectionError("client is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(protocol.encode_frame(frame))
        await self._writer.drain()
        reply = await future
        if reply.get("type") == "error":
            raise protocol.error_for_code(
                reply.get("code", "internal"), reply.get("message", "")
            )
        return reply

    async def search(
        self, query: str, options: QueryOptions | None = None
    ) -> SearchResponse:
        """One remote search; pipeline freely with ``asyncio.gather``."""
        resolved = resolve_query_options(options, self.defaults)
        self._next_id += 1
        request_id = self._next_id
        reply = await self._roundtrip(
            protocol.search_request(request_id, query, resolved),
            request_id,
        )
        return protocol.parse_response(reply)

    async def _admin(self, verb: str, arg: str | None = None) -> dict:
        self._next_id += 1
        request_id = self._next_id
        reply = await self._roundtrip(
            protocol.admin_request(request_id, verb, arg), request_id
        )
        payload = reply.get("payload")
        if not isinstance(payload, dict):
            raise protocol.ProtocolError(f"{verb!r} result payload must be an object")
        return payload

    async def stats(self) -> Mapping[str, str]:
        return (await self._admin("stats"))["stats"]

    async def ping(self) -> bool:
        return bool((await self._admin("ping")).get("pong"))

    async def health(self) -> Mapping[str, object]:
        return (await self._admin("health"))["health"]

    async def close(self) -> None:
        """Cancel the reader, fail any pending requests, close the socket."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
