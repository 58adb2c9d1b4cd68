"""Versioned, length-prefixed JSON frame protocol for networked search.

This module is the single owner of everything that crosses the wire
between :class:`~repro.service.net.TcpSearchServer` and
:class:`~repro.service.client.SearchClient` — both sides call the same
encode/decode functions, so the bytes are shared byte-for-byte by
construction.

Frame format
------------
A frame is a 4-byte big-endian unsigned length ``N`` followed by ``N``
bytes of UTF-8 JSON encoding one object::

    +----------+----------------------+
    | len: >I  |  JSON object (UTF-8) |
    +----------+----------------------+

``N`` is bounded by :data:`MAX_FRAME_BYTES` (8 MiB): a peer announcing
a larger frame is protocol-broken and the connection is closed rather
than buffered.  The length prefix makes the stream self-delimiting, so
many frames can be pipelined back-to-back on one connection.

Every frame object carries ``"v"`` (the protocol version) and
``"type"``.  Client → server types::

    {"v": 2, "type": "hello", "versions": [2]}
    {"v": 2, "type": "request", "id": 7, "verb": "search",
     "query": "ACGT...", "options": {"top": 10, "min_score": 1, "retrieve": 0}}
    {"v": 2, "type": "request", "id": 8, "verb": "stats"}      # also:
    {"v": 2, "type": "request", "id": 9, "verb": "metrics"}    # Prometheus text
    {"v": 2, "type": "request", "id": 10, "verb": "trace", "arg": "t000002"}
    {"v": 2, "type": "request", "id": 11, "verb": "ping"}
    {"v": 2, "type": "request", "id": 12, "verb": "health"}
    {"v": 2, "type": "request", "id": 13, "verb": "reload"}
    {"v": 2, "type": "request", "id": 14, "verb": "ingest",
     "record": {"name": "r1", "sequence": "ACGT..."}}

A search request's ``options`` may also carry ``"deadline_ms"`` — the
request's remaining end-to-end budget in milliseconds, re-anchored by
the server at receipt — and ``"kernel"``, the :mod:`repro.kernels`
backend name the sweep must run on (absent means "the server's
configured default"; an unknown name is a ``bad-request``).

Server → client types::

    {"v": 2, "type": "hello", "version": 2, "server": "repro"}
    {"v": 2, "type": "response", "id": 7, "query": ..., "hits": [...],
     "coverage": 1.0, "degraded_shards": [], ...}
    {"v": 2, "type": "result", "id": 8, "payload": {...}}      # admin verbs
    {"v": 2, "type": "error", "id": 7, "code": "bad-request",
     "message": "top must be positive, got 0"}

Error frames reuse the :class:`~repro.service.resilience.ServiceError`
taxonomy codes (``bad-request`` / ``overloaded`` / ``timeout`` /
``shard-failure`` / ``worker-timeout`` / ``index-corrupt`` /
``protocol`` / ``internal``) — the same one-token classes the CLI
prints after ``error``.

Version negotiation
-------------------
The client's first frame is a ``hello`` listing every protocol version
it speaks; the server answers with a ``hello`` naming
:data:`PROTOCOL_VERSION` when the client offered it (or an ``error``
frame with code ``protocol`` when it did not).  Every subsequent frame
still carries ``"v"`` and any other value is a :class:`ProtocolError` —
cheap insurance against a peer that skipped negotiation.  Versions are
compared type-strictly: JSON ``true`` and ``2.0`` are not version 2.
A server additionally answers a client that opens with a plain
``request`` frame, so one-shot scripted clients need not handshake.
The handshake and ``"v"`` stay so that a later version can still
negotiate.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from ..align.smith_waterman import LocalHit
from ..scan import ScanHit, ScanReport
from .engine import RequestMetrics, SearchResponse
from .resilience import (
    BadRequest,
    DeadlineExceeded,
    IndexCorrupt,
    Overloaded,
    RequestTimeout,
    ServiceError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER",
    "ProtocolError",
    "ParsedRequest",
    "RemoteAlignment",
    "encode_frame",
    "frame_length",
    "decode_frame",
    "decode_frame_bytes",
    "hello_frame",
    "hello_reply",
    "negotiate",
    "check_hello_reply",
    "search_request",
    "ingest_request",
    "admin_request",
    "parse_request",
    "options_to_wire",
    "options_from_wire",
    "response_frame",
    "parse_response",
    "result_frame",
    "error_frame",
    "error_for_code",
    "classify_exception",
    "one_line",
    "format_error_line",
]

#: The protocol version this build speaks.
#:
#: Version history:
#:
#: * **1** — initial frame protocol: ``search`` / ``stats`` /
#:   ``metrics`` / ``trace`` / ``ping``, options ``top`` /
#:   ``min_score`` / ``retrieve``.  Removed: no peer spoke it, and a
#:   v1 hello or frame is now a ``protocol`` error.
#: * **2** — robustness surface: ``deadline_ms`` request option
#:   (end-to-end budget, re-anchored server-side at receipt), the
#:   ``health`` / ``reload`` admin verbs, the string-valued ``kernel``
#:   request option naming the :mod:`repro.kernels` backend the sweep
#:   must run on, the ``ingest`` verb (streaming one FASTA record into
#:   the server's write-ahead journal) and the optional ``trace_id`` /
#:   ``parent_span`` keys of a search request.
PROTOCOL_VERSION = 2

#: Hard bound on one frame's JSON body; larger announcements are
#: protocol violations (the paper's responses are "a few bytes" per
#: record — megabyte frames mean a broken or hostile peer).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The length prefix: one big-endian unsigned 32-bit integer.
HEADER = struct.Struct(">I")

#: Request verbs the server understands.
VERBS = ("search", "stats", "metrics", "trace", "ping", "health", "reload", "ingest")

#: Option keys accepted on the wire.
WIRE_OPTION_KEYS = ("top", "min_score", "retrieve", "deadline_ms", "kernel")

#: The option keys whose wire value is a string, not an integer
#: (``kernel`` names a registry backend).
STRING_OPTION_KEYS = frozenset({"kernel"})


class ProtocolError(ServiceError):
    """The byte stream or frame structure violated the protocol."""

    code = "protocol"


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(obj: dict) -> bytes:
    """One frame: 4-byte big-endian length + UTF-8 JSON body."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame payload must be an object, got {type(obj).__name__}")
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return HEADER.pack(len(body)) + body


def frame_length(header: bytes, max_frame: int = MAX_FRAME_BYTES) -> int:
    """Decode and bound-check a frame's 4-byte length prefix."""
    if len(header) != HEADER.size:
        raise ProtocolError(
            f"truncated frame header: {len(header)} of {HEADER.size} bytes"
        )
    (length,) = HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    return length


def decode_frame(body: bytes) -> dict:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame body must be an object, got {type(obj).__name__}")
    return obj


def decode_frame_bytes(data: bytes, max_frame: int = MAX_FRAME_BYTES) -> dict:
    """Decode exactly one complete frame (header + body) from ``data``.

    Raises :class:`ProtocolError` on a truncated header, a truncated
    body, an oversized length announcement, or trailing garbage — the
    clean failure modes a reader must distinguish from valid traffic.
    """
    length = frame_length(data[: HEADER.size], max_frame=max_frame)
    body = data[HEADER.size :]
    if len(body) < length:
        raise ProtocolError(f"truncated frame body: {len(body)} of {length} bytes")
    if len(body) > length:
        raise ProtocolError(f"{len(body) - length} trailing bytes after frame")
    return decode_frame(bytes(body))


def _is_current(version: object) -> bool:
    """Type-strict version check: ``True == 1`` and ``2.0 == 2`` in
    Python, but neither is a protocol version on the wire."""
    return type(version) is int and version == PROTOCOL_VERSION


def _check_version(frame: dict) -> None:
    version = frame.get("v")
    if not _is_current(version):
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(supported: {PROTOCOL_VERSION})"
        )


# ----------------------------------------------------------------------
# Hello / version negotiation
# ----------------------------------------------------------------------
def hello_frame() -> dict:
    """The client's opening frame: every version it speaks."""
    return {"v": PROTOCOL_VERSION, "type": "hello", "versions": [PROTOCOL_VERSION]}


def hello_reply() -> dict:
    """The server's answer: the negotiated version."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "server": "repro",
    }


def negotiate(frame: dict) -> int:
    """Server side: accept a hello that offers :data:`PROTOCOL_VERSION`."""
    offered = frame.get("versions")
    if not isinstance(offered, list) or not all(type(v) is int for v in offered):
        raise ProtocolError("hello frame must list integer versions")
    if PROTOCOL_VERSION not in offered:
        raise ProtocolError(
            f"no shared protocol version (client: {offered}, "
            f"server: [{PROTOCOL_VERSION}])"
        )
    return PROTOCOL_VERSION


def check_hello_reply(frame: dict) -> int:
    """Client side: validate the server's hello; returns the version."""
    if frame.get("type") == "error":
        raise error_for_code(frame.get("code", "internal"), frame.get("message", ""))
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected hello reply, got {frame.get('type')!r}")
    version = frame.get("version")
    if not _is_current(version):
        raise ProtocolError(f"server negotiated unsupported version {version!r}")
    return version


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def options_to_wire(options) -> dict:
    """The wire mapping for a :class:`~repro.service.QueryOptions`.

    ``statistics`` never crosses the wire — E-values are the server
    engine's concern.  ``deadline_ms`` and ``kernel`` are sent only
    when set, so an absent key means "the server's default".
    """
    wire = {
        "top": options.top,
        "min_score": options.min_score,
        "retrieve": options.retrieve,
    }
    if options.deadline_ms is not None:
        wire["deadline_ms"] = options.deadline_ms
    if options.kernel is not None:
        wire["kernel"] = options.kernel
    return wire


def options_from_wire(mapping, defaults=None):
    """Build a :class:`~repro.service.QueryOptions` from a wire mapping.

    Unknown keys and non-integer values raise :class:`ValueError` (the
    ``bad-request`` class on every front-end); range violations are
    left to ``QueryOptions.validate()`` so the rules live in exactly
    one place (the TCP front-end runs it before admission).
    """
    from . import QueryOptions

    base = defaults if defaults is not None else QueryOptions()
    if mapping is None:
        return base
    if not isinstance(mapping, dict):
        raise ValueError(f"options must be an object, got {type(mapping).__name__}")
    overrides = {}
    for key, value in mapping.items():
        if key not in WIRE_OPTION_KEYS:
            raise ValueError(f"unknown option {key!r}")
        if key in STRING_OPTION_KEYS:
            if not isinstance(value, str) or not value:
                raise ValueError(
                    f"option {key!r} must be a non-empty string, got {value!r}"
                )
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"option {key!r} must be an integer, got {value!r}")
        overrides[key] = value
    return base.replace(**overrides) if overrides else base


def search_request(
    request_id: int,
    query: str,
    options,
    trace_id: str | None = None,
    parent_span: str | None = None,
) -> dict:
    """A ``search`` request frame.

    ``trace_id`` / ``parent_span`` propagate a distributed trace
    context: the server adopts them so its span tree lands in its ring
    under the *caller's* id, fetchable for stitching.  They ride as
    optional top-level keys, encoded only when supplied.
    """
    frame = {
        "v": PROTOCOL_VERSION,
        "type": "request",
        "id": request_id,
        "verb": "search",
        "query": query,
        "options": options_to_wire(options),
    }
    if trace_id is not None:
        frame["trace_id"] = trace_id
    if parent_span is not None:
        frame["parent_span"] = parent_span
    return frame


def ingest_request(request_id: int, name: str, sequence: str) -> dict:
    """An ``ingest`` request frame: append one record to the server's
    write-ahead journal."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "request",
        "id": request_id,
        "verb": "ingest",
        "record": {"name": name, "sequence": sequence},
    }


def admin_request(request_id: int, verb: str, arg: str | None = None) -> dict:
    """A ``stats`` / ``metrics`` / ``trace`` / ``ping`` /
    ``health`` / ``reload`` request frame."""
    if verb not in VERBS or verb in ("search", "ingest"):
        raise ValueError(f"unknown admin verb {verb!r}")
    frame = {"v": PROTOCOL_VERSION, "type": "request", "id": request_id, "verb": verb}
    if arg is not None:
        frame["arg"] = arg
    return frame


@dataclass(frozen=True)
class ParsedRequest:
    """A validated request frame, ready for dispatch.

    ``trace_id`` / ``parent_span`` carry the caller's distributed
    trace context when the frame arrived with one (``search`` only).
    """

    request_id: int
    verb: str
    query: str | None = None
    options: dict | None = None
    arg: str | None = None
    trace_id: str | None = None
    parent_span: str | None = None
    record: dict | None = None


def parse_request(frame: dict) -> ParsedRequest:
    """Validate a request frame (version, id, verb, shape)."""
    _check_version(frame)
    if frame.get("type") != "request":
        raise ProtocolError(f"expected a request frame, got {frame.get('type')!r}")
    request_id = frame.get("id")
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        raise ProtocolError(f"request id must be an integer, got {request_id!r}")
    verb = frame.get("verb")
    if verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r} (use one of {', '.join(VERBS)})"
        )
    query = frame.get("query")
    if verb == "search":
        if not isinstance(query, str) or not query:
            raise BadRequest("search needs a non-empty query string")
    record = frame.get("record")
    if verb == "ingest":
        if not isinstance(record, dict):
            raise BadRequest(
                "ingest needs a record object {'name': ..., 'sequence': ...}"
            )
        for key in ("name", "sequence"):
            value = record.get(key)
            if not isinstance(value, str) or not value:
                raise BadRequest(
                    f"ingest record {key!r} must be a non-empty string, "
                    f"got {value!r}"
                )
    arg = frame.get("arg")
    if arg is not None and not isinstance(arg, str):
        raise ProtocolError(f"arg must be a string, got {arg!r}")
    trace_id = frame.get("trace_id")
    parent_span = frame.get("parent_span")
    for label, value in (("trace_id", trace_id), ("parent_span", parent_span)):
        if value is not None and (not isinstance(value, str) or not value):
            raise ProtocolError(f"{label} must be a non-empty string, got {value!r}")
    return ParsedRequest(
        request_id=request_id,
        verb=verb,
        query=query if verb == "search" else None,
        options=frame.get("options") if verb == "search" else None,
        arg=arg,
        trace_id=trace_id if verb == "search" else None,
        parent_span=parent_span if verb == "search" else None,
        record=record if verb == "ingest" else None,
    )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RemoteAlignment:
    """A retrieved alignment as the wire carries it: rendered form only.

    The full traceback object stays server-side; clients get the
    pretty text and the identity fraction — enough for
    :meth:`ScanReport.render` and display, which is all retrieval is
    for downstream of the sweep.
    """

    text: str
    identity_fraction: float

    def pretty(self, width: int = 60) -> str:
        return self.text

    def identity(self) -> float:
        return self.identity_fraction


def _hit_to_wire(hit: ScanHit) -> dict:
    wire = {
        "record": hit.record,
        "length": hit.length,
        "score": hit.hit.score,
        "i": hit.hit.i,
        "j": hit.hit.j,
    }
    if hit.evalue is not None:
        wire["evalue"] = hit.evalue
    if hit.alignment is not None:
        wire["alignment"] = hit.alignment.pretty()
        wire["identity"] = hit.alignment.identity()
    return wire


def _hit_from_wire(wire: dict) -> ScanHit:
    alignment = None
    if "alignment" in wire:
        alignment = RemoteAlignment(
            text=wire["alignment"], identity_fraction=wire.get("identity", 0.0)
        )
    return ScanHit(
        record=wire["record"],
        length=wire["length"],
        hit=LocalHit(wire["score"], wire["i"], wire["j"]),
        alignment=alignment,
        evalue=wire.get("evalue"),
    )


def response_frame(request_id: int, response: SearchResponse) -> dict:
    """Encode one :class:`SearchResponse` as a response frame."""
    report = response.report
    metrics = response.metrics
    return {
        "v": PROTOCOL_VERSION,
        "type": "response",
        "id": request_id,
        "query": response.query,
        "coverage": response.coverage,
        "degraded_shards": list(response.degraded_shards),
        "min_score": report.min_score,
        "records": report.records_scanned,
        "cells": report.cells,
        "cache_hit": metrics.cache_hit,
        "workers": metrics.workers,
        "shards": metrics.shards,
        "sweep_seconds": metrics.sweep_seconds,
        "retrieval_seconds": metrics.retrieval_seconds,
        "total_seconds": metrics.total_seconds,
        "hits": [_hit_to_wire(h) for h in report.hits],
    }


def parse_response(frame: dict) -> SearchResponse:
    """Decode a response frame back into a :class:`SearchResponse`.

    The rankings, coverage and degraded-shard set round-trip exactly;
    the metrics carry the server-side timings (the client adds no
    estimate of its own network time).
    """
    _check_version(frame)
    if frame.get("type") != "response":
        raise ProtocolError(f"expected a response frame, got {frame.get('type')!r}")
    try:
        query = frame["query"]
        report = ScanReport(
            query_length=len(query),
            min_score=frame["min_score"],
            records_scanned=frame["records"],
            cells=frame["cells"],
            sweep_seconds=frame["sweep_seconds"],
            total_seconds=frame["total_seconds"],
        )
        report.hits.extend(_hit_from_wire(h) for h in frame["hits"])
        metrics = RequestMetrics(
            query_length=len(query),
            records=frame["records"],
            cells=frame["cells"],
            sweep_seconds=frame["sweep_seconds"],
            retrieval_seconds=frame["retrieval_seconds"],
            total_seconds=frame["total_seconds"],
            workers=frame["workers"],
            shards=frame["shards"],
            cache_hit=frame["cache_hit"],
        )
        return SearchResponse(
            query=query,
            report=report,
            metrics=metrics,
            coverage=frame["coverage"],
            degraded_shards=tuple(frame["degraded_shards"]),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed response frame: {exc!r}") from None


def result_frame(request_id: int, payload: dict) -> dict:
    """An admin-verb result (``stats`` dict, ``metrics`` text, ...)."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "result",
        "id": request_id,
        "payload": payload,
    }


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def error_frame(request_id: int | None, code: str, message: str) -> dict:
    """A structured error frame (``id`` may be None for framing errors)."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "error",
        "id": request_id,
        "code": code,
        "message": one_line(message),
    }


#: Taxonomy classes a client can reconstruct from a bare message.
#: ``deadline-exceeded`` maps to the real class so a budget that ran
#: out server-side raises the *same* exception type a caller of the
#: in-process engine sees.
_SIMPLE_ERRORS = {
    BadRequest.code: BadRequest,
    Overloaded.code: Overloaded,
    RequestTimeout.code: RequestTimeout,
    DeadlineExceeded.code: DeadlineExceeded,
    IndexCorrupt.code: IndexCorrupt,
    "protocol": ProtocolError,
}


def error_for_code(code: str, message: str) -> ServiceError:
    """Rebuild the taxonomy error a wire code/message pair describes.

    Codes with a simple constructor get their real class (so remote
    ``bad-request`` still satisfies ``except ValueError``); the rest
    (``shard-failure``, ``worker-timeout``, unknown future codes) come
    back as a :class:`ServiceError` carrying the wire code.
    """
    cls = _SIMPLE_ERRORS.get(code)
    if cls is not None:
        return cls(message)
    exc = ServiceError(message)
    exc.code = code
    return exc


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map any failure onto the taxonomy ``(code, one-line message)``.

    This is the single mapping the server's error frames and the
    CLI's error lines apply: a :class:`ServiceError` keeps its own code, malformed input
    (``ValueError``/``TypeError``) is ``bad-request``, and anything
    else is ``internal`` tagged with the exception type.
    """
    if isinstance(exc, ServiceError):
        return exc.code, one_line(exc)
    if isinstance(exc, (ValueError, TypeError)):
        return "bad-request", one_line(exc)
    return "internal", f"{type(exc).__name__}: {one_line(exc)}"


# ----------------------------------------------------------------------
# One-line error rendering (the CLI's ``error <code> <message>``)
# ----------------------------------------------------------------------
def one_line(message: object) -> str:
    """Collapse a message onto one protocol line."""
    return " ".join(str(message).split()) or "unspecified error"


def format_error_line(code: str, message: object) -> str:
    """A structured failure on one line: ``error <code> <message>``."""
    return f"error {code} {one_line(message)}"
