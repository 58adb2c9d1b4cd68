"""Spans recorded from outside the program, and the per-layer ledger.

The program is not edited to be measured.  Instead a :class:`Recorder`
replaces a layer's public function with a timing wrapper that calls
the original and appends one span: name, start, end (``time.monotonic``,
the system-wide clock, so client and server spans of one request line
up) and a few attributes.  :func:`install_server` wraps the server's
layers; the benchmark-owned launcher (``traced_serve.py``) installs it
before calling ``repro.cli.main`` and writes the spans once the server
has drained.  :func:`install_client` wraps the client and protocol
calls in the load generator's own process.

:func:`ledger` joins both sides per request id and turns the spans
into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np


class Recorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._batches = itertools.count(1)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``describe(result, *args, **kwargs)`` returns extra attributes.
        Spans opened inside a traced ``search_batch`` carry its number
        (``batch``), which is how a layer's self time is computed.
        """
        original = getattr(owner, attr)  # a renamed layer fails the run
        local = self.local

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.spans.append(
                    {"n": name, "s": start, "e": time.monotonic(), "error": True}
                )
                raise
            span = {"n": name, "s": start, "e": time.monotonic()}
            batch = getattr(local, "batch", None)
            if batch is not None:
                span["batch"] = batch
            if describe is not None:
                span.update(describe(result, *args, **kwargs))
            self.spans.append(span)
            return result

        self.replace(owner, attr, timed)

    def replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text("\n".join(json.dumps(s) for s in self.spans) + "\n")


def load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
def _sweep_attrs(outcome, pool, index, queries, *args, **kwargs) -> dict:
    return {
        "workers": pool.workers,
        "kernel_s": [s.seconds for s in outcome.sweeps],
        "cells": sum(s.cells for s in outcome.sweeps),
    }


def _task_bytes(task, shard, queries, *args, **kwargs) -> dict:
    # What one shard attempt is handed: the encoded records, their
    # offsets and the query batch (sizes only; how it travels is the
    # pool's business).
    return {
        "bytes": int(shard.payload.nbytes + shard.offsets.nbytes)
        + sum(len(q) for q in queries)
    }


def install_server(rec: Recorder) -> None:
    """Wrap the public calls of every serving layer (server process)."""
    import os

    from repro.service import cache, engine, guard, ingest, net, protocol, resilience

    original_pg = net.TcpSearchServer._process_group

    @functools.wraps(original_pg)
    def process_group(self, options, items):
        rec.local.ids = [item.request_id for item in items]
        try:
            return original_pg(self, options, items)
        finally:
            rec.local.ids = None

    original_sb = engine.SearchEngine.search_batch

    @functools.wraps(original_sb)
    def search_batch(self, queries, *args, **kwargs):
        seq = next(rec._batches)
        rec.local.batch = seq
        start = time.monotonic()
        try:
            return original_sb(self, queries, *args, **kwargs)
        finally:
            rec.local.batch = None
            rec.spans.append(
                {
                    "n": "engine.search_batch",
                    "s": start,
                    "e": time.monotonic(),
                    "seq": seq,
                    "queries": len(queries),
                    "ids": getattr(rec.local, "ids", None) or [],
                }
            )

    # These two carry the request ids and batch numbers every join needs.
    rec.replace(net.TcpSearchServer, "_process_group", process_group)
    rec.replace(engine.SearchEngine, "search_batch", search_batch)
    rec.wrap(cache.ResultCache, "get", "cache.get")
    rec.wrap(resilience.SupervisedWorkerPool, "sweep", "pool.sweep", _sweep_attrs)
    rec.wrap(resilience, "shard_task", "pool.shard_task", _task_bytes)
    rec.wrap(engine, "merge_candidates", "merge")
    rec.wrap(engine, "local_align_linear", "local_linear")
    rec.wrap(protocol, "response_frame", "protocol.response_frame",
             lambda result, request_id, *a, **k: {"id": request_id})
    rec.wrap(protocol, "encode_frame", "protocol.encode_frame",
             lambda result, frame, *a, **k: {"id": frame.get("id"), "bytes": len(result)})
    rec.wrap(guard.IndexManager, "reload", "guard.reload")
    rec.wrap(guard.IndexManager, "swap", "guard.swap")
    rec.wrap(ingest.Journal, "append", "ingest.append")
    rec.wrap(ingest.IngestService, "_seal_locked", "ingest.seal")
    rec.wrap(os, "fsync", "os.fsync")


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def install_client(rec: Recorder) -> None:
    """Wrap the client's protocol calls (load-generator process)."""
    from repro.service import protocol

    def _build(result, request_id, *args, **kwargs):
        rec.local.rid = request_id
        return {"id": request_id}

    rec.wrap(protocol, "search_request", "client.build", _build)
    rec.wrap(protocol, "ingest_request", "client.build", _build)
    rec.wrap(protocol, "encode_frame", "client.encode",
             lambda result, frame, *a, **k: {"id": frame.get("id")})
    rec.wrap(protocol, "decode_frame", "client.decode",
             lambda result, body, *a, **k: {"id": result.get("id"), "bytes": len(body) + 4})
    rec.wrap(protocol, "parse_response", "client.parse",
             lambda result, frame, *a, **k: {"id": frame.get("id")})


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _dur(span: dict) -> float:
    return span["e"] - span["s"]


def _by_id(spans: list[dict], name: str) -> dict[int, float]:
    """Summed duration per request id of the spans called ``name``."""
    out: dict[int, float] = {}
    for s in spans:
        if s["n"] == name and isinstance(s.get("id"), int):
            out[s["id"]] = out.get(s["id"], 0.0) + _dur(s)
    return out


def ledger(client: list[dict], server: list[dict], requests: list[dict],
           window: tuple[float, float], deltas: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    ``requests`` are the load generator's own records (``kind``, ``rid``,
    ``t0``/``t1`` and for ingests ``due``); ``deltas`` are the service's
    own counters diffed across the phase.
    """
    lo, hi = window
    # Spans of a request belong to the phase if the request does, even
    # when they start after the window closes; a batch belongs to it if
    # it answered one of the phase's requests, and so do its children.
    rids = {r["rid"] for r in requests if r.get("rid") is not None}
    batch_ids = {s["seq"] for s in server
                 if s["n"] == "engine.search_batch" and rids.intersection(s["ids"])}

    def in_phase(span: dict) -> bool:
        if "seq" in span or "batch" in span:
            return span.get("seq", span.get("batch")) in batch_ids
        if "id" in span:
            return span["id"] in rids
        return lo <= span["s"] <= hi

    server = [s for s in server if in_phase(s)]
    client = [s for s in client if s.get("id") in rids]
    named: dict[str, list[dict]] = {}
    for s in server:
        named.setdefault(s["n"], []).append(s)
    searches = [r for r in requests if r["kind"] == "search" and r["ok"]]

    build, encode = _by_id(client, "client.build"), _by_id(client, "client.encode")
    decode, parse = _by_id(client, "client.decode"), _by_id(client, "client.parse")
    sent_at = {s["id"]: s["e"] for s in client if s["n"] == "client.encode" and "id" in s}
    response_bytes = {s["id"]: s["bytes"] for s in client if s["n"] == "client.decode"}
    srv_encode = _by_id(server, "protocol.encode_frame")
    srv_build = _by_id(server, "protocol.response_frame")
    batches = named.get("engine.search_batch", [])
    batch_of = {rid: b for b in batches for rid in b["ids"]}

    enc, dec, qwait, unattributed, sizes = [], [], [], [], []
    for r in searches:
        rid = r["rid"]
        b = batch_of.get(rid)
        if b is None or rid not in sent_at:
            continue
        e = build.get(rid, 0.0) + encode.get(rid, 0.0)
        d = decode.get(rid, 0.0) + parse.get(rid, 0.0)
        qw = b["s"] - sent_at[rid]
        attributed = e + qw + _dur(b) + srv_build.get(rid, 0.0) + srv_encode.get(rid, 0.0) + d
        enc.append(e)
        dec.append(d)
        qwait.append(qw)
        unattributed.append((r["t1"] - r["t0"]) - attributed)
        sizes.append(response_bytes.get(rid, 0))

    children = ("cache.get", "pool.sweep", "merge", "local_linear")
    child_time: dict[int, float] = {}
    for name in children:
        for s in named.get(name, []):
            if "batch" in s:
                child_time[s["batch"]] = child_time.get(s["batch"], 0.0) + _dur(s)
    engine_self = [_dur(b) - child_time.get(b["seq"], 0.0) for b in batches]

    sweeps = [s for s in named.get("pool.sweep", []) if "kernel_s" in s]
    dispatch, busy, capacity = [], 0.0, 0.0
    for s in sweeps:
        kernel = s["kernel_s"]
        # Busiest worker's kernel seconds: the shortest makespan any
        # assignment of these shard sweeps to the pool's workers allows.
        makespan = max(max(kernel, default=0.0), sum(kernel) / s["workers"])
        dispatch.append(_dur(s) - makespan)
        busy += sum(kernel)
        capacity += s["workers"] * _dur(s)
    cells = sum(s["cells"] for s in sweeps)
    kernel_seconds = sum(sum(s["kernel_s"]) for s in sweeps)
    task_bytes = sum(s["bytes"] for s in named.get("pool.shard_task", []))
    lookups = named.get("cache.get", [])
    retrievals = named.get("local_linear", [])
    responses = sum(len(b["ids"]) for b in batches)
    acks = [r for r in requests if r["kind"] == "ingest" and r["ok"]]
    ack_ms = [(r["t1"] - r["due"]) * 1e3 for r in acks]

    return {
        "client.encode_ms": _p(enc, 50) * 1e3,
        "client.decode_ms": _p(dec, 50) * 1e3,
        "protocol.response_bytes": _mean(sizes),
        "net.queue_wait_ms": _p(qwait, 50) * 1e3,
        "net.queue_wait_p90_ms": _p(qwait, 90) * 1e3,
        "net.batch_size": _mean([b["queries"] for b in batches]),
        "net.rejected": deltas["net_rejected"],
        "engine.self_ms": _p(engine_self, 50) * 1e3,
        "cache.hit_ratio": deltas["cache_hits"] / max(deltas["cache_lookups"], 1),
        "cache.lookup_us": _p([_dur(s) for s in lookups], 50) * 1e6,
        "pool.sweep_ms": _p([_dur(s) for s in sweeps], 50) * 1e3,
        "pool.dispatch_ms": _p(dispatch, 50) * 1e3,
        "pool.attempts_per_sweep": deltas["sweep_attempts"] / max(len(sweeps), 1),
        "pool.retries": deltas["retries"],
        "pool.timeouts": deltas["timeouts"],
        "pool.bytes_shipped": task_bytes / max(len(sweeps), 1),
        "pool.worker_busy_ratio": busy / capacity if capacity else 0.0,
        "kernels.cells": cells / max(len(sweeps), 1),
        "kernels.mcups": cells / kernel_seconds / 1e6 if kernel_seconds else 0.0,
        "merge.ms": _p([_dur(s) for s in named.get("merge", [])], 50) * 1e3,
        "local_linear.ms": _p([_dur(s) for s in retrievals], 50) * 1e3,
        "local_linear.calls": len(retrievals) / max(responses, 1),
        "guard.reload_ms": _p([_dur(s) for s in named.get("guard.reload", [])], 50) * 1e3,
        "guard.generations": float(len(named.get("guard.swap", []))),
        "ingest.append_ms": _p([_dur(s) for s in named.get("ingest.append", [])], 50) * 1e3,
        "ingest.fsyncs": float(len(named.get("os.fsync", []))),
        "ingest.seal_ms": _p([_dur(s) for s in named.get("ingest.seal", [])], 50) * 1e3,
        "ingest.records": float(len(acks)),
        "ingest.ack_p50_ms": _p(ack_ms, 50),
        "ingest.ack_p90_ms": _p(ack_ms, 90),
        "trace.unattributed_ms": _p(unattributed, 50) * 1e3,
        "_joined": float(len(unattributed)),
        "_cells": float(cells),
    }
