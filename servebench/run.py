"""Serving-path benchmark: ``repro serve --tcp`` driven end to end.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload cold-sweep --seed 1 --seconds 25 --trace 0

Each run deploys the real service: ``repro index`` into several shards,
then ``repro serve INDEX --tcp 127.0.0.1:0 --workers 2 --retries 1`` as a
child process on the program's default kernel.  A seeded load generator
in this process (two threads, two connections at most) drives one
traffic mix for ``--seconds``, the answers are checked against
``repro.scan.scan_database``, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice for half the time each, untraced
and then traced (see ``tracing.py``), and reports the per-layer ledger.
See ``servebench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

import tracing
from deploy import Server, cpu_seconds, pss_mb, run_index, server_env, survivors
from inputs import HOT_COPIES, SHARD_BP, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server deployment, fixed for every workload.
WORKERS = 2
RETRIES = 1
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Socket timeout of every client request: a stuck server turns into
#: failed requests, never a hung benchmark.
REQUEST_TIMEOUT = 30.0
#: Sampled answers per run checked against ``scan_database``.
CHECKS = 6
#: ingest-mix writer: records per second, and the server's seal size.
#: A seal (compact + publish a delta + swap generation) lands every
#: SEAL_EVERY / INGEST_RATE = 4 s, and seal acks are 1/24 of all acks.
INGEST_RATE = 6.0
SEAL_EVERY = 24
TOP = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "mcups": "MCUPS",
    "cpu_ms_per_query": "ms",
    "mem_peak_mb": "MiB",
}
PER_LAYER_UNITS = {
    "client.encode_ms": "ms",
    "client.decode_ms": "ms",
    "protocol.response_bytes": "bytes",
    "net.queue_wait_ms": "ms",
    "net.queue_wait_p90_ms": "ms",
    "net.batch_size": "count",
    "net.rejected": "count",
    "engine.self_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "pool.sweep_ms": "ms",
    "pool.dispatch_ms": "ms",
    "pool.attempts_per_sweep": "count",
    "pool.retries": "count",
    "pool.timeouts": "count",
    "pool.bytes_shipped": "bytes",
    "pool.worker_busy_ratio": "ratio",
    "kernels.cells": "count",
    "kernels.mcups": "MCUPS",
    "merge.ms": "ms",
    "local_linear.ms": "ms",
    "local_linear.calls": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
#: The write path's layers, reported by ingest-mix only.
INGEST_LAYER_UNITS = {
    "guard.reload_ms": "ms",
    "guard.generations": "count",
    "ingest.append_ms": "ms",
    "ingest.fsyncs": "count",
    "ingest.seal_ms": "ms",
    "ingest.records": "count",
    "ingest.ack_p50_ms": "ms",
    "ingest.ack_p90_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment."""

    readers: int  # closed-loop search connections
    retrieve: int
    stream: str  # "cold": never-seen queries; "hot": the warmed pool
    writer: bool = False  # open-loop ingest writer beside the reader


WORKLOADS = {
    "cold-sweep": Workload(readers=2, retrieve=0, stream="cold"),
    "hot-retrieve": Workload(readers=2, retrieve=HOT_COPIES, stream="hot"),
    "ingest-mix": Workload(readers=1, retrieve=0, stream="cold", writer=True),
}


class BenchmarkFailure(RuntimeError):
    """The workload could not be driven as specified."""


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
class Cleanup:
    """Kills live servers and removes the work directory, whatever happens.

    Runs from ``finally`` and again from ``atexit``; SIGTERM/SIGINT are
    turned into ``SystemExit`` so both paths run on a signal too.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.servers: list = []
        atexit.register(self.run)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._on_signal)

    @staticmethod
    def _on_signal(signum, frame) -> None:
        raise SystemExit(128 + signum)

    def run(self) -> None:
        while self.servers:
            self.servers.pop().kill()
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
class Deployment:
    """Index + server (+ warmed cache / recovered journal) for one phase."""

    def __init__(self, name: str, wl: Workload, inputs, work: Path, cleanup: Cleanup,
                 traced: bool) -> None:
        from repro.service import QueryOptions

        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.spans_path = self.dir / "server-spans.jsonl" if traced else None
        ingest_dir = self.dir / "ingest"
        if wl.writer:
            _preload_journal(ingest_dir, inputs.preload)
        fasta = work / "db.fasta"
        started = time.monotonic()
        run_index(SRC, fasta, self.dir / "db.idx", SHARD_BP, cwd=ROOT, tmp=work)
        serve = ["serve", str(self.dir / "db.idx"), "--tcp", "127.0.0.1:0",
                 "--workers", str(WORKERS), "--retries", str(RETRIES)]
        if wl.writer:
            serve += ["--ingest-dir", str(ingest_dir), "--seal-every", str(SEAL_EVERY)]
        if traced:
            argv = [sys.executable, str(HERE / "traced_serve.py"), str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "repro"]
        env = server_env(SRC, work)
        if traced:
            env["PYTHONPATH"] = f"{SRC}{os.pathsep}{HERE}"
        self.server = Server(argv + serve, env, cwd=ROOT, log=self.dir / "server.log")
        cleanup.servers.append(self.server)
        self.cleanup = cleanup
        self.address = self.server.wait_ready()
        self.client = _client(self.address)
        self.options = QueryOptions(top=TOP, retrieve=wl.retrieve)
        if wl.stream == "hot":
            # Warm every hot query into the result cache (one pipelined
            # batch, so the sweeps coalesce); part of set-up.
            for answer in self.client.search_pipelined(list(inputs.hot), self.options):
                if not hasattr(answer, "report"):
                    raise BenchmarkFailure(f"cache warm-up failed: {answer!r}")
        self.setup_s = time.monotonic() - started

    def stop(self) -> None:
        self.client.close()
        try:
            self.server.stop()
        finally:
            self.cleanup.servers.remove(self.server)


def _client(address: str):
    from repro.service import RetryPolicy
    from repro.service.client import SearchClient

    # No client retries: a refused or failed request is counted, not hidden.
    return SearchClient(address, retry=RetryPolicy(retries=0), pool_size=2,
                        timeout=REQUEST_TIMEOUT)


def _preload_journal(directory: Path, records) -> None:
    """Acknowledge ``records`` into a journal the server must recover."""
    from repro.service import DatabaseIndex, IndexManager
    from repro.service.ingest import IngestService

    scratch = IndexManager(index=DatabaseIndex.build([("placeholder", "ACGT")]))
    service = IngestService(scratch, directory, seal_every=SEAL_EVERY)
    for name, seq in records:
        service.ingest(name, seq)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _parse_metrics(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


def _counters(client) -> dict[str, float]:
    """The service's own counters (``stats`` and ``metrics`` verbs)."""
    stats = client.stats()
    metrics = _parse_metrics(client.metrics())
    return {
        "sweep_attempts": float(stats["sweep attempts"]),
        "cache_hits": float(stats["cache hits"]),
        "cache_lookups": float(stats["cache hits"]) + float(stats["cache misses"]),
        "retries": metrics["repro_retries_total"],
        "timeouts": metrics["repro_worker_timeouts_total"],
        "net_rejected": metrics["repro_net_rejected_total"] + metrics["repro_net_shed_total"],
        "cells": metrics["repro_cells_swept_total"],
        "_stats": stats,
    }


def drive(dep: Deployment, wl: Workload, inputs, seconds: float, queries, rec=None) -> dict:
    """The timed phase: closed-loop readers (+ open-loop writer)."""
    client = dep.client
    lock = threading.Lock()
    records: list[dict] = []
    before = _counters(client)
    cpu0 = cpu_seconds(dep.server.pid)
    start = time.monotonic()
    end = start + seconds

    # Two readers send in lockstep: each round both connections send one
    # request and the round ends when both are answered.  Free-running
    # closed loops flip between two modes (both requests coalesced into
    # one sweep, or alternating single sweeps that each wait behind the
    # other), which made run-to-run figures bimodal.
    stop = threading.Event()
    rounds = threading.Barrier(
        wl.readers, action=lambda: stop.set() if time.monotonic() >= end else None)

    def reader() -> None:
        while True:
            try:
                rounds.wait(REQUEST_TIMEOUT + 5)
            except threading.BrokenBarrierError:
                return
            if stop.is_set():
                return
            with lock:
                query = next(queries)
            r = {"kind": "search", "query": query, "t0": time.monotonic()}
            try:
                r["response"] = client.search(query, dep.options)
                r["ok"] = True
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                r["ok"], r["error"] = False, repr(exc)
            r["t1"] = time.monotonic()
            r["rid"] = getattr(rec.local, "rid", None) if rec else None
            records.append(r)

    def writer() -> None:
        for k, (name, seq) in enumerate(inputs.ingest):
            due = start + k / INGEST_RATE
            if due >= end:
                return
            time.sleep(max(0.0, due - time.monotonic()))
            r = {"kind": "ingest", "name": name, "due": due, "t0": time.monotonic()}
            try:
                r["ack"] = dict(client.ingest(name, seq))
                r["ok"] = True
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                r["ok"], r["error"] = False, repr(exc)
            r["t1"] = time.monotonic()
            records.append(r)
        records.append({"kind": "ingest", "ok": False, "error": "ingest stream exhausted",
                        "t0": end, "t1": end, "due": end})

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(wl.readers)]
    if wl.writer:
        threads.append(threading.Thread(target=writer, daemon=True))
    for t in threads:
        t.start()
    # The main thread samples the server group's PSS every 100 ms.
    peak_mb = 0.0
    while any(t.is_alive() for t in threads):
        peak_mb = max(peak_mb, pss_mb(survivors(dep.server.pgid)))
        time.sleep(0.1)
        if time.monotonic() > end + REQUEST_TIMEOUT + 5:
            raise BenchmarkFailure("load threads did not finish")
    for t in threads:
        t.join()
    finished = max(r["t1"] for r in records)
    cpu = cpu_seconds(dep.server.pid) - cpu0
    after = _counters(client)
    deltas = {k: after[k] - before[k] for k in before if not k.startswith("_")}
    return {
        "records": records,
        "window": (start, end),
        "wall": finished - start,
        "cpu_s": cpu,
        "mem_peak_mb": peak_mb,
        "deltas": deltas,
        "stats": after["_stats"],
    }


def _query_stream(inputs, wl: Workload):
    if wl.stream == "hot":
        return itertools.cycle(inputs.hot)
    return inputs.cold_stream()


def end_to_end(phase: dict, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced phase, plus sample counts."""
    searches = [r for r in phase["records"] if r["kind"] == "search" and r["ok"]]
    latencies = sorted((r["t1"] - r["t0"]) * 1e3 for r in searches)
    cells = 0
    for r in searches:
        report = r["response"].report
        cells += report.cells
        for hit in report.hits:
            if hit.alignment is not None:
                # Forward + reverse locate passes of one retrieval.
                cells += report.query_length * hit.length + hit.hit.i * hit.hit.j
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": setup_s,
        "qps": len(searches) / phase["wall"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": deciles[-1],
        "mcups": cells / phase["wall"] / 1e6,
        "cpu_ms_per_query": phase["cpu_s"] * 1e3 / len(searches),
        "mem_peak_mb": phase["mem_peak_mb"],
    }
    return metrics, {"searches": len(searches), "beyond_p90": sum(x > deciles[-1] for x in latencies)}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _hit_key(hit) -> tuple:
    return (hit.record, hit.hit.score, hit.hit.i, hit.hit.j)


def _expected(query: str, records, retrieve: int):
    from repro.scan import scan_database

    return scan_database(query, records, top=TOP, min_score=1, retrieve=retrieve)


def check_phase(name: str, wl: Workload, inputs, phase: dict, probe=None) -> list[str]:
    """Every check of one phase; returns the failures (empty = correct)."""
    problems = []
    records = phase["records"]
    failed = [r for r in records if not r["ok"]]
    if failed:
        problems.append(f"{len(failed)} failed requests, first: {failed[0]['error']}")
    searches = [r for r in records if r["kind"] == "search" and r["ok"]]
    if not searches:
        return problems + ["no successful searches"]
    deltas = phase["deltas"]
    hit_ratio = deltas["cache_hits"] / max(deltas["cache_lookups"], 1)
    if wl.stream == "hot":
        if hit_ratio != 1.0 or deltas["sweep_attempts"] != 0:
            problems.append(f"hot-retrieve bypassed the cache: hit ratio {hit_ratio}, "
                            f"{deltas['sweep_attempts']} sweep attempts")
    else:
        if hit_ratio != 0.0:
            problems.append(f"{name}: cache hit ratio {hit_ratio} on never-seen queries")
        if deltas["sweep_attempts"] <= 0:
            problems.append(f"{name}: sweep attempts did not rise")
    for r in searches:
        resp = r["response"]
        if resp.coverage != 1.0 or resp.query != r["query"]:
            problems.append(f"degraded or mismatched response for {r['query'][:12]}")
            break

    if wl.stream == "hot":
        expected = {q: _expected(q, inputs.database, wl.retrieve) for q in inputs.hot}
        for r in searches:
            want = expected[r["query"]].hits
            got = r["response"].report.hits
            if [_hit_key(h) for h in got] != [_hit_key(h) for h in want] or any(
                (g.alignment is None) != (w.alignment is None)
                or (w.alignment is not None and (
                    g.alignment.pretty() != w.alignment.pretty()
                    or g.alignment.identity() != w.alignment.identity()))
                for g, w in zip(got, want)
            ):
                problems.append(f"hot answer differs from scan_database for {r['query'][:12]}")
                break
        return problems

    step = max(1, len(searches) // CHECKS)
    sample = searches[::step][:CHECKS]
    if not wl.writer:
        for r in sample:
            want = [_hit_key(h) for h in _expected(r["query"], inputs.database, 0).hits]
            if [_hit_key(h) for h in r["response"].report.hits] != want:
                problems.append(f"cold answer differs from scan_database for {r['query'][:12]}")
        return problems
    return problems + _check_ingest(inputs, phase, sample, probe)


def _check_ingest(inputs, phase: dict, sample, probe) -> list[str]:
    """Reader answers under a moving generation, and the acked-record probe.

    A reader request may have been served by any generation published
    between its send and its answer; it must equal ``scan_database``
    over the base plus the records that generation holds.  Publishes
    happen on the seal acks, so the candidate generations are bounded
    by the writer's own seal-ack times.
    """
    from repro.scan import scan_database

    problems = []
    acks = sorted((r for r in phase["records"] if r["kind"] == "ingest" and r["ok"]),
                  key=lambda r: r["t0"])
    seals = [r for r in acks if r["ack"]["pending"] == 0]
    sequences = dict(inputs.ingest)
    order = list(inputs.preload) + [(r["name"], sequences[r["name"]]) for r in acks]
    position = {name: k for k, (name, _) in enumerate(order)}
    base_n = len(inputs.database)
    for r in sample:
        base = [(h.hit.score, k, _hit_key(h)) for k, h in enumerate(
            _expected(r["query"], inputs.database, 0).hits)]
        extra = scan_database(r["query"], order, top=len(order), min_score=1, retrieve=0)
        extra_hits = [(h.hit.score, base_n + position[h.record], _hit_key(h))
                      for h in extra.hits]
        got = [_hit_key(h) for h in r["response"].report.hits]
        lo = sum(1 for s in seals if s["t1"] < r["t0"])
        hi = sum(1 for s in seals if s["t0"] < r["t1"])
        candidates = []
        for sealed in range(lo, hi + 1):
            live = len(inputs.preload) + sealed * SEAL_EVERY
            pool = base + [h for h in extra_hits if h[1] - base_n < live]
            pool.sort(key=lambda c: (-c[0], c[1]))
            candidates.append([c[2] for c in pool[:TOP]])
        if got not in candidates:
            problems.append(f"ingest-mix answer matches no live generation for {r['query'][:12]}")
    if probe is None:
        return problems + ["ingest probe missing"]
    served = {h.record for h in probe.report.hits}
    last_publish = len(inputs.preload) + len(seals) * SEAL_EVERY
    missing = [name for name, _ in order[:last_publish] if name not in served]
    if missing:
        problems.append(f"{len(missing)} acked records missing after publish, e.g. {missing[:3]}")
    if not seals:
        problems.append("no seal/publish landed during ingest-mix")
    return problems


def probe_ingested(dep: Deployment, inputs):
    """One search for the seed's tag returns every served ingested record."""
    from repro.service import QueryOptions

    options = QueryOptions(top=len(inputs.ingest) + len(inputs.database) + 64,
                           min_score=len(inputs.tag), retrieve=0)
    return dep.client.search(inputs.tag, options)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_phase(name: str, wl: Workload, inputs, work: Path, cleanup: Cleanup,
              seconds: float, traced: bool, setups: int = 1):
    """Deploy (``setups`` times, keeping the last), drive, check, tear down."""
    setup_times = []
    for k in range(setups):
        dep = Deployment(f"{name}-{'traced' if traced else 'plain'}-{k}", wl, inputs, work,
                         cleanup, traced)
        setup_times.append(dep.setup_s)
        if k < setups - 1:
            dep.stop()
    queries = _query_stream(inputs, wl)
    warm = inputs.hot if wl.stream == "hot" else inputs.warmup
    for query in warm:
        dep.client.search(query, dep.options)
    rec = None
    if traced:
        rec = tracing.Recorder()
        tracing.install_client(rec)
    try:
        phase = drive(dep, wl, inputs, seconds, queries, rec)
    finally:
        if rec is not None:
            rec.uninstall()
    probe = probe_ingested(dep, inputs) if wl.writer else None
    config = {
        "kernel": phase["stats"].get("kernel"),
        "workers": phase["stats"].get("workers"),
        "shards": phase["stats"].get("shards"),
        "records": phase["stats"].get("records"),
        "total_bp": phase["stats"].get("total bp"),
        "generation": phase["stats"].get("generation"),
    }
    dep.stop()
    phase["setup_s"] = statistics.median(setup_times)
    phase["setup_times"] = setup_times
    phase["config"] = config
    phase["problems"] = check_phase(name, wl, inputs, phase, probe)
    if int(config["workers"]) != WORKERS or int(config["shards"]) < 2 * WORKERS:
        phase["problems"].append(f"deployment is not {WORKERS} workers x 2+ shards: {config}")
    if traced:
        server_spans = tracing.load_spans(dep.spans_path)
        phase["ledger"] = tracing.ledger(rec.spans, server_spans, phase["records"],
                                         phase["window"], phase["deltas"])
        # The spans' exact cell count must agree with the service's own
        # counter (rendered to six significant digits).
        counted, spanned = phase["deltas"]["cells"], phase["ledger"]["_cells"]
        if abs(counted - spanned) > 1e-5 * max(counted, 1.0):
            phase["problems"].append(f"traced cells {spanned} != service counter {counted}")
    return phase


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        if str(path).startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro (run from a full checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The benchmark's own reference scans use the program default too.
    os.environ.pop("REPRO_KERNEL", None)
    wl = WORKLOADS[args.workload]
    work = ROOT / ".servebench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cleanup = Cleanup(work)
    try:
        inputs = generate(args.seed)
        print(f"# inputs seed={args.seed} sha256={inputs.digest()}", flush=True)
        (work / "db.fasta").write_text(inputs.fasta())
        if args.trace:
            plain = run_phase(args.workload, wl, inputs, work, cleanup, args.seconds / 2, False)
            phase = run_phase(args.workload, wl, inputs, work, cleanup, args.seconds / 2, True)
            phases = [plain, phase]
            untraced_p50, _ = end_to_end(plain, plain["setup_s"])
            traced_p50, _ = end_to_end(phase, phase["setup_s"])
            metrics = {k: v for k, v in phase["ledger"].items() if not k.startswith("_")}
            metrics["trace.overhead_ratio"] = (
                traced_p50["latency_p50_ms"] / untraced_p50["latency_p50_ms"])
            units = dict(PER_LAYER_UNITS, **(INGEST_LAYER_UNITS if wl.writer else {}))
            print(f"# latency_p50_ms untraced={untraced_p50['latency_p50_ms']:.2f} "
                  f"traced={traced_p50['latency_p50_ms']:.2f}", flush=True)
            print(f"# ledger joined {phase['ledger']['_joined']:.0f} requests; "
                  f"cells {phase['ledger']['_cells']:.0f} (service counter "
                  f"{phase['deltas']['cells']:.6g})", flush=True)
        else:
            phase = run_phase(args.workload, wl, inputs, work, cleanup, args.seconds, False,
                              setups=SETUPS)
            phases = [phase]
            metrics, samples = end_to_end(phase, phase["setup_s"])
            units = END_TO_END_UNITS
            print(f"# samples searches={samples['searches']} beyond_p90="
                  f"{samples['beyond_p90']} setups_s={phase['setup_times']}", flush=True)
        config = dict(phase["config"], nproc=os.cpu_count(), python=platform.python_version(),
                      numpy=numpy.__version__, workload=args.workload,
                      work_fs=_fs_type(work))
        print(f"# config {json.dumps(config, sort_keys=True)}", flush=True)
        if wl.writer:
            acks = [r for r in phase["records"] if r["kind"] == "ingest" and r["ok"]]
            late = max((r["t0"] - r["due"]) * 1e3 for r in acks)
            seals = sum(1 for r in acks if r["ack"]["pending"] == 0)
            print(f"# ingest acks={len(acks)} seals={seals} writer_max_late_ms={late:.1f}",
                  flush=True)
        problems = [p for ph in phases for p in ph["problems"]]
        for problem in problems:
            print(f"# FAILED {problem}", flush=True)
        attempted = sum(len(ph["records"]) for ph in phases)
        failed = sum(1 for ph in phases for r in ph["records"] if not r["ok"])
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        print(json.dumps(result), flush=True)
        return 0 if not problems else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        cleanup.run()
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
