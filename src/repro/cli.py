"""Command-line interface: ``python -m repro <command>``.

Commands mirror the repository's main workflows:

``align``    — align two sequences (inline or FASTA files) through the
               full co-design pipeline; prints the pretty alignment.
``scan``     — scan a query against a multi-record FASTA database and
               print the ranked hit table (``--workers``/``--no-cache``
               route it through the service-layer engine).
``index``    — pre-encode a FASTA database into a persistent sharded
               index file for ``serve``/``batch``.
``serve``    — serve a database or saved index over the TCP wire
               protocol (``--tcp HOST:PORT``), with structured logging
               (``--log-level``/``--log-json``) and periodic metric
               dumps (``--metrics-file``).
``query``    — query a running ``serve --tcp`` server over the wire
               protocol and print the ranked hit table.
``stats``    — render a metrics snapshot written by
               ``serve --metrics-file`` as aligned tables.
``batch``    — run a FASTA file of queries against the database in one
               batched index pass.
``cluster``  — partition a database across N shard nodes, serve them
               locally and scatter-gather queries with a merged global
               ranking (``partition`` / ``serve`` / ``query`` /
               ``health``), plus the fleet observability surface:
               ``trace`` (stitched cross-node traces), ``stats``
               (aggregated Prometheus/JSON metrics) and ``slo``
               (probe-driven burn-rate gate).
``figures``  — regenerate any of the paper's figures as ASCII.
``design``   — print the Table-2 resource row and frequency for an
               array size.
``verify``   — run the random-vector verification campaign against
               the RTL model.
``verilog``  — emit the generated Verilog of the element or array
               (the paper's Forte output stage).
``report``   — regenerate the full reproduction report (tables +
               figure renderings) as markdown.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .align.local_linear import local_align_linear
from .align.scoring import DEFAULT_DNA, LinearScoring
from .analysis import figures as fig_mod
from .core.accelerator import SWAccelerator
from .core.resources import PROTOTYPE_MODEL
from .core.verification import random_vector_campaign
from .io.fasta import read_fasta
from .kernels import available_backends
from .scan import scan_database

__all__ = ["main", "build_parser"]

_FIGURES = {
    "1": lambda: fig_mod.figure1_alignment(),
    "2": lambda: fig_mod.figure2_matrix(),
    "3": lambda: fig_mod.figure3_wavefront(),
    "5": lambda: fig_mod.figure5_systolic_trace(),
    "6": lambda: fig_mod.figure6_datapath(),
    "7": lambda: fig_mod.figure7_partitioning(),
    "8": lambda: fig_mod.figure8_9_circuit(),
}


def _load_index(path: Path, obs=None):
    """A database index: load a saved one, or build from FASTA."""
    from .service import DatabaseIndex

    if path.suffix in (".idx", ".npz"):
        return DatabaseIndex.load(path, obs=obs)
    return DatabaseIndex.from_fasta(path)


def _build_engine(args, obs=None):
    """Engine shared by the ``serve``/``batch`` commands.

    Every ``--workers N>1`` sweep runs on the supervised pool: worker
    death and hung sweeps are retried with backoff, repeat offenders
    are quarantined, and the engine degrades to the in-process path
    rather than failing the request.  ``--retries``/``--timeout``
    (serve) only tune that supervision — except that with
    ``--workers 1`` either flag still runs the sweep supervised in a
    subprocess, where without them a single worker sweeps in-process.
    ``obs`` (serve) is a live observability bundle threaded through the
    index load, the pool, and the engine.
    """
    from .service import IndexManager, ResultCache, SearchEngine, WorkerSpec

    spec = WorkerSpec(args.kernel, elements=args.elements)
    pool = None
    retries = getattr(args, "retries", None)
    timeout = getattr(args, "timeout", None)
    if retries is not None or timeout is not None:
        from .service import RetryPolicy, SupervisedWorkerPool

        policy = RetryPolicy() if retries is None else RetryPolicy(retries=retries)
        pool = SupervisedWorkerPool(
            workers=args.workers, spec=spec, policy=policy, task_timeout=timeout
        )
    # The manager keeps a loader bound to the index path so hot reload
    # (`reload` verb, --reload-signal) can re-read it under traffic.
    indexes = IndexManager(
        index=_load_index(args.database, obs=obs),
        loader=lambda: _load_index(args.database, obs=obs),
        obs=obs,
    )
    return SearchEngine(
        indexes,
        workers=args.workers,
        spec=spec,
        cache=ResultCache(0) if args.no_cache else None,
        pool=pool,
        obs=obs,
    )


@contextlib.contextmanager
def _stop_signal(reload_signal: int | None = None, reload=None):
    """Arm SIGINT/SIGTERM (and ``reload_signal``); yield the stop event.

    The serving commands start their servers inside the block, then
    wait on the event and drain.  Explicit handlers, not Python's
    default KeyboardInterrupt, so the drain also runs when the process
    was started with SIGINT ignored (the fate of every ``cmd &`` child
    of a non-interactive shell, CI steps included) and when a
    supervisor sends SIGTERM.  The handlers are armed before any port
    is announced, so a signal sent on the ``listening`` line drains.
    ``reload`` runs on a thread of its own, so a slow index load never
    holds up a stop signal.  The previous handlers return on exit.
    """
    import signal
    import threading

    stop = threading.Event()
    handlers = dict.fromkeys((signal.SIGINT, signal.SIGTERM), lambda *_: stop.set())
    if reload_signal is not None:
        handlers[reload_signal] = lambda *_: threading.Thread(
            target=reload, name="repro-reload", daemon=True
        ).start()
    previous = {sig: signal.signal(sig, handler) for sig, handler in handlers.items()}
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _start_dumper(args, snapshot):
    """The started ``--metrics-file`` dumper, or ``None`` without the flag."""
    if args.metrics_file is None:
        return None
    from .obs import PeriodicDumper

    return PeriodicDumper(snapshot, args.metrics_file, args.metrics_interval).start()


def _sequence_arg(value: str) -> str:
    """An inline sequence, or ``@path`` to the first FASTA record."""
    if value.startswith("@"):
        records = read_fasta(value[1:])
        if not records:
            raise argparse.ArgumentTypeError(f"no records in {value[1:]}")
        return records[0].sequence
    return value.upper()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reconfigurable Architecture for Biological "
            "Sequence Comparison in Reduced Memory Space' (IPDPS 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two sequences (co-design pipeline)")
    p_align.add_argument("query", type=_sequence_arg, help="sequence or @file.fasta")
    p_align.add_argument("database", type=_sequence_arg, help="sequence or @file.fasta")
    p_align.add_argument("--elements", type=int, default=100, help="array size")
    p_align.add_argument("--match", type=int, default=1)
    p_align.add_argument("--mismatch", type=int, default=-1)
    p_align.add_argument("--gap", type=int, default=-2)
    p_align.add_argument(
        "--engine", choices=("emulator", "rtl"), default="emulator"
    )

    p_scan = sub.add_parser("scan", help="scan a query against a FASTA database")
    p_scan.add_argument("query", type=_sequence_arg)
    p_scan.add_argument("database", type=Path, help="multi-record FASTA file")
    p_scan.add_argument("--elements", type=int, default=100)
    p_scan.add_argument("--top", type=int, default=10)
    p_scan.add_argument("--min-score", type=int, default=1)
    p_scan.add_argument("--retrieve", type=int, default=3)
    p_scan.add_argument(
        "--evalues",
        action="store_true",
        help="calibrate Karlin-Altschul statistics and report E-values",
    )
    p_scan.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep shards on N worker processes via the search engine",
    )
    p_scan.add_argument(
        "--no-cache",
        action="store_true",
        help="route through the search engine with the result cache disabled",
    )
    p_scan.add_argument(
        "--kernel",
        choices=available_backends(),
        default="hw-sim",
        help="locate-kernel backend (default: hw-sim, the simulated array)",
    )

    p_index = sub.add_parser("index", help="build a persistent sharded database index")
    p_index.add_argument(
        "database", type=Path,
        help="multi-record FASTA file (with --verify: a saved .idx/.npz index)",
    )
    p_index.add_argument("--out", type=Path, default=None, help="index file to write")
    p_index.add_argument(
        "--shard-bp", type=int, default=None, help="target encoded bp per shard"
    )
    p_index.add_argument(
        "--verify",
        action="store_true",
        help=(
            "verify an existing index instead of building one: re-check "
            "every shard's sha256 digest and exit nonzero on corruption"
        ),
    )

    p_serve = sub.add_parser("serve", help="serve a database over the TCP wire protocol")
    p_serve.add_argument("database", type=Path, help="FASTA file or saved index (.idx/.npz)")
    p_serve.add_argument("--workers", type=int, default=1)
    p_serve.add_argument("--top", type=int, default=10)
    p_serve.add_argument("--min-score", type=int, default=1)
    p_serve.add_argument("--retrieve", type=int, default=0)
    p_serve.add_argument("--no-cache", action="store_true")
    p_serve.add_argument(
        "--kernel",
        choices=available_backends(),
        default=None,
        help="locate-kernel backend workers sweep with (default: "
        "REPRO_KERNEL, else numpy-striped)",
    )
    p_serve.add_argument("--elements", type=int, default=100)
    p_serve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retry failed shard sweeps up to N times (supervises even "
        "--workers 1)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="kill and retry a shard sweep exceeding this many seconds",
    )
    p_serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured logging to stderr at this level",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects instead of key=value pairs",
    )
    p_serve.add_argument(
        "--metrics-file",
        type=Path,
        default=None,
        help="periodically dump a JSON metrics snapshot to this file",
    )
    p_serve.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="minimum seconds between --metrics-file dumps (default 5)",
    )
    p_serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        required=True,
        help="serve the wire protocol on this TCP address (port 0 picks a free one)",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="TCP micro-batching window in seconds (0 disables coalescing)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="TCP backpressure bound: reject search requests beyond this many in flight",
    )
    p_serve.add_argument(
        "--static-inflight",
        action="store_true",
        help=(
            "disable adaptive admission: keep --max-inflight as a fixed bound "
            "instead of the AIMD limit that shrinks on deadline misses"
        ),
    )
    p_serve.add_argument(
        "--reload-signal",
        choices=("hup", "usr1", "usr2"),
        default=None,
        help=(
            "hot-reload the index from disk on this signal "
            "(e.g. --reload-signal hup, then kill -HUP <pid>)"
        ),
    )
    p_serve.add_argument(
        "--ingest-dir",
        type=Path,
        default=None,
        help=(
            "enable WAL-backed streaming ingest: journal, "
            "seal and compact live records in this directory; recovery "
            "replays it on startup"
        ),
    )
    p_serve.add_argument(
        "--seal-every",
        type=int,
        default=64,
        help="records per journal segment before a seal/compact/publish cycle",
    )

    p_query = sub.add_parser("query", help="query a running serve --tcp server")
    p_query.add_argument("address", help="server address as HOST:PORT")
    p_query.add_argument(
        "query", type=_sequence_arg, nargs="?", default=None,
        help="sequence or @file.fasta (omit with --stats)",
    )
    p_query.add_argument("--top", type=int, default=10)
    p_query.add_argument("--min-score", type=int, default=1)
    p_query.add_argument("--retrieve", type=int, default=0)
    p_query.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="end-to-end deadline budget in milliseconds (protocol v2)",
    )
    p_query.add_argument(
        "--kernel",
        choices=available_backends(),
        default=None,
        help="kernel backend the server must sweep with (protocol v2)",
    )
    p_query.add_argument(
        "--metrics", action="store_true", help="print per-request service metrics"
    )
    p_query.add_argument(
        "--stats", action="store_true", help="print the server's stats summary instead"
    )
    p_query.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    p_query.add_argument(
        "--retries", type=int, default=2, help="retries on transient failures"
    )
    p_query.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when the response is degraded (coverage < 1.0)",
    )

    p_ingest = sub.add_parser(
        "ingest", help="stream FASTA records into a running serve --tcp server"
    )
    p_ingest.add_argument("address", help="server address as HOST:PORT")
    p_ingest.add_argument(
        "records", type=Path, help="multi-record FASTA file to stream in"
    )
    p_ingest.add_argument(
        "--timeout", type=float, default=30.0, help="socket timeout in seconds"
    )
    p_ingest.add_argument(
        "--retries", type=int, default=2, help="retries on transient failures"
    )

    p_batch = sub.add_parser("batch", help="run a FASTA file of queries in one batch")
    p_batch.add_argument("queries", type=Path, help="multi-record FASTA of queries")
    p_batch.add_argument("database", type=Path, help="FASTA file or saved index (.idx/.npz)")
    p_batch.add_argument("--workers", type=int, default=1)
    p_batch.add_argument("--top", type=int, default=10)
    p_batch.add_argument("--min-score", type=int, default=1)
    p_batch.add_argument("--retrieve", type=int, default=0)
    p_batch.add_argument("--no-cache", action="store_true")
    p_batch.add_argument(
        "--kernel",
        choices=available_backends(),
        default=None,
        help="locate-kernel backend workers sweep with (default: "
        "REPRO_KERNEL, else numpy-striped)",
    )
    p_batch.add_argument("--elements", type=int, default=100)
    p_batch.add_argument(
        "--metrics", action="store_true", help="print per-request service metrics"
    )

    p_cluster = sub.add_parser(
        "cluster", help="partition, serve and query a multi-node search cluster"
    )
    csub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    c_part = csub.add_parser(
        "partition", help="split a database into per-node sub-indexes + manifest"
    )
    c_part.add_argument("database", type=Path, help="FASTA file or saved index (.idx/.npz)")
    c_part.add_argument("outdir", type=Path, help="directory for node indexes + manifest")
    c_part.add_argument("--nodes", type=int, default=2, help="shard node count")
    c_part.add_argument(
        "--shard-bp", type=int, default=None, help="target encoded bp per node shard"
    )

    c_serve = csub.add_parser(
        "serve", help="serve every node of a partitioned cluster locally"
    )
    c_serve.add_argument("manifest", type=Path, help="cluster.json from `cluster partition`")
    c_serve.add_argument("--host", default="127.0.0.1")
    c_serve.add_argument("--workers", type=int, default=1, help="sweep workers per node")
    c_serve.add_argument(
        "--kernel",
        choices=available_backends(),
        default=None,
        help="locate-kernel backend every node sweeps with (default: "
        "REPRO_KERNEL, else numpy-striped)",
    )
    c_serve.add_argument(
        "--batch-window", type=float, default=0.002, help="per-node micro-batch window"
    )
    c_serve.add_argument(
        "--out", type=Path, default=None,
        help="write the bound manifest here (default: update the manifest in place)",
    )
    c_serve.add_argument(
        "--metrics-file",
        type=Path,
        default=None,
        help="periodically dump an aggregated fleet metrics snapshot to this file",
    )
    c_serve.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="minimum seconds between --metrics-file dumps (default 5)",
    )

    c_query = csub.add_parser("query", help="scatter-gather query a running cluster")
    c_query.add_argument(
        "cluster",
        help="cluster manifest path, or comma-separated node addresses host:port,...",
    )
    c_query.add_argument("query", type=_sequence_arg, help="sequence or @file.fasta")
    c_query.add_argument("--top", type=int, default=10)
    c_query.add_argument("--min-score", type=int, default=1)
    c_query.add_argument("--retrieve", type=int, default=0)
    c_query.add_argument(
        "--deadline-ms", type=int, default=None, help="end-to-end budget in milliseconds"
    )
    c_query.add_argument(
        "--kernel",
        choices=available_backends(),
        default=None,
        help="kernel backend every node must sweep with",
    )
    c_query.add_argument(
        "--metrics", action="store_true", help="print merged per-request metrics"
    )
    c_query.add_argument("--timeout", type=float, default=30.0)
    c_query.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when the merged response is degraded (coverage < 1.0)",
    )
    c_query.add_argument(
        "--trace",
        action="store_true",
        help="print the stitched cross-node trace of this query",
    )

    c_health = csub.add_parser("health", help="per-node liveness of a running cluster")
    c_health.add_argument(
        "cluster",
        help="cluster manifest path, or comma-separated node addresses host:port,...",
    )
    c_health.add_argument("--timeout", type=float, default=10.0)

    c_trace = csub.add_parser(
        "trace", help="fetch and stitch a cross-node trace from a running cluster"
    )
    c_trace.add_argument(
        "cluster",
        help="cluster manifest path, or comma-separated node addresses host:port,...",
    )
    c_trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id (from `cluster query --trace`); omitted = per-node listing",
    )
    c_trace.add_argument("--timeout", type=float, default=10.0)

    c_stats = csub.add_parser(
        "stats", help="aggregated fleet metrics scraped from every node"
    )
    c_stats.add_argument(
        "cluster",
        help="cluster manifest path, or comma-separated node addresses host:port,...",
    )
    c_stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the JSON fleet snapshot instead of the Prometheus exposition",
    )
    c_stats.add_argument("--timeout", type=float, default=10.0)

    c_slo = csub.add_parser(
        "slo", help="probe a running cluster and gate on SLO burn rates"
    )
    c_slo.add_argument(
        "cluster",
        help="cluster manifest path, or comma-separated node addresses host:port,...",
    )
    c_slo.add_argument("query", type=_sequence_arg, help="probe sequence or @file.fasta")
    c_slo.add_argument("--probes", type=int, default=20, help="probe query count")
    c_slo.add_argument(
        "--target", type=float, default=0.99, help="good-request fraction per objective"
    )
    c_slo.add_argument(
        "--p99-seconds",
        type=float,
        default=1.0,
        help="latency objective threshold in seconds",
    )
    c_slo.add_argument(
        "--coverage-floor",
        type=float,
        default=0.999,
        help="minimum coverage for a probe to count as good",
    )
    c_slo.add_argument("--timeout", type=float, default=10.0)

    p_fig = sub.add_parser("figures", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=sorted(_FIGURES), help="figure number")

    p_design = sub.add_parser("design", help="resource/clock model for an array size")
    p_design.add_argument("--elements", type=int, default=100)

    p_verify = sub.add_parser("verify", help="random-vector RTL verification campaign")
    p_verify.add_argument("--vectors", type=int, default=25)
    p_verify.add_argument("--seed", type=int, default=0)

    p_verilog = sub.add_parser("verilog", help="emit generated Verilog")
    p_verilog.add_argument(
        "unit",
        choices=("pe", "affine-pe", "array", "controller"),
        help="which generated unit to emit",
    )
    p_verilog.add_argument("--elements", type=int, default=8)
    p_verilog.add_argument("--score-width", type=int, default=16)

    p_report = sub.add_parser("report", help="regenerate the reproduction report")
    p_report.add_argument("--out", type=Path, default=None, help="write to a file")

    p_stats = sub.add_parser(
        "stats", help="render a metrics snapshot dumped by serve --metrics-file"
    )
    p_stats.add_argument("metrics_file", type=Path, help="JSON snapshot file")
    return parser


def _strict_exit(response, strict: bool) -> int:
    """Exit code for a printed response under ``--strict``.

    A degraded answer (coverage < 1.0: some shard or node could not be
    swept) is still printed — partial truth beats silence — but strict
    callers (CI gates, scripted pipelines) get a nonzero exit and a
    stderr note naming the missing coverage.
    """
    if strict and response.degraded:
        shards = ",".join(map(str, response.degraded_shards)) or "?"
        print(
            f"error degraded coverage={response.coverage:.3f} "
            f"shards={shards} (--strict)",
            file=sys.stderr,
        )
        return 2
    return 0


def _slo_objectives(args):
    """The three CLI-tunable objectives for ``repro cluster slo``."""
    from .obs import ServiceObjective

    return (
        ServiceObjective("availability", "availability", args.target),
        ServiceObjective("latency_p99", "latency", args.target, args.p99_seconds),
        ServiceObjective("coverage", "coverage", args.target, args.coverage_floor),
    )


def _cluster_client(args, **kwargs):
    """A :class:`ClusterCoordinator` from a manifest path or an address list."""
    from .service.cluster import ClusterCoordinator, ClusterTopology

    target = args.cluster
    if "," in target or (":" in target and not Path(target).exists()):
        addresses = [address.strip() for address in target.split(",") if address.strip()]
        return ClusterCoordinator.from_addresses(
            addresses, timeout=args.timeout, **kwargs
        )
    return ClusterCoordinator(
        ClusterTopology.load(target), timeout=args.timeout, **kwargs
    )


def _cmd_cluster(args) -> int:
    """The ``repro cluster`` sub-commands: partition / serve / query / health."""
    from .service import QueryOptions, ServiceError
    from .service.protocol import classify_exception, format_error_line

    if args.cluster_command == "partition":
        from .service.cluster import write_partition
        from .service.index import DEFAULT_SHARD_BP

        topology = write_partition(
            _load_index(args.database),
            args.nodes,
            args.outdir,
            shard_bp=args.shard_bp or DEFAULT_SHARD_BP,
        )
        for spec in topology.nodes:
            if spec.empty:
                print(f"node {spec.node_id}: empty span (more nodes than records)")
            else:
                print(
                    f"node {spec.node_id}: records [{spec.start}, {spec.stop}) "
                    f"-> {spec.index_path}"
                )
        manifest_path = args.outdir / "cluster.json"
        topology.save(manifest_path)
        print(f"wrote {manifest_path}")
        return 0

    if args.cluster_command == "serve":
        from .obs import MetricsAggregator, Observability
        from .service import DatabaseIndex, SearchEngine, WorkerSpec
        from .service.cluster import ClusterTopology
        from .service.net import ServerConfig, ServerThread

        topology = ClusterTopology.load(args.manifest)
        servers: list[ServerThread] = []
        addresses: list[str] = []
        registries = {}
        dumper = None
        with _stop_signal() as stop:
            try:
                for spec in topology.nodes:
                    if spec.empty:
                        addresses.append("")
                        continue
                    if not spec.index_path:
                        print(
                            f"error bad-request node {spec.node_id} has no index_path "
                            "(re-run `repro cluster partition`)",
                            file=sys.stderr,
                        )
                        return 1
                    # Each node gets its own obs bundle, like a separate
                    # process would: its `metrics` verb answers with its
                    # own registry, which `repro cluster stats` aggregates.
                    node_obs = Observability.create()
                    registries[str(spec.node_id)] = node_obs.registry
                    engine = SearchEngine(
                        DatabaseIndex.load(spec.index_path),
                        workers=args.workers,
                        spec=WorkerSpec(args.kernel),
                        obs=node_obs,
                    )
                    server = ServerThread(
                        engine,
                        config=ServerConfig(
                            host=args.host, port=0, batch_window=args.batch_window
                        ),
                        obs=node_obs,
                    ).start()
                    servers.append(server)
                    address = f"{server.host}:{server.port}"
                    addresses.append(address)
                    print(
                        f"node {spec.node_id} listening on {address} "
                        f"(records [{spec.start}, {spec.stop}))",
                        flush=True,
                    )
                bound = topology.with_addresses(addresses)
                out_path = args.out if args.out is not None else args.manifest
                bound.save(out_path)
                print(
                    f"cluster ready nodes={len(servers)} manifest={out_path}", flush=True
                )
                aggregator = MetricsAggregator.from_registries(registries)
                dumper = _start_dumper(args, lambda: aggregator.scrape().snapshot())
                stop.wait()
            finally:
                for server in servers:
                    server.stop()
                if dumper is not None:
                    dumper.stop()  # the final fleet view, after the drain
        served = sum(server.server.served for server in servers)
        print(f"cluster drained; served {served} requests")
        return 0

    # Commands whose output is the trace or SLO machinery itself need a
    # live obs bundle on the coordinator; plain query/health stay null
    # unless asked to trace.  `cluster slo` hands the coordinator its
    # tracker, so every probe feeds it through the one search path.
    kwargs: dict = {}
    if args.cluster_command == "slo" or getattr(args, "trace", False):
        from .obs import Observability

        kwargs["obs"] = Observability.create()
    if args.cluster_command == "slo":
        from .obs import SloTracker

        # Probe-run windows: everything lands in both windows, so the
        # gate is simply "did the bad fraction burn the budget".
        kwargs["slo"] = SloTracker(
            objectives=_slo_objectives(args),
            fast_window=3600.0,
            slow_window=3600.0,
            registry=kwargs["obs"].registry,
        )
    try:
        client = _cluster_client(args, **kwargs)
    except (ServiceError, ConnectionError, OSError, EOFError, ValueError) as exc:
        print(format_error_line(*classify_exception(exc)), file=sys.stderr)
        return 1

    if args.cluster_command == "health":
        with client:
            health = client.health()
            print(f"{'status':>12} : {health['status']}")
            print(f"{'healthy':>12} : {health['healthy']}")
            print(f"{'ready':>12} : {health['ready']}")
            print(f"{'nodes up':>12} : {health['nodes_up']}/{len(health['nodes'])}")
            for node_id, node in sorted(health["nodes"].items(), key=lambda kv: int(kv[0])):
                state = "up" if node["up"] else "DOWN"
                print(
                    f"{'node ' + node_id:>12} : {state} {node['address']} "
                    f"({node['records']} records, breaker {node['breaker']})"
                )
            # "ok" is the only zero-exit verdict: a degraded cluster
            # still answers queries, but whoever scripted this check
            # wants to know coverage is partial.
            return 0 if health["status"] == "ok" else 1

    if args.cluster_command == "trace":
        with client:
            try:
                print(client.trace(args.trace_id))
            except ValueError as exc:
                print(f"error not-found {exc}", file=sys.stderr)
                return 1
            return 0

    if args.cluster_command == "stats":
        import json as json_mod

        with client:
            try:
                # One scrape feeds both the output and the exit code, so
                # a node dying mid-command cannot make them disagree.
                view = client.aggregator.scrape()
                if args.as_json:
                    print(json_mod.dumps(view.snapshot(), indent=2, sort_keys=True))
                else:
                    print(view.render_prometheus(), end="")
            except (ServiceError, ConnectionError, OSError, EOFError) as exc:
                print(format_error_line(*classify_exception(exc)), file=sys.stderr)
                return 1
            # Mirrors `cluster health`: a fleet view missing nodes is
            # printed (partial truth beats silence) but exits nonzero.
            return 0 if not view.failed else 1

    if args.cluster_command == "slo":
        with client:
            for _ in range(max(1, args.probes)):
                try:
                    client.search(args.query, QueryOptions(top=5))
                except (ServiceError, ConnectionError, OSError, EOFError, ValueError):
                    pass  # the coordinator's tracker has counted the failure
            statuses = client.slo.evaluate()
            for status in statuses:
                print(status.describe())
            healthy = all(not status.firing for status in statuses)
            print(f"slo {'ok' if healthy else 'FIRING'} probes={max(1, args.probes)}")
            return 0 if healthy else 1

    # cluster query
    try:
        with client:
            response = client.search(
                args.query,
                QueryOptions(
                    top=args.top,
                    min_score=args.min_score,
                    retrieve=args.retrieve,
                    deadline_ms=args.deadline_ms,
                    kernel=args.kernel,
                ),
            )
            print(response.render(max_rows=args.top, with_metrics=args.metrics))
            for hit in response.report.hits:
                if hit.alignment is not None:
                    print()
                    print(f">{hit.record}")
                    print(hit.alignment.pretty())
            if args.trace and client.last_trace_id:
                print()
                print(f"trace {client.last_trace_id}")
                print(client.trace(client.last_trace_id))
            return _strict_exit(response, args.strict)
    except (ServiceError, ConnectionError, OSError, EOFError, ValueError) as exc:
        print(format_error_line(*classify_exception(exc)), file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "align":
        scheme = LinearScoring(args.match, args.mismatch, args.gap)
        acc = SWAccelerator(
            elements=args.elements, scheme=scheme, engine=args.engine
        )
        result = local_align_linear(args.query, args.database, scheme, acc.locate)
        print(result.alignment.pretty())
        return 0

    if args.command == "scan":
        statistics = None
        if args.evalues:
            from .analysis.stats import calibrate

            statistics = calibrate(trials=40, seed=0)
        from .service import WorkerSpec

        spec = WorkerSpec(args.kernel, elements=args.elements)
        if args.workers is None and not args.no_cache:
            # One-shot path: parse + sweep inline.
            records = read_fasta(args.database)
            report = scan_database(
                args.query,
                records,
                kernel=spec.make_backend(DEFAULT_DNA),
                top=args.top,
                min_score=args.min_score,
                retrieve=args.retrieve,
                statistics=statistics,
            )
        else:
            from .service import QueryOptions, ResultCache, SearchEngine

            engine = SearchEngine(
                _load_index(args.database),
                workers=1 if args.workers is None else args.workers,
                spec=spec,
                cache=ResultCache(0) if args.no_cache else None,
                statistics=statistics,
            )
            report = engine.search(
                args.query,
                QueryOptions(
                    top=args.top, min_score=args.min_score, retrieve=args.retrieve
                ),
            ).report
        print(report.render(max_rows=args.top))
        for hit in report.hits:
            if hit.alignment is not None:
                print()
                print(f">{hit.record}")
                print(hit.alignment.pretty())
        return 0

    if args.command == "index":
        from .service import DatabaseIndex
        from .service.index import DEFAULT_SHARD_BP, IndexFormatError

        if args.verify:
            # Verification loads with quarantine-on-corruption so one
            # bad shard doesn't mask the state of the others: every
            # shard's digest is re-checked and reported.
            try:
                index = DatabaseIndex.load(args.database, on_corrupt="quarantine")
            except (IndexFormatError, OSError) as exc:
                print(f"error index-corrupt {exc}", file=sys.stderr)
                return 1
            bad = sorted(index.degraded)
            for key, value in index.describe().items():
                print(f"{key:>10} : {value}")
            status = f"FAILED shards {bad}" if bad else "ok"
            print(f"{'verify':>10} : {status}")
            return 1 if bad else 0
        if args.out is None:
            print("error bad-request --out is required without --verify",
                  file=sys.stderr)
            return 1
        index = DatabaseIndex.from_fasta(
            args.database, shard_bp=args.shard_bp or DEFAULT_SHARD_BP
        )
        index.save(args.out)
        for key, value in index.describe().items():
            print(f"{key:>10} : {value}")
        print(f"{'wrote':>10} : {args.out}")
        return 0

    if args.command == "serve":
        from .obs import Observability, configure_logging
        from .service import QueryOptions
        from .service.net import ServerConfig, ServerThread

        if args.log_level is not None or args.log_json:
            configure_logging(args.log_level or "info", json_lines=args.log_json)
        obs = Observability.create()
        defaults = QueryOptions(
            top=args.top, min_score=args.min_score, retrieve=args.retrieve
        )
        engine = _build_engine(args, obs=obs)
        if args.ingest_dir is not None:
            from .service.ingest import IngestService

            # Recovery replays the journal before the socket opens, so
            # everything acknowledged before a crash is served from the
            # first request onward.
            ingest_service = IngestService(
                engine.indexes,
                args.ingest_dir,
                seal_every=args.seal_every,
                obs=obs,
            )
            engine.attach_ingest(ingest_service)
        host, _, port = args.tcp.rpartition(":")
        config = ServerConfig(
            host=host or "127.0.0.1",
            port=int(port),
            batch_window=args.batch_window,
            max_inflight=args.max_inflight,
            adaptive=not args.static_inflight,
        )
        reload_signal = None
        if args.reload_signal is not None:
            import signal

            reload_signal = getattr(signal, f"SIG{args.reload_signal.upper()}")

        def _reload() -> None:
            try:
                engine.reload_index()
            except Exception as exc:  # noqa: BLE001 - the old generation keeps serving
                obs.log.error("net.reload-failed", error=str(exc))

        server = ServerThread(engine, config=config, defaults=defaults, obs=obs)
        with _stop_signal(reload_signal, _reload) as stop:
            server.start()
            print(f"listening on {server.host}:{server.port}", flush=True)
            dumper = _start_dumper(args, obs.registry.snapshot)
            try:
                stop.wait()
            finally:
                server.stop()
                if dumper is not None:
                    dumper.stop()  # the final snapshot, after the drain
        print(f"served {server.server.served} requests")
        return 0

    if args.command == "query":
        from .service import QueryOptions, ServiceError
        from .service.client import SearchClient
        from .service.protocol import classify_exception, format_error_line
        from .service.resilience import RetryPolicy

        client = SearchClient(
            args.address,
            defaults=QueryOptions(
                top=args.top,
                min_score=args.min_score,
                retrieve=args.retrieve,
                deadline_ms=args.deadline_ms,
                kernel=args.kernel,
            ),
            retry=RetryPolicy(retries=args.retries),
            timeout=args.timeout,
        )
        try:
            with client:
                if args.stats:
                    for key, value in client.stats().items():
                        print(f"{key:>16} : {value}")
                    return 0
                if args.query is None:
                    print("error bad-request query is required without --stats",
                          file=sys.stderr)
                    return 1
                response = client.search(args.query)
                print(response.render(max_rows=args.top, with_metrics=args.metrics))
                for hit in response.report.hits:
                    if hit.alignment is not None:
                        print()
                        print(f">{hit.record}")
                        print(hit.alignment.pretty())
                return _strict_exit(response, args.strict)
        except (ServiceError, ConnectionError, OSError, EOFError) as exc:
            print(format_error_line(*classify_exception(exc)), file=sys.stderr)
            return 1

    if args.command == "ingest":
        from .io.fasta import stream_fasta
        from .service import ServiceError
        from .service.client import SearchClient
        from .service.protocol import classify_exception, format_error_line
        from .service.resilience import RetryPolicy

        client = SearchClient(
            args.address,
            retry=RetryPolicy(retries=args.retries),
            timeout=args.timeout,
        )
        sent = 0
        try:
            with client:
                for record in stream_fasta(args.records):
                    ack = client.ingest(
                        record.identifier or record.header, record.sequence
                    )
                    sent += 1
                    print(
                        f"acked {record.identifier or record.header} "
                        f"segment={ack.get('segment')} seq={ack.get('seq')} "
                        f"pending={ack.get('pending')} "
                        f"generation={ack.get('generation')}"
                    )
        except ValueError as exc:
            # A torn/garbled FASTA file must not half-ingest silently.
            print(f"error bad-request {exc} ({sent} records acked)",
                  file=sys.stderr)
            return 1
        except (ServiceError, ConnectionError, OSError, EOFError) as exc:
            code, message = classify_exception(exc)
            print(
                format_error_line(code, f"{message} ({sent} records acked)"),
                file=sys.stderr,
            )
            return 1
        print(f"ingested {sent} records")
        return 0

    if args.command == "batch":
        queries = read_fasta(args.queries)
        if not queries:
            print("no query records", file=sys.stderr)
            return 1
        from .service import QueryOptions

        engine = _build_engine(args)
        responses = engine.search_batch(
            [q.sequence for q in queries],
            QueryOptions(
                top=args.top, min_score=args.min_score, retrieve=args.retrieve
            ),
        )
        for record, response in zip(queries, responses):
            print(f"# query {record.identifier or '<unnamed>'}")
            print(response.render(max_rows=args.top, with_metrics=args.metrics))
            print()
        return 0

    if args.command == "cluster":
        return _cmd_cluster(args)

    if args.command == "figures":
        print(_FIGURES[args.number]())
        return 0

    if args.command == "design":
        row = PROTOTYPE_MODEL.table2(args.elements)
        for key, value in row.items():
            print(f"{key:>14} : {value}")
        print(f"{'max elements':>14} : {PROTOTYPE_MODEL.max_elements()}")
        return 0

    if args.command == "verilog":
        from .hdl.builders import (
            build_affine_pe_module,
            build_array_module,
            build_controller_module,
            build_pe_module,
        )
        from .hdl.verilog import emit_verilog, lint_verilog

        if args.unit == "pe":
            module = build_pe_module(score_width=args.score_width)
        elif args.unit == "affine-pe":
            module = build_affine_pe_module(score_width=args.score_width)
        elif args.unit == "controller":
            module = build_controller_module(args.elements, score_width=args.score_width)
        else:
            module = build_array_module(args.elements, score_width=args.score_width)
        text = emit_verilog(module)
        problems = lint_verilog(text)
        if problems:  # pragma: no cover - emitter is lint-clean by test
            print("\n".join(f"// LINT: {p}" for p in problems))
        print(text)
        return 0

    if args.command == "report":
        from .analysis.summary import build_report, write_report

        if args.out is not None:
            write_report(args.out)
            print(f"wrote {args.out}")
        else:
            print(build_report())
        return 0

    if args.command == "stats":
        import json as json_mod

        from .analysis.report import render_kv, render_table

        snapshot = json_mod.loads(args.metrics_file.read_text())
        if "fleet" in snapshot and "nodes" in snapshot:
            # A fleet snapshot from `cluster serve --metrics-file`.
            print(
                render_kv(
                    sorted(snapshot["fleet"].items()), title="fleet rollups"
                )
            )
            rows = []
            for node, state in sorted(snapshot["nodes"].items()):
                if state.get("ok"):
                    scalars = state.get("scalars", {})
                    rows.append(
                        [
                            node,
                            "up",
                            f"{scalars.get('repro_requests_total', 0.0):g}",
                            f"{scalars.get('repro_sustained_cups', 0.0):g}",
                        ]
                    )
                else:
                    rows.append([node, f"DOWN ({state.get('error', '?')})", "-", "-"])
            if rows:
                print()
                print(
                    render_table(
                        ["node", "state", "requests", "sustained cups"], rows
                    )
                )
            histograms = snapshot.get("histograms", {})
            if histograms:
                print()
                print(
                    render_table(
                        ["histogram", "count", "sum s", "p50 s", "p90 s", "p99 s"],
                        [
                            [
                                name,
                                f"{h['count']:g}",
                                f"{h['sum']:.3f}",
                                f"{h['p50']:.4f}",
                                f"{h['p90']:.4f}",
                                f"{h['p99']:.4f}",
                            ]
                            for name, h in sorted(histograms.items())
                        ],
                    )
                )
            return 0
        scalars = [
            (name, value)
            for section in ("counters", "gauges")
            for name, value in sorted(snapshot.get(section, {}).items())
        ]
        if scalars:
            print(render_kv(scalars, title="counters / gauges"))
        histograms = snapshot.get("histograms", {})
        if histograms:
            print()
            print(
                render_table(
                    ["histogram", "count", "sum s", "p50 s", "p90 s", "p99 s"],
                    [
                        [
                            name,
                            data["count"],
                            f"{data['sum']:.4g}",
                            f"{data['p50']:.4g}",
                            f"{data['p90']:.4g}",
                            f"{data['p99']:.4g}",
                        ]
                        for name, data in sorted(histograms.items())
                    ],
                )
            )
        if not scalars and not histograms:
            print("no metrics in snapshot")
        return 0

    if args.command == "verify":
        report = random_vector_campaign(vectors=args.vectors, seed=args.seed)
        print(f"{report.vectors} vectors, {len(report.failures)} failures")
        for failure in report.failures:
            print(f"  FAIL {failure.query} vs {failure.database}: {failure.detail}")
        return 0 if report.all_passed else 1

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
