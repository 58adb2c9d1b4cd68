"""Experiment SV2 — fault-tolerance overhead, recovery latency, and
degraded-mode throughput.

The supervision layer's claim is that resilience is cheap on the happy
path and bounded on the sad path: a supervised sweep with no faults
sets the baseline, a single worker crash should cost roughly
one retry backoff plus one shard re-sweep (not a full restart), and a
permanently lost shard should keep the service answering at reduced
coverage instead of failing the request.

Workload: a 100 BP query against a synthetic ~2 MBP database sharded
eight ways — override the size with the ``REPRO_FAULT_BENCH_MBP``
environment variable.  Faults are injected deterministically with
:class:`~repro.service.resilience.FaultPlan`, so every run measures the
same failure schedule.

Both scenarios run with a live metrics registry and cross-check the
telemetry against the injected schedule (``retries_total`` > 0 on the
crash run, ``quarantines_total`` > 0 and a nonzero ``degraded_shards``
gauge on the lost-shard run).  Machine-readable copies of the numbers
land in ``BENCH_fault_tolerance.json`` / ``BENCH_degraded_mode.json``
via :mod:`repro.analysis.results`.  ``python
benchmarks/bench_fault_tolerance.py --tiny`` runs a seconds-scale
smoke of all scenarios.

Experiment RB1 measures the client-side circuit breaker: a served
engine fault-loops for a window of requests (every call burns a
timeout-sized delay before failing) and the same request stream is
replayed with the breaker off and on.  The breaker run must show a
lower p99 latency (requests fail fast instead of queueing behind the
dead endpoint) and higher goodput (successful answers per wall-clock
second), with identical rankings on the healthy portion.  Numbers land
in ``BENCH_robustness.json``.
"""

import os
import time

import pytest

from repro.analysis.report import render_table
from repro.analysis.results import write_bench_json
from repro.io.generate import random_dna
from repro.obs import Observability
from repro.scan import scan_database
from repro.service import (
    CircuitBreaker,
    DatabaseIndex,
    FaultPlan,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    SearchClient,
    SearchEngine,
    ServiceError,
    ShardFailure,
    SupervisedWorkerPool,
)
from repro.service.net import ServerConfig, ServerThread

DB_MBP = float(os.environ.get("REPRO_FAULT_BENCH_MBP", "2"))
RECORD_BP = 5_000
N_RECORDS = max(8, int(DB_MBP * 1e6 / RECORD_BP))
SHARDS = 8
QUERY_BP = 100

QUERY = random_dna(QUERY_BP, seed=23)

POLICY = RetryPolicy(retries=2, base_delay=0.02, max_delay=0.1, jitter=0.5, seed=3)


def _build_workload(n_records=N_RECORDS, record_bp=RECORD_BP, shards=SHARDS):
    records = [
        (f"rec{i}", random_dna(record_bp, seed=2_000 + i)) for i in range(n_records)
    ]
    index = DatabaseIndex.build(
        records, shards=shards, source=f"synthetic-{n_records * record_bp / 1e6}MBP"
    )
    return records, index


@pytest.fixture(scope="module")
def workload():
    return _build_workload()


def _engine(index, plan=None, fallback=True, timeout=None, obs=None):
    pool = SupervisedWorkerPool(
        workers=4,
        policy=POLICY,
        task_timeout=timeout,
        fault_plan=plan,
        quarantine_after=1,
    )
    return SearchEngine(
        index, pool=pool, cache=ResultCache(0), fallback_scan=fallback, obs=obs
    )


def run_sv2_recovery(records, index):
    """One crash retried in place: bounded overhead, identical answer."""
    base = scan_database(QUERY, records, retrieve=0)
    expected = [(h.record, h.score) for h in base.hits]
    rows = []
    t0 = time.perf_counter()
    healthy = _engine(index).search(QUERY)
    healthy_seconds = time.perf_counter() - t0
    assert [(h.record, h.score) for h in healthy.report.hits] == expected
    assert healthy.coverage == 1.0
    rows.append(["supervised, no faults", f"{healthy_seconds:.3f}", "1.000", "-"])

    obs = Observability.create()
    t0 = time.perf_counter()
    crashed = _engine(index, plan=FaultPlan.crash_on(3, times=1), obs=obs).search(QUERY)
    crash_seconds = time.perf_counter() - t0
    assert [(h.record, h.score) for h in crashed.report.hits] == expected
    assert crashed.coverage == 1.0
    rows.append(
        ["crash on shard 3, retried", f"{crash_seconds:.3f}", "1.000",
         f"+{crash_seconds - healthy_seconds:.3f}s"]
    )
    # The injected crash must be visible in the telemetry.
    snapshot = obs.registry.snapshot()
    retries = snapshot["counters"]["repro_retries_total"]
    assert retries > 0, "injected crash produced no retries_total increments"
    assert snapshot["histograms"]["repro_sweep_seconds"]["count"] == 1
    payload = {
        "experiment": "SV2",
        "db_bp": index.total_bp,
        "shards": index.shard_count,
        "healthy_seconds": healthy_seconds,
        "crash_seconds": crash_seconds,
        "recovery_latency_s": crash_seconds - healthy_seconds,
        "retries_total": retries,
        "worker_deaths_total": snapshot["counters"]["repro_worker_deaths_total"],
    }
    return rows, healthy_seconds, crash_seconds, payload


def test_sv2_recovery_latency(benchmark, workload):
    records, index = workload
    rows, healthy_seconds, crash_seconds, payload = benchmark.pedantic(
        lambda: run_sv2_recovery(records, index), rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["configuration", "seconds", "coverage", "recovery cost"],
            rows,
            title=(
                f"SV2: recovery latency, {QUERY_BP} bp query vs "
                f"{N_RECORDS * RECORD_BP / 1e6:.1f} MBP ({SHARDS} shards)"
            ),
        )
    )
    write_bench_json("fault_tolerance", payload)
    # Recovery must cost bounded extra time: the backoff delays plus one
    # shard re-sweep, never a from-scratch rerun of the whole sweep.
    budget = 2.0 * healthy_seconds + sum(
        POLICY.delay(a, token=3) for a in range(POLICY.retries)
    ) + 1.0
    assert crash_seconds <= budget, (
        f"crash recovery {crash_seconds:.3f}s exceeded budget {budget:.3f}s"
    )


def run_sv2_degraded(records, index):
    """A permanently lost shard: service keeps answering at <1 coverage."""
    t0 = time.perf_counter()
    full = _engine(index).search(QUERY)
    full_seconds = time.perf_counter() - t0
    plan = FaultPlan.crash_on(5, times=None)
    obs = Observability.create()
    t0 = time.perf_counter()
    degraded = _engine(index, plan=plan, fallback=False, obs=obs).search(QUERY)
    degraded_seconds = time.perf_counter() - t0
    assert degraded.coverage < 1.0
    assert degraded.degraded_shards == (5,)
    # The permanent loss must be visible in the telemetry.
    snapshot = obs.registry.snapshot()
    quarantines = snapshot["counters"]["repro_quarantines_total"]
    assert quarantines > 0, "lost shard produced no quarantines_total increments"
    assert snapshot["gauges"]["repro_degraded_shards"] == 1
    payload = {
        "experiment": "SV2b",
        "db_bp": index.total_bp,
        "shards": index.shard_count,
        "full_seconds": full_seconds,
        "degraded_seconds": degraded_seconds,
        "coverage": degraded.coverage,
        "quarantines_total": quarantines,
        "retries_total": snapshot["counters"]["repro_retries_total"],
        "full_cells_per_s": full.report.cells / max(full_seconds, 1e-9),
        "degraded_cells_per_s": (
            degraded.report.cells / max(degraded_seconds, 1e-9)
        ),
    }
    return full, full_seconds, degraded, degraded_seconds, payload


def test_sv2_degraded_mode_throughput(benchmark, workload):
    records, index = workload
    full, full_seconds, degraded, degraded_seconds, payload = benchmark.pedantic(
        lambda: run_sv2_degraded(records, index), rounds=1, iterations=1
    )
    full_rate = full.report.cells / max(full_seconds, 1e-9)
    deg_rate = degraded.report.cells / max(degraded_seconds, 1e-9)
    print()
    print(
        render_table(
            ["mode", "seconds", "coverage", "cells/s"],
            [
                ["all shards healthy", f"{full_seconds:.3f}", "1.000",
                 f"{full_rate:.3g}"],
                ["shard 5 lost (degraded)", f"{degraded_seconds:.3f}",
                 f"{degraded.coverage:.3f}", f"{deg_rate:.3g}"],
            ],
            title="SV2b: degraded-mode throughput",
        )
    )
    write_bench_json("degraded_mode", payload)
    # Degraded mode sweeps less work; its per-cell rate must stay in the
    # same regime as the healthy sweep (no pathological retry spinning).
    assert degraded.report.records_scanned < full.report.records_scanned
    assert degraded_seconds <= full_seconds * 2.0 + sum(
        POLICY.delay(a, token=5) for a in range(POLICY.retries)
    ) + 1.0


# ----------------------------------------------------------------------
# Experiment RB1 — circuit breaker: p99 latency and goodput with one
# endpoint fault-looping.  The index is deliberately tiny: the scenario
# measures failure dynamics (queueing behind a dead endpoint vs failing
# fast), not sweep throughput.

RB1_REQUESTS = 250
RB1_FAULT_WINDOW = 100
RB1_TINY_REQUESTS = 220
RB1_TINY_FAULT_WINDOW = 40
RB1_FAULT_SECONDS = 0.05
RB1_RECOVERY_GAP = 1.2
RB1_BREAKER_THRESHOLD = 2
RB1_BREAKER_RECOVERY = 1.0
RB1_QUERY = random_dna(30, seed=77)


class _FaultLoopingEngine(SearchEngine):
    """While ``faulting`` is set, every sweep burns a timeout-sized
    delay and then fails — modelling retries piling up behind a dead
    shard.  The driver clears the flag when the fault window ends."""

    def __init__(self, *args, fault_seconds=RB1_FAULT_SECONDS, **kwargs):
        super().__init__(*args, **kwargs)
        self.faulting = True
        self.fault_seconds = fault_seconds
        self.fault_calls = 0

    def search_batch(self, queries, options=None, **kwargs):
        if self.faulting:
            self.fault_calls += 1
            time.sleep(self.fault_seconds)
            raise ShardFailure(0, "injected fault loop (RB1)")
        return super().search_batch(queries, options, **kwargs)


def _rb1_run(index, requests, fault_window, breaker=None):
    """Replay one request stream; return latency/goodput observations.

    The arrival pattern is identical with and without the breaker: the
    fault window covers the first ``fault_window`` requests, then a
    fixed recovery gap (long enough for the breaker to half-open)
    precedes the healthy tail.
    """
    engine = _FaultLoopingEngine(index, cache=ResultCache(0))
    latencies = []
    successes = 0
    errors = {}
    ranking = None
    with ServerThread(engine, config=ServerConfig(batch_window=0.0)) as handle:
        with SearchClient(
            handle.host,
            handle.port,
            retry=RetryPolicy(retries=0),
            timeout=10.0,
            breaker=breaker,
        ) as client:
            t_run = time.perf_counter()
            for i in range(requests):
                if i == fault_window:
                    engine.faulting = False
                    time.sleep(RB1_RECOVERY_GAP)
                t0 = time.perf_counter()
                try:
                    response = client.search(
                        RB1_QUERY, QueryOptions(top=3, min_score=1)
                    )
                except ServiceError as exc:
                    errors[exc.code] = errors.get(exc.code, 0) + 1
                else:
                    successes += 1
                    if ranking is None:
                        ranking = [
                            (h.record, h.score) for h in response.report.hits
                        ]
                latencies.append(time.perf_counter() - t0)
            wall = time.perf_counter() - t_run
    ordered = sorted(latencies)
    p99 = ordered[min(int(0.99 * len(ordered)), len(ordered) - 1)]
    return {
        "p99_s": p99,
        "successes": successes,
        "errors": errors,
        "wall_s": wall,
        "goodput_rps": successes / max(wall, 1e-9),
        "ranking": ranking,
        "fault_calls": engine.fault_calls,
    }


def run_rb1_breaker(index, requests=RB1_REQUESTS, fault_window=RB1_FAULT_WINDOW):
    """Breaker off vs on over the same fault schedule, with invariants."""
    off = _rb1_run(index, requests, fault_window, breaker=None)
    breaker = CircuitBreaker(
        failure_threshold=RB1_BREAKER_THRESHOLD,
        recovery_time=RB1_BREAKER_RECOVERY,
        name="rb1",
    )
    on = _rb1_run(index, requests, fault_window, breaker=breaker)

    healthy = requests - fault_window
    # Same work gets done either way; the breaker only reshapes failures.
    assert off["successes"] == healthy, off["errors"]
    assert on["successes"] == healthy, on["errors"]
    assert on["ranking"] == off["ranking"]
    # Without the breaker every windowed request pays the full fault
    # cost; with it only the first ``threshold`` do, the rest fail fast.
    assert off["errors"] == {"shard-failure": fault_window}
    assert on["errors"]["shard-failure"] == RB1_BREAKER_THRESHOLD
    assert on["errors"]["circuit-open"] == fault_window - RB1_BREAKER_THRESHOLD
    # The trip must be visible in the breaker's own telemetry.
    assert breaker.opens >= 1
    assert breaker.short_circuits == on["errors"]["circuit-open"]
    # The headline claims: failing fast beats queueing behind the dead
    # endpoint on both tail latency and answers-per-second.
    assert on["p99_s"] < off["p99_s"], (on["p99_s"], off["p99_s"])
    assert on["goodput_rps"] > off["goodput_rps"]

    rows = [
        ["breaker off", f"{off['p99_s'] * 1e3:.1f}", f"{off['goodput_rps']:.1f}",
         str(off["successes"]), str(off["errors"].get("shard-failure", 0)), "0"],
        ["breaker on", f"{on['p99_s'] * 1e3:.1f}", f"{on['goodput_rps']:.1f}",
         str(on["successes"]), str(on["errors"].get("shard-failure", 0)),
         str(on["errors"].get("circuit-open", 0))],
    ]
    payload = {
        "experiment": "RB1",
        "requests": requests,
        "fault_window": fault_window,
        "fault_seconds": RB1_FAULT_SECONDS,
        "breaker_threshold": RB1_BREAKER_THRESHOLD,
        "p99_off_s": off["p99_s"],
        "p99_on_s": on["p99_s"],
        "goodput_off_rps": off["goodput_rps"],
        "goodput_on_rps": on["goodput_rps"],
        "successes": healthy,
        "breaker_opens": breaker.opens,
        "breaker_short_circuits": breaker.short_circuits,
        "errors_off": off["errors"],
        "errors_on": on["errors"],
    }
    return rows, off, on, payload


RB1_COLUMNS = ["configuration", "p99 (ms)", "goodput (req/s)", "ok",
               "slow failures", "fast failures"]


def test_rb1_breaker_failfast(benchmark):
    _, index = _build_workload(n_records=6, record_bp=100, shards=3)
    rows, off, on, payload = benchmark.pedantic(
        lambda: run_rb1_breaker(
            index, requests=RB1_TINY_REQUESTS, fault_window=RB1_TINY_FAULT_WINDOW
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            RB1_COLUMNS,
            rows,
            title="RB1: circuit breaker vs fault-looping endpoint",
        )
    )
    write_bench_json("robustness", payload)
    assert payload["p99_on_s"] < payload["p99_off_s"]
    assert payload["goodput_on_rps"] > payload["goodput_off_rps"]


def main(argv=None):
    """Direct (non-pytest) entry point: ``--tiny`` for smoke runs."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke workload (exercises fault telemetry)",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        records, index = _build_workload(n_records=16, record_bp=1_000, shards=8)
    else:
        records, index = _build_workload()
    rows, _healthy, _crash, payload = run_sv2_recovery(records, index)
    print(
        render_table(
            ["configuration", "seconds", "coverage", "recovery cost"],
            rows,
            title=f"SV2: recovery latency ({index.total_bp / 1e6:.1f} MBP)",
        )
    )
    write_bench_json("fault_tolerance", payload)
    _full, _fs, _deg, _ds, payload = run_sv2_degraded(records, index)
    write_bench_json("degraded_mode", payload)
    _, rb1_index = _build_workload(n_records=6, record_bp=100, shards=3)
    if args.tiny:
        rb1_requests, rb1_window = RB1_TINY_REQUESTS, RB1_TINY_FAULT_WINDOW
    else:
        rb1_requests, rb1_window = RB1_REQUESTS, RB1_FAULT_WINDOW
    rows, _off, _on, payload = run_rb1_breaker(
        rb1_index, requests=rb1_requests, fault_window=rb1_window
    )
    print(
        render_table(
            RB1_COLUMNS,
            rows,
            title=(
                f"RB1: circuit breaker vs fault-looping endpoint "
                f"({rb1_requests} requests, window {rb1_window})"
            ),
        )
    )
    write_bench_json("robustness", payload)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
