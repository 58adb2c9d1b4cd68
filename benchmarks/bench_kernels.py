"""Experiments S1 + KB1 — software kernel design space and backends.

**S1** (the baseline's anatomy): the paper's speedup denominator is
"an optimized C program"; our stand-in is the NumPy row sweep.  The S1
tests measure how much each software implementation level buys — pure
Python loops, the vectorized scan kernel, the generic-DP engine — in
CUPS on the same workload, quantifying why the vectorized kernel is
the fair baseline (matching the HPC guidance: measure before
claiming).

**KB1** (kernel backends): the :mod:`repro.kernels` registry promises
that the ``numpy-striped`` backend is a drop-in for the pairwise row
sweep (:func:`~repro.align.smith_waterman.sw_locate_best` per pair,
reported under the row key ``reference``) — bit-identical
``(score, i, j)`` — while being an order of
magnitude faster on the short-record batch workload the serving stack
actually runs (many queries × many database records per shard sweep).
KB1 pins both halves of that promise:

* **identity** — both sweeps under test return identical hits over
  the whole workload (a smoke-scale version of the Hypothesis
  cross-backend property tests);
* **throughput** — sustained CUPS of one ``locate_batch`` call over
  the full query × record cross product, best of ``REPEATS`` passes.
  Acceptance: ``numpy-striped`` is at least :data:`MIN_SPEEDUP`× the
  pairwise row sweep.

KB1 runs two shapes.  The **short-record** row (many queries against
hundreds of ~100 bp records) is where batching pays most, since the
row sweep is dispatch bound there.  The **served-shape** row is
one shard sweep as ``servebench``'s cold-sweep deployment runs it: a
coalesced pair of 96 bp queries against 12 records of ~1.1 kbp, of
ragged length.  Its ratio is the gain a served sweep actually sees,
and it is gated at :data:`MIN_SERVED_SPEEDUP`.

Alongside the printed table a direct run writes ``BENCH_kernels.json``
via :mod:`repro.analysis.results`.  ``python benchmarks/bench_kernels.py
--tiny`` runs a seconds-scale smoke for CI; ``--check-against PATH``
additionally compares the measured speedup against a committed
baseline JSON and fails on a >20% regression.
"""

import time

import pytest

from repro.align.generic_dp import smith_waterman_recurrence, sweep
from repro.align.smith_waterman import sw_locate_best
from repro.analysis.cups import format_cups, measure_cups
from repro.analysis.report import render_table
from repro.analysis.results import write_bench_json
from repro.baselines.software import locate_pure
from repro.io.generate import random_dna
from repro.kernels import get_backend

M, N = 100, 3_000
QUERY = random_dna(M, seed=181)
DB = random_dna(N, seed=182)


def _pairwise_row_sweep(queries, records):
    """KB1's denominator: ``sw_locate_best`` looped over every pair."""
    return [[sw_locate_best(q, t) for t in records] for q in queries]


#: KB1 sweeps under test, by row key: the denominator first, then the
#: challenger.
SWEEPS = {
    "reference": _pairwise_row_sweep,
    "numpy-striped": get_backend("numpy-striped").locate_batch,
}
REPEATS = 3
#: Acceptance floor: striped must sustain at least this multiple of
#: the pairwise row sweep's CUPS on the KB1 workload.
MIN_SPEEDUP = 10.0
#: The served-shape row: one shard sweep of the cold-sweep deployment.
SERVED_SHAPE = dict(n_queries=2, query_bp=96, n_records=12, record_bp=1100, spread=60)
#: Acceptance floor of the served-shape row (record-long rows leave the
#: row sweep far less dispatch overhead to lose).
MIN_SERVED_SPEEDUP = 1.5
#: ``--check-against`` tolerance: the measured speedup may drop at
#: most this fraction below the committed baseline's.
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------------
# S1 — implementation levels, single pair
# ----------------------------------------------------------------------
def test_s1_numpy_kernel(benchmark):
    hit = benchmark(sw_locate_best, QUERY, DB)
    assert hit.score > 0


def test_s1_pure_python(benchmark):
    hit = benchmark(locate_pure, QUERY, DB)
    assert hit.score > 0


def test_s1_generic_dp(benchmark):
    result = benchmark(sweep, smith_waterman_recurrence(), QUERY, DB)
    assert result.value > 0


def test_s1_kernel_hierarchy(benchmark):
    def compare():
        cells = M * N
        rows = []
        for label, fn in (
            ("NumPy row sweep (baseline)", lambda: sw_locate_best(QUERY, DB)),
            ("pure Python loops", lambda: locate_pure(QUERY, DB)),
            ("generic-DP engine", lambda: sweep(smith_waterman_recurrence(), QUERY, DB)),
        ):
            t = measure_cups(fn, cells, label)
            rows.append([label, format_cups(t.cups)])
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(render_table(["implementation", "throughput"], rows, title="S1: software kernels"))
    # The vectorized kernel must dominate by a large factor — the
    # reason it stands in for the paper's optimized C.
    assert "CUPS" in rows[0][1]


# ----------------------------------------------------------------------
# KB1 — batched backend sweep
# ----------------------------------------------------------------------
def _build_workload(n_queries, query_bp, n_records, record_bp, spread=0, seed=500):
    """Random queries and records; ``spread`` makes record lengths ragged
    within ``record_bp ± spread``."""
    queries = [random_dna(query_bp, seed=seed + i) for i in range(n_queries)]
    records = [
        random_dna(record_bp + (i * 37) % (2 * spread + 1) - spread, seed=seed + 100 + i)
        for i in range(n_records)
    ]
    return queries, records


def _time_sweep(locate_batch, queries, records, repeats=REPEATS):
    """Best-of-``repeats`` sustained CUPS of one full batch sweep."""
    cells = sum(len(q) for q in queries) * sum(len(t) for t in records)
    # Untimed warmup: first-call costs (allocator, import, cache
    # population) belong to neither sweep's sustained figure.
    locate_batch(queries[:1], records[:2])
    best_wall = None
    hits = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = locate_batch(queries, records)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
            hits = out
    return {
        "cells": cells,
        "wall_seconds": best_wall,
        "cups": cells / best_wall if best_wall > 0 else 0.0,
    }, hits


def run_kb1(
    queries, records, repeats=REPEATS, assert_speedup=True, min_speedup=MIN_SPEEDUP
):
    """One KB1 comparison; returns (rows, json payload)."""
    runs = {}
    reference_hits = None
    for name, locate_batch in SWEEPS.items():
        run, hits = _time_sweep(locate_batch, queries, records, repeats=repeats)
        runs[name] = run
        if reference_hits is None:
            reference_hits = hits
        else:
            # The identity half of the contract, checked on the same
            # workload the throughput half measures.
            assert hits == reference_hits, (
                f"sweep {name!r} disagrees with the pairwise row sweep on this workload"
            )
    speedup = runs["numpy-striped"]["cups"] / runs["reference"]["cups"]
    payload = {
        "experiment": "KB1",
        "queries": len(queries),
        "query_bp": len(queries[0]),
        "records": len(records),
        "record_bp": round(sum(len(t) for t in records) / len(records)),
        "repeats": repeats,
        "min_speedup": min_speedup,
        "runs": runs,
        "speedup": speedup,
    }
    rows = [
        [name, f"{run['cells']:,}", f"{run['wall_seconds']:.4f}", format_cups(run["cups"])]
        for name, run in runs.items()
    ]
    rows.append(["speedup", "-", "-", f"{speedup:.1f}x"])
    if assert_speedup:
        assert speedup >= min_speedup, (
            f"numpy-striped sustains only {speedup:.1f}x the pairwise row sweep "
            f"(acceptance floor {min_speedup:.1f}x)"
        )
    return rows, payload


def run_served():
    """The served-shape KB1 row; returns (rows, json payload)."""
    queries, records = _build_workload(**SERVED_SHAPE)
    return run_kb1(queries, records, min_speedup=MIN_SERVED_SPEEDUP)


def check_against(payload, baseline_path):
    """Fail when a row's speedup regressed >20% vs the baseline.

    Checks the short-record row, and the served-shape row (the
    payload's ``served`` entry) when the baseline has one.  Returns
    ``[(row, measured speedup, committed speedup, floor), ...]``.
    """
    import json

    with open(baseline_path) as fh:
        baseline = json.load(fh)
    checked = []
    for row, measured, committed in (
        ("short-record", payload, baseline),
        ("served-shape", payload.get("served"), baseline.get("served")),
    ):
        if measured is None or committed is None:
            continue
        floor = committed["speedup"] * (1.0 - REGRESSION_TOLERANCE)
        if measured["speedup"] < floor:
            raise AssertionError(
                f"{row} speedup regressed: measured {measured['speedup']:.1f}x vs "
                f"committed baseline {committed['speedup']:.1f}x (floor {floor:.1f}x)"
            )
        checked.append((row, measured["speedup"], committed["speedup"], floor))
    return checked


@pytest.fixture(scope="module")
def kb1_workload():
    return _build_workload(n_queries=8, query_bp=64, n_records=240, record_bp=128)


def test_kb1_striped_speedup(benchmark, kb1_workload):
    queries, records = kb1_workload
    rows, payload = benchmark.pedantic(
        lambda: run_kb1(queries, records), rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["backend", "cells", "seconds", "sustained"],
            rows,
            title=f"KB1: {len(queries)} queries x {len(records)} records",
        )
    )
    write_bench_json("kernels", payload)


def test_kb1_served_shape_speedup(benchmark):
    rows, payload = benchmark.pedantic(run_served, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["backend", "cells", "seconds", "sustained"],
            rows,
            title="KB1 served shape: 2 x 96 bp queries x 12 records of ~1.1 kbp",
        )
    )


def main(argv=None):
    """Direct (non-pytest) entry point: ``--tiny`` for the CI smoke run."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke workload (CI: same acceptance floor)",
    )
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        default=None,
        help="committed baseline JSON; fail if speedup regressed >20%% vs it",
    )
    args = parser.parse_args(argv)
    if args.tiny:
        queries, records = _build_workload(
            n_queries=6, query_bp=64, n_records=200, record_bp=96
        )
        rows, payload = run_kb1(queries, records)
    else:
        queries, records = _build_workload(
            n_queries=8, query_bp=64, n_records=240, record_bp=128
        )
        rows, payload = run_kb1(queries, records)
    print(
        render_table(
            ["backend", "cells", "seconds", "sustained"],
            rows,
            title=f"KB1: {len(queries)} queries x {len(records)} records",
        )
    )
    served_rows, payload["served"] = run_served()
    print(
        render_table(
            ["backend", "cells", "seconds", "sustained"],
            served_rows,
            title="KB1 served shape: 2 x 96 bp queries x 12 records of ~1.1 kbp",
        )
    )
    if args.check_against is not None:
        for row, measured, committed, floor in check_against(
            payload, args.check_against
        ):
            print(
                f"baseline check ok ({row}): {measured:.1f}x >= floor "
                f"{floor:.1f}x (committed {committed:.1f}x)"
            )
    write_bench_json("kernels", payload)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
