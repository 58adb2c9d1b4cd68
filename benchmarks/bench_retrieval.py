"""Experiment RT1 — alignment retrieval on the served shape.

A search that asks for alignments runs, per retrieved hit, the host
half of the paper's co-design (section 2.3): the sweep has already
returned the record's ``(score, i, j)``, and the host recovers the
alignment with a reverse pass, an anchored pass and Hirschberg, all in
linear space.  RT1 times that retrieval —
:func:`~repro.align.local_linear.local_align_linear` with the sweep's
hit passed as ``end=``, exactly as the service calls it — on the shape
the service retrieves: a 96 bp query against a ~1.1 kbp record holding
a near-copy of the query at its end.

The figure is a **ratio**: retrieval time over one full-record
:func:`~repro.align.smith_waterman.sw_locate_best` of the same pair, on
the same host, best of ``REPEATS`` alternating calls each, the median
over the pairs.  Both sides run NumPy row sweeps on one core, so the
ratio does not drift with the host's speed the way milliseconds do
(KB1's speedup is built the same way).  The
identity half checks, on every pair, that the retrieval with ``end=``
equals the one that runs its own forward pass, field for field.

``python benchmarks/bench_retrieval.py --tiny`` is the CI smoke;
``--check-against PATH`` fails when the ratio rose more than
:data:`REGRESSION_TOLERANCE` above a committed baseline.  A direct run
writes ``BENCH_retrieval.json``.
"""

import statistics
import time

from repro.align.local_linear import local_align_linear
from repro.align.smith_waterman import sw_locate_best
from repro.analysis.report import render_table
from repro.analysis.results import write_bench_json
from repro.io.generate import mutate, random_dna

#: The served shape (servebench's query length and record layout).
QUERY_BP = 96
BACKGROUND_BP = 1000
REPEATS = 15
#: Acceptance ceiling: retrieval may cost at most this many full-record
#: locates.  Before it reused the sweep's hit, windowed the reverse pass
#: and batched Hirschberg's levels, retrieval cost about 7.
MAX_RATIO = 4.0
#: ``--check-against`` tolerance: the measured ratio may rise at most
#: this fraction above the committed baseline's.
REGRESSION_TOLERANCE = 0.25


def build_pairs(count, seed=900):
    """``count`` (query, record) pairs in the served shape."""
    pairs = []
    for k in range(count):
        query = random_dna(QUERY_BP, seed=seed + 2 * k)
        copy = mutate(query, rate=0.08, seed=seed + 2 * k + 1)
        pairs.append((query, random_dna(BACKGROUND_BP, seed=seed + 1000 + k) + copy))
    return pairs


def _best_seconds(fns, repeats):
    """Best-of-``repeats`` wall time of each of ``fns``.

    The calls alternate within each repeat, so a change in the host's
    speed during the measurement reaches every side alike.
    """
    for fn in fns:
        fn()  # untimed warmup
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def run_rt1(pairs, repeats=REPEATS, assert_ratio=True):
    """The RT1 measurement; returns (rows, json payload)."""
    runs = []
    for query, record in pairs:
        hit = sw_locate_best(query, record)
        reused = local_align_linear(query, record, end=hit)
        assert reused == local_align_linear(query, record), (
            "retrieval with the sweep's end differs from a fresh forward pass"
        )
        locate_s, retrieve_s = _best_seconds(
            (
                lambda: sw_locate_best(query, record),
                lambda: local_align_linear(query, record, end=hit),
            ),
            repeats,
        )
        a, e_i, b, e_j = reused.span
        runs.append(
            {
                "record_bp": len(record),
                "score": hit.score,
                "span_cells": (e_i - a) * (e_j - b),
                "locate_seconds": locate_s,
                "retrieve_seconds": retrieve_s,
                "ratio": retrieve_s / locate_s,
            }
        )
    ratio = statistics.median(r["ratio"] for r in runs)
    payload = {
        "experiment": "RT1",
        "pairs": len(pairs),
        "query_bp": QUERY_BP,
        "background_bp": BACKGROUND_BP,
        "repeats": repeats,
        "max_ratio": MAX_RATIO,
        "runs": runs,
        "ratio": ratio,
    }
    rows = [
        [
            str(k),
            f"{r['record_bp']:,}",
            str(r["score"]),
            f"{r['locate_seconds'] * 1e3:.2f}",
            f"{r['retrieve_seconds'] * 1e3:.2f}",
            f"{r['ratio']:.2f}",
        ]
        for k, r in enumerate(runs)
    ]
    rows.append(["median", "-", "-", "-", "-", f"{ratio:.2f}"])
    if assert_ratio:
        assert ratio <= MAX_RATIO, (
            f"retrieval costs {ratio:.2f} full-record locates "
            f"(acceptance ceiling {MAX_RATIO:.1f})"
        )
    return rows, payload


def check_against(payload, baseline_path):
    """Fail when the measured ratio rose more than the tolerance."""
    import json

    with open(baseline_path) as fh:
        baseline = json.load(fh)
    ceiling = baseline["ratio"] * (1.0 + REGRESSION_TOLERANCE)
    if payload["ratio"] > ceiling:
        raise AssertionError(
            f"retrieval regressed: {payload['ratio']:.2f} locates vs committed "
            f"baseline {baseline['ratio']:.2f} (ceiling {ceiling:.2f})"
        )
    return baseline["ratio"], ceiling


def _render(rows):
    return render_table(
        ["pair", "record bp", "score", "locate ms", "retrieve ms", "ratio"],
        rows,
        title=f"RT1: retrieval of a {QUERY_BP} bp query vs one full-record locate",
    )


def test_rt1_retrieval_ratio(benchmark):
    rows, payload = benchmark.pedantic(
        lambda: run_rt1(build_pairs(6)), rounds=1, iterations=1
    )
    print()
    print(_render(rows))
    write_bench_json("retrieval", payload)


def main(argv=None):
    """Direct (non-pytest) entry point: ``--tiny`` for the CI smoke run."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke workload (CI: same acceptance ceiling)",
    )
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        default=None,
        help="committed baseline JSON; fail if the ratio rose >25%% above it",
    )
    args = parser.parse_args(argv)
    rows, payload = run_rt1(build_pairs(3 if args.tiny else 6))
    print(_render(rows))
    if args.check_against is not None:
        base_ratio, ceiling = check_against(payload, args.check_against)
        print(
            f"baseline check ok: {payload['ratio']:.2f} <= ceiling {ceiling:.2f} "
            f"(committed {base_ratio:.2f})"
        )
    write_bench_json("retrieval", payload)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
