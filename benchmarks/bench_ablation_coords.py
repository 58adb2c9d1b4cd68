"""Ablation A1 — the coordinate-recovery design choice.

The paper's element adds three registers (Bs, Cl, Bc) so the array
emits *coordinates*, not just a score — the feature that distinguishes
it from the score-only related work and enables linear-space
retrieval.  This ablation measures what that choice buys and costs:

* memory: coordinates + linear-space retrieval vs storing the matrix
  and doing a quadratic argmax + traceback;
* time: the section 2.3 pipeline runs the matrix ~2-3x (forward,
  windowed reverse, Hirschberg halves) — the "can double the
  execution time" remark of section 2.3, measured;
* area: the extra registers/comparator per element in the resource
  model.
"""

import pytest

from repro.align.local_linear import local_align_linear, reverse_window
from repro.align.matrix import SimilarityMatrix
from repro.align.smith_waterman import sw_locate_best
from repro.analysis.report import render_table
from repro.core.datapath import SCORE_WIDTH, CYCLE_WIDTH
from repro.io.generate import mutated_pair

PAIR = mutated_pair(400, rate=0.15, seed=81)


def test_a1_locate_only(benchmark):
    """Score+coords in linear space (what the hardware computes)."""
    s, t = PAIR
    hit = benchmark(sw_locate_best, s, t)
    assert hit.score > 0


def test_a1_full_matrix_alternative(benchmark):
    """The ablated design: materialize the matrix, argmax, traceback."""
    s, t = PAIR

    def full():
        return SimilarityMatrix(s, t).best_alignment()

    aln = benchmark(full)
    assert aln.score == sw_locate_best(*PAIR).score


def test_a1_linear_space_retrieval(benchmark):
    """Coordinates + Hirschberg: full alignment, linear memory."""
    s, t = PAIR
    res = benchmark(local_align_linear, s, t)
    assert res.alignment.score == sw_locate_best(s, t).score


def test_a1_memory_and_work_table(benchmark):
    s, t = PAIR
    m, n = len(s), len(t)

    def tabulate():
        quadratic_bytes = SimilarityMatrix(s, t).memory_bytes()
        linear_bytes = 2 * (n + 1) * 8  # two DP rows
        # Work: the forward pass over the whole matrix, the reverse
        # pass over the reversed prefixes windowed to the columns an
        # optimal alignment can span, plus Hirschberg's ~2x on the
        # bracketed span.
        res = local_align_linear(s, t)
        a, e_i, b, e_j = res.span
        end = res.forward_hit
        reverse_cells = end.i * min(end.j, reverse_window(end))
        span_cells = (e_i - a) * (e_j - b)
        pipeline_cells = m * n + reverse_cells + 2 * span_cells
        return quadratic_bytes, linear_bytes, pipeline_cells, m * n

    quad, lin, pipeline_cells, base_cells = benchmark(tabulate)
    print()
    print(
        render_table(
            ["design", "memory (bytes)", "cell updates"],
            [
                ["store matrix + traceback (ablated)", quad, base_cells],
                ["coords + linear-space pipeline (paper)", lin, pipeline_cells],
            ],
            title="A1: coordinate recovery vs stored matrix (400 bp pair)",
        )
    )
    assert lin < quad / 100
    # Section 2.3: "can double the execution time" — bounded by ~4x.
    assert base_cells < pipeline_cells <= 4 * base_cells


def test_a1_area_cost_of_coordinates(benchmark):
    # The Bs/Cl/Bc registers + best comparator per element.
    def area():
        extra_ffs = SCORE_WIDTH + 2 * CYCLE_WIDTH  # Bs + Cl + Bc
        extra_luts = SCORE_WIDTH  # the D > Bs comparator
        return extra_ffs, extra_luts

    extra_ffs, extra_luts = benchmark(area)
    print(f"\n per-element cost of coordinate recovery: "
          f"+{extra_ffs} FFs, +{extra_luts} LUTs")
    # Modest against the ~160 FF / ~424 LUT calibrated element.
    assert extra_ffs < 120
    assert extra_luts < 40
