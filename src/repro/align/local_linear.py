"""Local alignment retrieval in linear space (paper section 2.3).

This module implements the complete hardware/software pipeline the
paper's architecture is designed for:

1. **Forward locate** — compute the whole similarity matrix in linear
   space, keeping only the best score and its *end* coordinates
   ``(i_end, j_end)``.  In the paper this is the phase offloaded to the
   FPGA; in software it is
   :func:`~repro.align.smith_waterman.sw_locate_best`.  A caller that
   already holds this ``(score, i, j)`` — the search service, whose
   database sweep returned it — passes it as ``end=`` and the pass is
   skipped, exactly as the paper's host receives the three words from
   the array instead of recomputing them.
2. **Reverse locate** — repeat over the *reversed prefixes*
   ``rev(s[:i_end])``, ``rev(t[:j_end])``; the best hit's coordinates
   map back to the *start* ``(a, b)`` of an optimal local alignment
   ("the similarity array is re-calculated from the highest score
   position over the reverses of the sequences").  The same systolic
   array executes this pass unchanged.  Only the last
   :func:`reverse_window` columns of ``t`` are swept (ALAE-style exact
   score-bound pruning): the repo tie-break makes ``(i_end, j_end)``
   the smallest optimal end in ``(i, j)`` order, so every score-``S``
   cell of the reversed matrix is an alignment ending exactly there,
   and an alignment of score ``S`` over at most ``i_end`` rows spans at
   most ``i_end + (i_end * p_max - S) // |gap|`` columns.  The
   windowed pass therefore returns the same hit as the whole prefix.
3. **End anchoring** — the reverse pass proves ``(a, b)`` starts *some*
   optimal alignment, but that alignment's end need not be
   ``(i_end, j_end)`` when several optima exist.  A linear-space
   anchored sweep (:func:`~repro.align.needleman_wunsch.nw_cells_argmax`
   over the suffixes ``s[a:i_end]``, ``t[b:j_end]``) finds the exact
   end ``(e_i, e_j)`` of the alignment starting at ``(a, b)``.
4. **Hirschberg retrieval** — with both endpoints known, "this problem
   is transformed into a global alignment problem and Hirschberg's
   algorithm can be used": globally align ``s[a:e_i]`` vs
   ``t[b:e_j]`` in linear space.

Every step is ``O(m + n)`` memory — phase 4 included, see
:mod:`repro.align.hirschberg` — and the returned alignment's audited
score equals the Smith-Waterman optimum (verified by property tests).
Passing ``end=`` changes no field of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from .hirschberg import hirschberg_align
from .needleman_wunsch import nw_cells_argmax
from .scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix
from .smith_waterman import LocalHit, sw_locate_best
from .traceback import Alignment

__all__ = [
    "LocateFn",
    "LocalPipelineResult",
    "locate_span",
    "local_align_linear",
    "reverse_window",
]


class LocateFn(Protocol):
    """Signature of a locate kernel: best score + end coordinates.

    Both the software kernel
    (:func:`~repro.align.smith_waterman.sw_locate_best`) and the
    accelerator front-end
    (:meth:`repro.core.accelerator.SWAccelerator.locate`) satisfy this,
    which is how the hardware plugs into the software pipeline.
    """

    def __call__(
        self, s: str, t: str, scheme: LinearScoring | SubstitutionMatrix
    ) -> LocalHit: ...


@dataclass(frozen=True)
class LocalPipelineResult:
    """Everything the four-phase pipeline produced.

    ``alignment`` carries the final answer; the intermediate hits are
    kept because they are the quantities the paper's hardware actually
    emits (and the tests assert about them).
    """

    alignment: Alignment
    forward_hit: LocalHit
    reverse_hit: LocalHit
    span: tuple[int, int, int, int]  # (s_start, s_end, t_start, t_end), 0-based half-open


def reverse_window(
    end: LocalHit, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> int:
    """Columns of ``t`` the reverse pass must sweep, ending at ``end.j``.

    An alignment of score ``S = end.score`` over ``x <= end.i`` rows of
    ``s`` with ``p <= x`` aligned pairs spans ``y`` columns of ``t``,
    where ``S <= p * p_max - (x - p + y - p) * |gap|``.  Hence ``y <=
    end.i + (end.i * p_max - S) // |gap|``, ``p_max >= 0`` being the
    scheme's largest pair score (:meth:`pair_range`).
    """
    p_max = scheme.pair_range()[1]
    return end.i + max(0, end.i * p_max - end.score) // -scheme.gap


def locate_span(
    s: str,
    t: str,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    locate: Callable[..., LocalHit] | None = None,
    end: LocalHit | None = None,
) -> tuple[LocalHit, LocalHit, tuple[int, int, int, int]]:
    """Phases 1-3: find the exact span of an optimal local alignment.

    Returns ``(forward_hit, reverse_hit, (a, e_i, b, e_j))`` with the
    span in 0-based half-open coordinates: the optimal alignment covers
    ``s[a:e_i]`` and ``t[b:e_j]``.  A zero-score forward hit (no
    positive-scoring alignment exists) yields the empty span
    ``(0, 0, 0, 0)``.

    ``end`` is phase 1's answer when the caller already has it — the
    ``(score, i, j)`` a database sweep returned for this pair under
    the repo tie-break — and skips the forward pass.
    """
    if locate is None:
        locate = sw_locate_best
    s = s.upper()
    t = t.upper()
    forward = end if end is not None else locate(s, t, scheme)
    if forward.score <= 0:
        return forward, LocalHit(0, 0, 0), (0, 0, 0, 0)
    i_end, j_end = forward.i, forward.j
    # Phase 2: the same kernel over the reversed prefixes, windowed to
    # the last reverse_window() columns.  The window is exact: (i_end,
    # j_end) is the smallest optimal end in (i, j) order, so every
    # score-S cell of the reversed matrix is an alignment ending there,
    # and no such alignment is wider than the window.
    s_rev = s[:i_end][::-1]
    t_rev = t[max(0, j_end - reverse_window(forward, scheme)) : j_end][::-1]
    reverse = locate(s_rev, t_rev, scheme)
    if reverse.score != forward.score:
        raise AssertionError(
            "reverse-pass duality violated: forward score "
            f"{forward.score} != reverse score {reverse.score}"
        )
    a = i_end - reverse.i  # 0-based start in s
    b = j_end - reverse.j  # 0-based start in t
    # Phase 3: anchor the end of the alignment that starts at (a, b).
    anchored = nw_cells_argmax(s[a:i_end], t[b:j_end], scheme)
    if anchored.score != forward.score:
        raise AssertionError(
            "anchored sweep lost the optimum: expected "
            f"{forward.score}, got {anchored.score}"
        )
    e_i = a + anchored.i
    e_j = b + anchored.j
    return forward, reverse, (a, e_i, b, e_j)


def local_align_linear(
    s: str,
    t: str,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    locate: Callable[..., LocalHit] | None = None,
    end: LocalHit | None = None,
) -> LocalPipelineResult:
    """Optimal local alignment of ``s`` vs ``t`` in linear space.

    ``locate`` selects the phase-1/2 kernel — pass
    ``SWAccelerator(...).locate`` to run those phases on the simulated
    FPGA exactly as the paper's co-design intends, or leave the default
    to run fully in software.  ``end`` hands over phase 1's ``(score,
    i, j)`` when a sweep already computed it (see :func:`locate_span`);
    the result is then identical to the call without it.  The result's
    audited score equals ``sw_score(s, t, scheme)``.
    """
    s = s.upper()
    t = t.upper()
    forward, reverse, (a, e_i, b, e_j) = locate_span(s, t, scheme, locate, end)
    if forward.score <= 0:
        empty = Alignment("", "", score=0)
        return LocalPipelineResult(empty, forward, reverse, (0, 0, 0, 0))
    inner = hirschberg_align(s[a:e_i], t[b:e_j], scheme)
    if inner.score != forward.score:
        raise AssertionError(
            "Hirschberg retrieval score mismatch: expected "
            f"{forward.score}, got {inner.score}"
        )
    aligned = Alignment(
        s_aligned=inner.s_aligned,
        t_aligned=inner.t_aligned,
        score=inner.score,
        s_start=a,
        t_start=b,
    )
    return LocalPipelineResult(aligned, forward, reverse, (a, e_i, b, e_j))
