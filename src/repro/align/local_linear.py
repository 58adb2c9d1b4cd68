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
   position over the reverses of the sequences").  The repo tie-break
   makes ``(i_end, j_end)`` the smallest optimal end in ``(i, j)``
   order, so every score-``S`` cell of the reversed local matrix is an
   alignment ending exactly there: the local sweep's score-``S`` cells
   are those of the end-anchored sweep
   (:func:`~repro.align.needleman_wunsch.nw_cells_argmax` over the
   reversed prefixes), which this pass runs.  The same argument makes
   ``(i_end, j_end)`` the end of every optimal alignment starting at
   ``(a, b)``, so the span is ``(a, i_end, b, j_end)`` with no further
   pass.  Only the last :func:`reverse_window` columns of ``t`` are
   swept (ALAE-style exact score-bound pruning): an alignment of score
   ``S`` over at most ``i_end`` rows spans at most ``i_end + (i_end *
   p_max - S) // |gap|`` columns, so the windowed pass returns the same
   hit as the whole prefix.  The paper's array runs this pass
   unchanged: given ``locate=``, the pipeline re-runs that kernel over
   the reversed pair, and its local hit is the anchored sweep's.
3. **Hirschberg retrieval** — with both endpoints known, "this problem
   is transformed into a global alignment problem and Hirschberg's
   algorithm can be used": globally align ``s[a:i_end]`` vs
   ``t[b:j_end]`` in linear space.

Every step is ``O(m + n)`` memory — phase 3 included, see
:mod:`repro.align.hirschberg` — and the returned alignment's audited
score equals the Smith-Waterman optimum (verified by property tests).
Passing ``end=`` changes no field of the result.

**Batches.**  :func:`local_align_batch` runs phases 2-3 for many
``(s, t, end)`` jobs at once — the search service retrieves every hit
of a coalesced batch of requests this way.  The reverse pass is one
segmented sweep over every job's reversed prefix and window
(:func:`~repro.align.needleman_wunsch.nw_cells_argmax_batch`) and
Hirschberg one level walk seeded with every job's root, so their row
loops cost interpreter dispatch once per batch, not once per job.
Every phase holds ``O(sum of (m + n))`` memory.
:func:`local_align_linear` is the one-job call, so there is a single
code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .hirschberg import _hirschberg_texts
from .needleman_wunsch import nw_cells_argmax_batch
from .scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix
from .smith_waterman import LocalHit, sw_locate_best
from .traceback import Alignment

__all__ = [
    "LocateFn",
    "LocalPipelineResult",
    "locate_span",
    "local_align_batch",
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
    """Everything the three-phase pipeline produced.

    ``alignment`` carries the final answer; the forward and reverse
    hits are kept because they are the quantities the paper's hardware
    actually emits (and the tests assert about them).
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
    """Phases 1-2: find the exact span of an optimal local alignment.

    Returns ``(forward_hit, reverse_hit, (a, i_end, b, j_end))`` with
    the span in 0-based half-open coordinates: the optimal alignment
    covers ``s[a:i_end]`` and ``t[b:j_end]``.  A zero-score forward hit
    (no positive-scoring alignment exists) yields the empty span
    ``(0, 0, 0, 0)``.

    ``end`` is phase 1's answer when the caller already has it — the
    ``(score, i, j)`` a database sweep returned for this pair under
    the repo tie-break — and skips the forward pass.
    """
    s, t, forward = _job(s, t, scheme, locate, end)
    ((reverse, span),) = _locate_spans([(s, t, forward)], scheme, locate)
    return forward, reverse, span


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
    audited score equals ``sw_score(s, t, scheme)``.  This is the
    one-job call of :func:`local_align_batch`.
    """
    return local_align_batch([_job(s, t, scheme, locate, end)], scheme, locate)[0]


def local_align_batch(
    jobs: Sequence[tuple[str, str, LocalHit]],
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    locate: Callable[..., LocalHit] | None = None,
) -> list[LocalPipelineResult]:
    """Phases 2-3 of every ``(s, t, end)`` job, each phase run once.

    ``end`` is the job's phase-1 ``(score, i, j)``.  Result ``k``
    equals ``local_align_linear(s, t, scheme, end=end)`` field for
    field, but the reverse passes share one row loop
    (:func:`~repro.align.needleman_wunsch.nw_cells_argmax_batch`) and
    the Hirschberg retrievals one level walk
    (:func:`~repro.align.hirschberg.hirschberg_align_batch`) — the
    loops' interpreter cost is paid once per batch, not once per job.

    ``locate`` runs each job's reverse pass instead, one pair at a time
    — the paper's array (``SWAccelerator(...).locate``) re-run over the
    reverses; its hits are the sweep's (module docstring).
    """
    jobs = [(s.upper(), t.upper(), end) for s, t, end in jobs]
    spans = _locate_spans(jobs, scheme, locate)
    live = [k for k, (_, _, end) in enumerate(jobs) if end.score > 0]
    # Phase 3: Hirschberg between the span's two ends.
    inner_pairs = []
    for k in live:
        s, t, _ = jobs[k]
        a, e_i, b, e_j = spans[k][1]
        inner_pairs.append((s[a:e_i], t[b:e_j]))
    texts = dict(zip(live, _hirschberg_texts(inner_pairs, scheme)))
    results = []
    for k, ((_, _, end), (reverse, span)) in enumerate(zip(jobs, spans)):
        # A zero-score job has the empty span and the empty alignment.
        s_aligned, t_aligned, score = texts.get(k, ("", "", 0))
        if score != end.score:
            raise AssertionError(
                "Hirschberg retrieval score mismatch: expected "
                f"{end.score}, got {score}"
            )
        aligned = Alignment(
            s_aligned=s_aligned,
            t_aligned=t_aligned,
            score=score,
            s_start=span[0],
            t_start=span[2],
        )
        results.append(LocalPipelineResult(aligned, end, reverse, span))
    return results


def _job(
    s: str,
    t: str,
    scheme: LinearScoring | SubstitutionMatrix,
    locate: Callable[..., LocalHit] | None,
    end: LocalHit | None,
) -> tuple[str, str, LocalHit]:
    """One ``(s, t, end)`` job, running phase 1 when ``end`` is absent."""
    s = s.upper()
    t = t.upper()
    if end is None:
        end = (locate or sw_locate_best)(s, t, scheme)
    return s, t, end


def _locate_spans(
    jobs: list[tuple[str, str, LocalHit]],
    scheme: LinearScoring | SubstitutionMatrix,
    locate: Callable[..., LocalHit] | None,
) -> list[tuple[LocalHit, tuple[int, int, int, int]]]:
    """Phase 2 of upper-cased jobs: ``(reverse_hit, span)`` each.

    One end-anchored sweep over every live job's reversed prefix and
    reversed :func:`reverse_window` (module docstring: it finds the
    local reverse pass's hit), or ``locate`` on each of those pairs.
    A zero-score job gets ``(LocalHit(0, 0, 0), (0, 0, 0, 0))``.
    """
    spans = [(LocalHit(0, 0, 0), (0, 0, 0, 0))] * len(jobs)
    live = [k for k, (_, _, end) in enumerate(jobs) if end.score > 0]
    reversed_pairs = []
    for k in live:
        s, t, end = jobs[k]
        window = t[max(0, end.j - reverse_window(end, scheme)) : end.j]
        reversed_pairs.append((s[: end.i][::-1], window[::-1]))
    if locate is None:
        reverses = nw_cells_argmax_batch(reversed_pairs, scheme)
    else:
        reverses = [locate(prefix, window, scheme) for prefix, window in reversed_pairs]
    for k, reverse in zip(live, reverses):
        end = jobs[k][2]
        if reverse.score != end.score:
            raise AssertionError(
                "reverse-pass duality violated: forward score "
                f"{end.score} != reverse score {reverse.score}"
            )
        spans[k] = (reverse, (end.i - reverse.i, end.i, end.j - reverse.j, end.j))
    return spans
