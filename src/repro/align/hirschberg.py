"""Hirschberg's linear-space global alignment (paper reference [15]).

The divide-and-conquer of Hirschberg (1975) retrieves an *optimal
global alignment* — not just its score — in ``O(m + n)`` space:

1. Split ``s`` at its midpoint ``mid``.
2. Compute the last row of the global DP matrix of ``s[:mid]`` vs
   ``t`` (forward) and of ``reversed(s[mid:])`` vs ``reversed(t)``
   (backward), both in linear space (:func:`~repro.align.needleman_wunsch.nw_last_row`).
3. The crossing column ``k`` maximizing ``forward[k] + backward[n-k]``
   lies on an optimal alignment; recurse on the two quadrants.

The paper uses this (via Myers & Miller [25] and Gusfield [14]) as the
*software* half of its hardware/software co-design: the FPGA finds
where the best local alignment starts and ends, then Hirschberg
retrieves the alignment between those coordinates in linear space —
"This approach can double the execution time, in the average case"
(section 2.3), which the A1 ablation benchmark measures.

**Level-batched recursion.**  :func:`hirschberg_align` makes exactly the
decisions of the textbook recursion — split row ``m // 2``, the
smallest-``k`` crossing of :func:`hirschberg_crossing`, and leaves
(``m <= 1`` or ``n <= 1``) aligned with ``nw_align``'s fill and its
diagonal > up > left traceback — but it walks the recursion tree one
level at a time.  Every forward and backward last-row sweep of a level
runs in one NumPy row loop over a *segmented* layout
(:func:`~repro.align.needleman_wunsch.nw_segmented_sweep`): the sweeps
are laid side by side, one segment per sweep (column 0 holding the row
boundary).  Each row is kept lifted, ``D + |gap| * (r + c)`` plus a
per-segment offset ``q * stride``; that value lies in ``[0, min(r, c) *
(max pair - 2 * gap)]`` above the offset, so with ``stride`` past that
bound the within-row ``maximum.accumulate`` restarts at each segment,
and a row costs one pair gather, one add, one maximum and the scan.
Segments are ordered by row count, so the sweeps still running always
form a prefix of the layout.
Because the split halves ``s`` exactly, the sweeps of one level have
nearly equal row counts, and the row loop runs about ``m`` times in all
instead of once per sweep row of every crossing (about ``m log m``).
The leaves, one side at most one character long, have a closed-form
fill and traceback (:func:`_leaf_columns`); all leaves of the walk are
aligned and scored in one vectorised pass, not one DP each.

**Many alignments in one walk.**  :func:`hirschberg_align_batch` lays
several ``(s, t)`` pairs end to end and seeds the walk with every
pair's root, so one row loop per level serves the whole batch — the
search service retrieves all alignments of a coalesced batch this way.
A node's crossing depends only on its own sub-problem, so each pair's
text is the one :func:`hirschberg_align` gives it alone.

A level's layout holds at most two segments per ``t`` column plus one
boundary column per sweep, and one ``s`` index per column, so memory
stays ``O(m + n)`` — ``O(sum of (m + n))`` for a batch — the paper's
linear space, with no tuning knob.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .needleman_wunsch import nw_last_row, nw_segmented_sweep
from .scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix, encode
from .traceback import GAP, Alignment

__all__ = ["hirschberg_align", "hirschberg_align_batch", "hirschberg_crossing"]

#: Above every column: the key of a column that is not a maximum.
_NO_COLUMN = np.iinfo(np.int64).max


def hirschberg_crossing(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    mid: int,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
) -> int:
    """Optimal crossing column of row ``mid`` (the split point).

    Returns the ``k`` maximizing ``NW(s[:mid], t[:k]) +
    NW(rev(s[mid:]), rev(t[k:]))``; ties resolved to the smallest
    ``k`` so the recursion is deterministic.
    """
    forward = nw_last_row(s_codes[:mid], t_codes, scheme)
    backward = nw_last_row(s_codes[mid:][::-1].copy(), t_codes[::-1].copy(), scheme)
    totals = forward + backward[::-1]
    return int(np.argmax(totals))


def _level_crossings(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    nodes: np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix,
) -> np.ndarray:
    """Crossing column of every node of one recursion level.

    ``nodes`` is a ``(P, 4)`` array of ``(i0, i1, j0, j1)`` sub-problems
    ``s[i0:i1]`` vs ``t[j0:j1]``, each at least 2 x 2; the nodes may
    come from different alignments laid end to end in ``s_codes`` and
    ``t_codes``.  Returns each node's :func:`hirschberg_crossing`
    column, relative to ``j0``.
    """
    i0, i1, j0, j1 = nodes.T
    count = len(nodes)
    mid = i0 + (i1 - i0) // 2
    cols = j1 - j0
    # Sweeps 0..P-1 run forward over s[i0:mid] and t[j0:j1]; sweeps
    # P..2P-1 run backward over s[mid:i1] and t[j0:j1], both reversed.
    last, where, _ = nw_segmented_sweep(
        s_codes,
        t_codes,
        s_first=np.concatenate([i0, i1 - 1]),
        t_first=np.concatenate([j0, j1 - 1]),
        step=np.repeat(np.array([1, -1], dtype=np.int64), count),
        rows=np.concatenate([mid - i0, i1 - mid]),
        cols=np.concatenate([cols, cols]),
        scheme=scheme,
    )
    # totals[c] = forward[c] + backward[cols - c] per node, laid end to
    # end at t_starts[node] + c; then each node's first argmax.
    lengths = cols + 1
    t_ends = np.cumsum(lengths)
    t_starts = t_ends - lengths
    at = np.arange(int(t_ends[-1]))
    forward = (where[:count] - t_starts).repeat(lengths) + at
    backward = (where[count:] + cols + t_starts).repeat(lengths) - at
    totals = last[forward] + last[backward]
    best = np.maximum.reduceat(totals, t_starts).repeat(lengths)
    first = np.minimum.reduceat(np.where(totals == best, at, _NO_COLUMN), t_starts)
    return first - t_starts


#: Traceback moves: a pair column, ``s`` over a gap, a gap over ``t``.
_DIAG, _UP, _LEFT = 0, 1, 2


def _leaf_columns(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    leaves: np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align every leaf as ``nw_align`` does, in closed form.

    ``leaves`` is an ``(L, 4)`` array of non-empty ``(i0, i1, j0, j1)``
    sub-problems with ``m = i1 - i0 <= 1`` or ``n = j1 - j0 <= 1``,
    whose concatenation walks ``s_codes`` and ``t_codes`` in order (each
    character in exactly one leaf).  Returns ``(moves, lengths,
    scores)``: every leaf's traceback moves in order, laid end to end,
    and each leaf's move count and score.

    With one row (``m == 1``, character ``a`` against ``t_1..t_n``) the
    fill is ``D[1][j] = gap * (j - 1) + M_j``, ``M_j = max(2 * gap,
    max_{k <= j} pair(a, t_k))``.  The diagonal > up > left traceback
    therefore moves left from ``j = n`` to the largest ``j*`` where
    ``pair(a, t_j*) == M_j*`` (diagonal) or ``M_j* == 2 * gap`` (up;
    ``j* = 0`` at the latest), then left to the origin.  With one
    column (``n == 1``) the same fill runs down ``s``; the up move wins
    unless ``pair(s_i, b) == M_i``, so the trace moves up to the
    largest such ``i*`` (diagonal), or to row 0 and then left.
    """
    i0, i1, j0, j1 = leaves.T
    m, n = i1 - i0, j1 - j0
    row = m == 1  # one character of s against t[j0:j1]
    col = (n == 1) & ~row  # s[i0:i1] against one character of t
    run = np.where(row, n, np.where(col, m, 0))
    run_ends = np.cumsum(run)
    run_starts = run_ends - run
    # Per run element: its leaf and its 0-based position along the run.
    leaf_of = np.repeat(np.arange(len(leaves)), run)
    x = np.arange(int(run_ends[-1])) - run_starts[leaf_of]
    along_t = row[leaf_of]
    pair = scheme.pair_scores(
        s_codes[i0[leaf_of] + np.where(along_t, 0, x)],
        t_codes[j0[leaf_of] + np.where(along_t, x, 0)],
    ).astype(np.int64)
    # M: the running max of max(2 * gap, pair), restarted at each run by
    # a per-run lift wider than the range of its values.
    floor = 2 * scheme.gap
    lift = leaf_of * (max(scheme.pair_range()[1], floor) - floor + 1)
    best = np.maximum.accumulate(np.maximum(pair, floor) + lift) - lift
    diagonal = pair == best
    stop = diagonal | (along_t & (best == floor))
    # The last stop of each run (1-based, 0 for none): a running max of
    # the stops' positions, read at the run's end.
    last = np.maximum.accumulate(np.where(stop, np.arange(1, len(stop) + 1), 0))
    at = np.maximum(np.append(0, last)[run_ends] - run_starts, 0)
    diag = np.zeros(len(leaves), dtype=bool)
    hit = at > 0
    diag[hit] = diagonal[run_starts[hit] + at[hit] - 1]
    # Moves: a filler run along the leaf, plus one middle move.
    middle = row | col
    filler = np.where(row | (m == 0), _LEFT, _UP)
    lengths = np.where(middle, run + ~diag, np.maximum(m, n))
    moves = np.repeat(filler, lengths).astype(np.int8)
    move_starts = np.cumsum(lengths) - lengths
    middle_at = move_starts + at - diag
    moves[middle_at[middle]] = np.where(diag, _DIAG, np.where(row, _UP, _LEFT))[middle]
    # Score: the gaps, plus each diagonal's pair score.
    gaps = lengths - diag
    pair_scores = np.zeros(len(leaves), dtype=np.int64)
    pair_scores[diag] = pair[run_starts[diag] + at[diag] - 1]
    return moves, lengths, scheme.gap * gaps + pair_scores


def hirschberg_align(
    s: str, t: str, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> Alignment:
    """Optimal global alignment of ``s`` and ``t`` in linear space.

    Produces an :class:`~repro.align.traceback.Alignment` whose audited
    score equals the Needleman-Wunsch optimum (a property test in the
    suite).  The alignment chosen among equal-scoring optima depends on
    the deterministic tie-breaks documented in
    :func:`hirschberg_crossing` and the base-case DP; the level-batched
    walk (module docstring) gives the textbook recursion's text.
    """
    return hirschberg_align_batch([(s, t)], scheme)[0]


def hirschberg_align_batch(
    pairs: Sequence[tuple[str, str]],
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
) -> list[Alignment]:
    """:func:`hirschberg_align` of every ``(s, t)`` pair, in one level walk.

    The pairs are laid end to end and the walk starts from every pair's
    root, so each recursion level of all of them runs in one row loop.
    A node's crossing depends only on its own sub-problem, so every
    alignment equals ``hirschberg_align(s, t, scheme)``.
    """
    return [
        Alignment(s_aligned, t_aligned, score=score)
        for s_aligned, t_aligned, score in _hirschberg_texts(pairs, scheme)
    ]


def _hirschberg_texts(
    pairs: Sequence[tuple[str, str]],
    scheme: LinearScoring | SubstitutionMatrix,
) -> list[tuple[str, str, int]]:
    """:func:`hirschberg_align_batch` as ``(s_aligned, t_aligned, score)`` rows.

    For callers that build each :class:`Alignment` themselves, with
    fields the walk does not know (a local alignment's start
    coordinates), so that every one is constructed once.
    """
    pairs = [(s.upper(), t.upper()) for s, t in pairs]
    s_all = "".join(s for s, _ in pairs)
    t_all = "".join(t for _, t in pairs)
    s_codes = encode(s_all)
    t_codes = encode(t_all)
    # Nodes are (i0, i1, j0, j1, job) rows: s[i0:i1] vs t[j0:j1] of a pair.
    s_lens = np.array([len(s) for s, _ in pairs], dtype=np.int64)
    t_lens = np.array([len(t) for _, t in pairs], dtype=np.int64)
    s_ends, t_ends = np.cumsum(s_lens), np.cumsum(t_lens)
    level = np.stack(
        [s_ends - s_lens, s_ends, t_ends - t_lens, t_ends, np.arange(len(pairs))], axis=1
    ).reshape(-1, 5)
    leaves = [level[:0]]
    while len(level):
        m, n = level[:, 1] - level[:, 0], level[:, 3] - level[:, 2]
        split = (m > 1) & (n > 1)
        leaves.append(level[~split & ((m > 0) | (n > 0))])
        inner = level[split]
        if not len(inner):
            break
        mid = inner[:, 0] + (inner[:, 1] - inner[:, 0]) // 2
        cross = inner[:, 2] + _level_crossings(s_codes, t_codes, inner[:, :4], scheme)
        top, bottom = inner.copy(), inner.copy()
        top[:, 1], top[:, 3] = mid, cross
        bottom[:, 0], bottom[:, 2] = mid, cross
        level = np.concatenate([top, bottom])
    # A pair's non-empty leaves tile its path from (0, 0) to (m, n), so
    # their start corners increase along it, and the pairs are laid end
    # to end: in (job, i0, j0) order the leaves walk s_all and t_all.
    tiles = np.concatenate(leaves)
    tiles = tiles[np.lexsort((tiles[:, 2], tiles[:, 0], tiles[:, 4]))]
    if not len(tiles):
        return [("", "", 0) for _ in pairs]
    moves, lengths, scores = _leaf_columns(s_codes, t_codes, tiles[:, :4], scheme)
    gap = ord(GAP)
    s_text = _gapped(s_codes, moves != _LEFT, gap)
    t_text = _gapped(t_codes, moves != _UP, gap)
    jobs = tiles[:, 4]
    job_moves = np.bincount(jobs, weights=lengths, minlength=len(pairs)).astype(np.int64)
    job_scores = np.bincount(jobs, weights=scores, minlength=len(pairs)).astype(np.int64)
    ends = np.cumsum(job_moves).tolist()
    return [
        (s_text[lo:hi], t_text[lo:hi], score)
        for lo, hi, score in zip([0] + ends[:-1], ends, job_scores.tolist())
    ]


def _gapped(codes: np.ndarray, take: np.ndarray, gap: int) -> str:
    """The aligned text of ``codes``: its next character where ``take``, else a gap."""
    padded = np.append(codes, np.uint8(gap))
    index = np.where(take, np.cumsum(take) - 1, len(codes))
    return padded[index].tobytes().decode("ascii")
