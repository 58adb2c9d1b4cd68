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
boundary), and the within-row max-plus scan adds a per-segment offset,
larger than any score range, before ``maximum.accumulate`` so the
running maximum restarts at each segment.  Segments are ordered by row
count, so the sweeps still running always form a prefix of the layout.
Because the split halves ``s`` exactly, the sweeps of one level have
nearly equal row counts, and the row loop runs about ``m`` times in all
instead of once per sweep row of every crossing (about ``m log m``).

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
    # totals[c] = forward[c] + backward[cols - c] per node; first argmax.
    lengths = cols + 1
    t_ends = np.cumsum(lengths)
    t_starts = t_ends - lengths
    node_of = np.repeat(np.arange(count), lengths)
    c = np.arange(int(t_ends[-1])) - t_starts[node_of]
    forward = where[:count][node_of] + c
    backward = (where[count:] + cols)[node_of] - c
    totals = last[forward] + last[backward]
    best = np.maximum.reduceat(totals, t_starts)
    first = np.where(totals == best[node_of], c, np.iinfo(np.int64).max)
    return np.minimum.reduceat(first, t_starts)


def _leaf(
    s: bytes, t: bytes, scheme: LinearScoring | SubstitutionMatrix
) -> tuple[str, str]:
    """Align a leaf (``len(s) <= 1`` or ``len(t) <= 1``) as ``nw_align`` does.

    The same global fill as :class:`~repro.align.matrix.SimilarityMatrix`
    and the same diagonal > up > left traceback; one side is at most
    one character, so the matrix is linear-sized.
    """
    m, n = len(s), len(t)
    if m == 0:
        return GAP * n, t.decode("ascii")
    if n == 0:
        return s.decode("ascii"), GAP * m
    gap = scheme.gap
    pair = scheme.pair
    D = [[gap * j for j in range(n + 1)]]
    for i in range(1, m + 1):
        above, a = D[i - 1], s[i - 1]
        row = [gap * i]
        for j in range(1, n + 1):
            diag = above[j - 1] + pair(a, t[j - 1])
            row.append(max(diag, above[j] + gap, row[j - 1] + gap))
        D.append(row)
    s_out: list[str] = []
    t_out: list[str] = []
    i, j = m, n
    while i or j:
        if i and j and D[i][j] == D[i - 1][j - 1] + pair(s[i - 1], t[j - 1]):
            s_out.append(chr(s[i - 1]))
            t_out.append(chr(t[j - 1]))
            i, j = i - 1, j - 1
        elif i and D[i][j] == D[i - 1][j] + gap:
            s_out.append(chr(s[i - 1]))
            t_out.append(GAP)
            i -= 1
        else:
            s_out.append(GAP)
            t_out.append(chr(t[j - 1]))
            j -= 1
    return "".join(reversed(s_out)), "".join(reversed(t_out))


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
    pairs = [(s.upper(), t.upper()) for s, t in pairs]
    s_all = "".join(s for s, _ in pairs)
    t_all = "".join(t for _, t in pairs)
    s_codes = encode(s_all)
    t_codes = encode(t_all)
    leaves: list[tuple[int, int, int, int, int]] = []
    level = []
    i, j = 0, 0
    for job, (s, t) in enumerate(pairs):
        level.append((i, i + len(s), j, j + len(t), job))
        i, j = i + len(s), j + len(t)
    while level:
        inner = []
        for node in level:
            i0, i1, j0, j1, _ = node
            if i1 - i0 > 1 and j1 - j0 > 1:
                inner.append(node)
            elif i1 > i0 or j1 > j0:
                leaves.append(node)
        if not inner:
            break
        ks = _level_crossings(
            s_codes, t_codes, np.array(inner, dtype=np.int64)[:, :4], scheme
        )
        level = []
        for (i0, i1, j0, j1, job), k in zip(inner, ks.tolist()):
            mid = i0 + (i1 - i0) // 2
            level += [(i0, mid, j0, j0 + k, job), (mid, i1, j0 + k, j1, job)]
    # A pair's non-empty leaves tile its path from (0, 0) to (m, n), so
    # their start corners increase along it.
    leaves.sort(key=lambda leaf: (leaf[4], leaf[0], leaf[2]))
    s_bytes, t_bytes = s_all.encode("ascii"), t_all.encode("ascii")
    parts: list[list[tuple[str, str]]] = [[] for _ in pairs]
    for i0, i1, j0, j1, job in leaves:
        parts[job].append(_leaf(s_bytes[i0:i1], t_bytes[j0:j1], scheme))
    alignments = []
    for job_parts in parts:
        s_aligned = "".join(p[0] for p in job_parts)
        t_aligned = "".join(p[1] for p in job_parts)
        # Score the assembled alignment; Alignment.audit_score is the
        # single source of truth for scoring a gapped pair.
        aln = Alignment(s_aligned, t_aligned, score=0)
        alignments.append(Alignment(s_aligned, t_aligned, score=aln.audit_score(scheme)))
    return alignments
