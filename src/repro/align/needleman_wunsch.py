"""Needleman-Wunsch global alignment: full-matrix and linear-space sweeps.

The global recurrence is the substrate of two parts of the paper's
pipeline:

* **Hirschberg's algorithm** (section 2.3, reference [15]) needs the
  *last row* of the global DP matrix of each half, in linear space —
  :func:`nw_last_row`.
* The **anchored reverse/forward passes** that convert the
  accelerator's coordinates into exact alignment endpoints need the
  maximum over *all* cells of a global DP matrix (the best
  end-anchored prefix alignment) — :func:`nw_cells_argmax`.

Both use the same max-plus prefix scan as the local kernel (see
:mod:`repro.align.smith_waterman`), without the zero clamp.  The scan
identity also holds globally: with ``H[0] = cur[0]`` (the row boundary)
and ``H[j] = max(diag_j, up_j)``,

    ``D[i, j] = max_{0 <= k <= j} ( H[k] + (j - k) * gap )``.

**Many sweeps in one row loop.**  :func:`nw_segmented_sweep` runs any
number of these sweeps side by side in one NumPy row loop — a level of
Hirschberg's recursion, or the anchored passes of a whole batch of
retrievals (:func:`nw_cells_argmax_batch`) — so the loop's interpreter
cost is paid once per row, not once per row of every sweep.  The sweeps
are laid out as *segments* of one array, column 0 of each holding its
row boundary.  Segments are ordered by row count, so the sweeps still
running always form a prefix of the layout.

**Lifted, drift-free rows.**  Segment ``q`` keeps row ``r`` as ``R[c] =
D[r, c] + |gap| * (r + c) + q * stride`` instead of ``D``.  In that form
the row step is just

    ``h[c] = max(R'[c - 1] + pair - 2 * gap, R'[c])``,  ``R = maximum.accumulate(h)``

with ``R'`` the previous row: the scan identity's ``(j - k) * gap``
terms and the row's ``gap * r`` are folded into the stored values and
into one pair table shifted by ``-2 * gap``.  A row reads its pair
scores from that table (each segment's ``s`` code, repeated over the
segment, plus each column's ``t`` code), then takes one add, one
maximum and one prefix scan: seven NumPy calls, with no per-row lift,
un-lift or boundary write.  Every alignment path scores at least
its all-gap cost ``gap * (r + c)`` and at most ``min(r, c)`` pairs of
``pair_max = max pair - 2 * gap`` above it, so ``R - q * stride`` lies
in ``[0, min(r, c) * max(pair_max, 0)]``.  Column 0 of a segment holds
the constant ``q * stride`` on every row; with ``stride`` above
``(min(rows, cols) + 1) * max(pair_max, 0)``, the previous segment's
last column plus any shifted pair score stays at or below it, so the
running maximum restarts at each segment without being written there.
``D`` is recovered once, after the loop, from each sweep's own last
row count.  Memory is one entry per column and per sweep, ``O(sum of
(m + n))``, plus one ``256 x 256`` pair table per scheme, built once.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .matrix import SimilarityMatrix
from .scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix, encode
from .smith_waterman import LocalHit
from .traceback import Alignment

__all__ = [
    "nw_score",
    "nw_align",
    "nw_last_row",
    "nw_cells_argmax",
    "nw_cells_argmax_batch",
    "nw_segmented_sweep",
]

#: Below every DP value: the "no cell yet" score of the argmax trackers.
_NO_CELL = -(1 << 62)
#: Above every ``(row, column)`` key: the "not a maximum" key of a column.
_NO_KEY = np.iinfo(np.int64).max


def nw_align(
    s: str, t: str, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> Alignment:
    """Optimal global alignment via the full-matrix oracle.

    Quadratic space; used for small inputs, testing, and as the base
    case of Hirschberg's recursion.
    """
    return SimilarityMatrix(s, t, scheme, local=False).best_alignment()


def nw_score(
    s: str, t: str, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> int:
    """Optimal global alignment score, in linear space."""
    return int(nw_last_row(encode(s), encode(t), scheme)[-1])


def _nw_sweep(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix,
    track_argmax: bool,
) -> tuple[np.ndarray, LocalHit | None]:
    """Shared linear-space global sweep.

    Returns the last DP row and, when ``track_argmax`` is set, the
    maximum cell over the whole matrix *excluding row 0 and column 0*
    (boundary cells describe empty alignments; the anchored passes that
    consume this maximum treat "empty" separately).  Tie-break matches
    the repo convention: smallest ``i``, then smallest ``j``.
    """
    m, n = len(s_codes), len(t_codes)
    gap = scheme.gap
    steps = gap * np.arange(0, n + 1, dtype=np.int64)
    prev = steps.copy()  # row 0: 0, g, 2g, ...
    cur = np.empty(n + 1, dtype=np.int64)
    h = np.empty(n + 1, dtype=np.int64)
    best: LocalHit | None = None
    if track_argmax and n > 0:
        best = LocalHit(_NO_CELL, 0, 0)
    for i in range(1, m + 1):
        pair_row = scheme.pair_vector(int(s_codes[i - 1]), t_codes)
        h[0] = gap * i
        np.maximum(prev[:-1] + pair_row, prev[1:] + gap, out=h[1:])
        cur[:] = np.maximum.accumulate(h - steps) + steps
        if best is not None:
            row_best_j = int(np.argmax(cur[1:])) + 1
            row_best = int(cur[row_best_j])
            if row_best > best.score:
                best = LocalHit(row_best, i, row_best_j)
        prev, cur = cur, prev
    return prev.copy(), best


def nw_last_row(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
) -> np.ndarray:
    """Last row of the global DP matrix, ``O(n)`` space.

    ``result[j] == score of globally aligning all of s with t[:j]``.
    This is the quantity Hirschberg's divide-and-conquer combines from
    the two halves.
    """
    row, _ = _nw_sweep(s_codes, t_codes, scheme, track_argmax=False)
    return row


def nw_cells_argmax(
    s: str | np.ndarray,
    t: str | np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
) -> LocalHit:
    """Maximum over all interior cells of the global DP matrix.

    ``nw_cells_argmax(s, t).score`` is the best score of an alignment
    that consumes *prefixes* ``s[:i]`` and ``t[:j]`` entirely (an
    end-anchored alignment when applied to reversed suffixes).  Used by
    :mod:`repro.align.local_linear` to turn accelerator coordinates
    into exact alignment spans.  Empty inputs return ``LocalHit(0,0,0)``
    (the empty alignment).
    """
    s_codes = encode(s)
    t_codes = encode(t)
    if len(s_codes) == 0 or len(t_codes) == 0:
        return LocalHit(0, 0, 0)
    _, best = _nw_sweep(s_codes, t_codes, scheme, track_argmax=True)
    assert best is not None
    return best


def nw_cells_argmax_batch(
    pairs: Sequence[tuple[str | np.ndarray, str | np.ndarray]],
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
) -> list[LocalHit]:
    """:func:`nw_cells_argmax` of every ``(s, t)`` pair, in one row loop.

    The pairs run as segments of one :func:`nw_segmented_sweep`, so the
    row loop runs once for the longest ``s`` instead of once per pair;
    each hit equals ``nw_cells_argmax(s, t, scheme)``, tie-break
    included.
    """
    codes = [(encode(s), encode(t)) for s, t in pairs]
    hits = [LocalHit(0, 0, 0)] * len(codes)
    live = [k for k, (s_codes, t_codes) in enumerate(codes) if len(s_codes) and len(t_codes)]
    if not live:
        return hits
    rows = np.array([len(codes[k][0]) for k in live], dtype=np.int64)
    cols = np.array([len(codes[k][1]) for k in live], dtype=np.int64)
    _, _, best = nw_segmented_sweep(
        np.concatenate([codes[k][0] for k in live]),
        np.concatenate([codes[k][1] for k in live]),
        s_first=np.cumsum(rows) - rows,
        t_first=np.cumsum(cols) - cols,
        step=np.ones(len(live), dtype=np.int64),
        rows=rows,
        cols=cols,
        scheme=scheme,
        track_argmax=True,
    )
    for q, k in enumerate(live):
        hits[k] = LocalHit(*best[:, q].tolist())
    return hits


@functools.lru_cache(maxsize=4)
def _shifted_pairs(scheme: LinearScoring | SubstitutionMatrix) -> tuple[np.ndarray, int]:
    """``pair(a, b) - 2 * gap`` of every byte pair, flat at ``a * 256 + b``, and its maximum.

    Built once per scheme, so a sweep gathers each row's pair scores
    from it instead of deriving them per row or per call; every caller
    shares it, so it is read-only.
    """
    codes = np.arange(256, dtype=np.uint8)
    table = scheme.substitution_rows(codes, codes).ravel() - 2 * scheme.gap
    table.flags.writeable = False
    return table, int(table.max())


def nw_segmented_sweep(
    s_codes: np.ndarray,
    t_codes: np.ndarray,
    s_first: np.ndarray,
    t_first: np.ndarray,
    step: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    track_argmax: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Many linear-space global sweeps in one row loop (module docs).

    Sweep ``q`` aligns the ``rows[q] >= 1`` characters
    ``s_codes[s_first[q] + step[q] * r]`` against the ``cols[q] >= 1``
    characters ``t_codes[t_first[q] + step[q] * c]``; ``step`` is 1 for
    a forward sweep and -1 for a sweep over reversed slices.

    Returns ``(last, where, best)``.  ``last[where[q] + c]`` is sweep
    ``q``'s last-row cell ``c`` for ``0 <= c <= cols[q]`` — what
    :func:`nw_last_row` returns for it.  With ``track_argmax``,
    ``best[:, q]`` is sweep ``q``'s :func:`nw_cells_argmax` ``(score,
    i, j)``: interior cells only, smallest ``(i, j)`` among equal
    maxima.  Otherwise ``best`` is ``None``.
    """
    gap = scheme.gap
    count = len(rows)
    order = np.argsort(-rows, kind="stable")
    rows, s_first, t_first, step = rows[order], s_first[order], t_first[order], step[order]
    widths = cols[order] + 1
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1])
    sweep_of = np.repeat(np.arange(count), widths)
    local = np.arange(total) - starts[sweep_of]
    # Row r of sweep q reads s_ext[s_base[q] + r - 1] (s, then s
    # reversed) and pairs[(s code << 8) + t code] (pair - 2 * gap).
    # Column 0 of a segment is the row boundary; its codes are unused.
    pairs, pair_max = _shifted_pairs(scheme)
    s_ext = np.concatenate([s_codes, s_codes[::-1]]).astype(np.int64) << 8
    s_base = np.where(step > 0, s_first, 2 * len(s_codes) - 1 - s_first)
    t_index = t_first[sweep_of] + step[sweep_of] * (local - 1)
    t_cat = t_codes.astype(np.int64).take(t_index, mode="clip")
    # Rows are kept lifted: segment q's row r holds R = D + |gap| * (r +
    # c) + q * stride, and R - q * stride lies in [0, min(r, c) *
    # max(pair_max, 0)] (module docs), so this stride puts every value of
    # a segment, plus any shifted pair score, at most at the next
    # segment's constant column 0.
    stride = (min(int(rows[0]), int(widths.max()) - 1) + 1) * max(pair_max, 0) + 1
    lift = sweep_of * stride
    prev = lift.copy()  # row 0: D = gap * c
    cur = np.empty_like(prev)
    h = np.empty_like(prev)
    h[0] = 0  # segment 0's column 0; the row step gives every other one
    index = np.empty_like(prev)
    if track_argmax:
        # Per column: its best D + lift - gap * c so far and the first row
        # reaching it.
        lifted = np.empty_like(prev)
        col_best = np.full(total, _NO_CELL, dtype=np.int64)
        col_row = np.zeros(total, dtype=np.int64)
        improved = np.empty(total, dtype=bool)
    counts = rows.tolist()
    active, width = count, 0
    for r in range(1, counts[0] + 1):
        if counts[active - 1] < r or not width:
            if width:
                # Sweeps that ended on the previous row keep it in both buffers.
                active = int(np.count_nonzero(rows[:active] >= r))
                narrow = int(ends[active - 1])
                cur[narrow:width] = prev[narrow:width]
            # Views of the still-running prefix, made once per width.
            width = int(ends[active - 1])
            p, c, hw, h_tail = prev[:width], cur[:width], h[:width], h[1:width]
            s_w, widths_w, t_w = s_base[:active], widths[:active], t_cat[:width]
            index_w, index_tail = index[:width], index[1:width]
            if track_argmax:
                lifted_w, best_w = lifted[:width], col_best[:width]
                row_w, improved_w = col_row[:width], improved[:width]
        np.add(s_ext[r - 1 :][s_w].repeat(widths_w), t_w, out=index_w)
        np.add(p[:-1], pairs[index_tail], out=h_tail)
        np.maximum(h_tail, p[1:], out=h_tail)
        np.maximum.accumulate(hw, out=c)
        if track_argmax:
            # Strict improvement keeps each column's first row at its best.
            np.add(c, r * gap, out=lifted_w)
            np.greater(lifted_w, best_w, out=improved_w)
            np.maximum(best_w, lifted_w, out=best_w)
            np.putmask(row_w, improved_w, r)
        prev, cur, p, c = cur, prev, c, p
    # Back to D, each sweep at its own last row.
    prev += gap * (rows[sweep_of] + local) - lift
    where = np.empty(count, dtype=np.int64)
    where[order] = starts
    best = None
    if track_argmax:
        # Each segment's maximum over interior cells (column 0 holds empty
        # alignments), then the smallest (row, column) that reaches it.
        col_best += gap * local - lift
        col_best[starts] = _NO_CELL
        seg_best = np.maximum.reduceat(col_best, starts)
        key = np.where(col_best == seg_best[sweep_of], col_row * total + local, _NO_KEY)
        first = np.minimum.reduceat(key, starts)
        best = np.empty((3, count), dtype=np.int64)
        best[:, order] = np.stack([seg_best, first // total, first % total])
    return prev, where, best
