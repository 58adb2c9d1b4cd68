"""The ``numpy-striped`` backend: many pairs per matrix instruction.

The row sweep (:func:`~repro.align.smith_waterman.sw_locate_best`)
handles one (query, record) pair at a time: per DP row it issues a
handful of NumPy calls over one length-``n`` vector.  For the short
records a sharded database mostly holds, that makes the sweep
*dispatch-bound* — interpreter and ufunc-launch overhead, not
arithmetic, dominates.  This kernel restores the arithmetic bound by
advancing **every query against every record in the batch through the
same DP row simultaneously**: state is a ``(Q, R, n+1)`` array (Q
queries × R records × padded columns) and each row costs the same
fixed number of NumPy calls regardless of Q and R — SWAPHI's
inter-sequence (many records) × intra-sequence (vector lanes)
parallelization mapped onto array axes.

Two precomputations make the row cheap:

* a **query profile** ``prof[qi, i, b]`` — the substitution score of
  query ``qi``'s row-``i`` character against target byte ``b`` — so
  the per-row pair scores for the whole batch are one fancy-indexed
  gather ``prof[:, i, T]`` instead of Q×R ``pair_vector`` calls;
* the same max-plus prefix scan the row sweep uses, applied
  along the last axis: ``cummax(H - j·g) + j·g`` resolves the
  within-row dependency for every lane in one ``maximum.accumulate``.

Exactness: records shorter than the chunk's padded width are padded
with the **sentinel code** 256, whose profile column scores every row
``-(m_max·max(pair, 0) + 1)`` — lower than any DP value can make up.
A real column ``j`` reads only columns ``j-1`` and ``j`` of the
previous and current rows, so a record's real columns never observe
another record's — or their own pad — state.  A pad cell's diagonal
term is negative, so by induction over rows (``gap < 0``) the cell
``k`` columns past a record's last real cell ``R_i`` holds at most
``max(0, R_i + k·gap)``: a pad never strictly beats a real cell of its
row, and the first-occurrence ``argmax`` always lands on a real
column (ties at 0 are never recorded: best-so-far starts at 0 and
updates are strict).  The sentinel column is left out of the
state-dtype bound, so it costs no width.  Likewise queries shorter
than the batch's longest query are simply masked out of the best-cell
update once past their last row.  The result is **bit-identical** to
the row sweep — same ``(score, i, j)``, same
smallest-``i``-then-smallest-``j`` tie-breaks — which the
cross-backend property tests pin down.

The single-pair entry point :meth:`StripedKernel.locate` is the
row sweep itself, and so is a one-pair ``locate_batch``: a
one-record batch has nothing to amortize, and the row sweep is faster
on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix, encode
from ..align.smith_waterman import LocalHit, sw_locate_best

from . import KernelBackend

__all__ = ["StripedKernel", "DEFAULT_CELL_BUDGET"]

#: Ceiling on ``Q × R × n`` live DP cells per chunk (~32 MiB of int64
#: per state array); batches larger than this are split into chunks of
#: records, never of queries, so every chunk still amortizes across
#: the full query set.
DEFAULT_CELL_BUDGET = 4_000_000

#: The target code that pads records to a chunk's width: one past
#: every real byte, so it indexes the profile's sentinel column.
PAD_CODE = 256


class StripedKernel(KernelBackend):
    """Batched profile-based locate kernel (see module docs)."""

    name = "numpy-striped"

    def __init__(self, cell_budget: int = DEFAULT_CELL_BUDGET) -> None:
        if cell_budget < 1:
            raise ValueError(f"cell budget must be positive, got {cell_budget}")
        self.cell_budget = cell_budget

    # ------------------------------------------------------------------
    def locate(self, s, t, scheme=DEFAULT_DNA) -> LocalHit:
        # One pair: the row sweep (see module docs).
        return sw_locate_best(s, t, scheme)

    def locate_batch(
        self,
        queries: Sequence[str | np.ndarray],
        targets: Sequence[str | np.ndarray],
        scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    ) -> list[list[LocalHit]]:
        if len(queries) == 1 and len(targets) == 1:
            # One pair: the row sweep (see module docs).
            return [[self.locate(queries[0], targets[0], scheme)]]
        q_codes = [encode(q) for q in queries]
        t_codes = [encode(t) for t in targets]
        hits: list[list[LocalHit]] = [
            [LocalHit(0, 0, 0)] * len(targets) for _ in queries
        ]
        live_q = [qi for qi, qc in enumerate(q_codes) if len(qc)]
        live_t = [ti for ti, tc in enumerate(t_codes) if len(tc)]
        if not live_q or not live_t:
            return hits
        prof = self._profiles([q_codes[qi] for qi in live_q], scheme)
        # Chunk records by length (longest first) so each chunk pads to
        # a similar width — padding cells are real work here.
        order = sorted(live_t, key=lambda ti: -len(t_codes[ti]))
        per_chunk = max(1, self.cell_budget // (len(live_q) * len(t_codes[order[0]])))
        for lo in range(0, len(order), per_chunk):
            chunk = order[lo : lo + per_chunk]
            chunk_hits = self._sweep_chunk(
                prof,
                [len(q_codes[qi]) for qi in live_q],
                [t_codes[ti] for ti in chunk],
                scheme.gap,
            )
            for row, qi in enumerate(live_q):
                for col, ti in enumerate(chunk):
                    hits[qi][ti] = chunk_hits[row][col]
        return hits

    # ------------------------------------------------------------------
    @staticmethod
    def _profiles(
        q_codes: list[np.ndarray], scheme: LinearScoring | SubstitutionMatrix
    ) -> np.ndarray:
        """``prof[qi, i, byte]`` — row-``i`` pair scores per target byte.

        Rows past a query's length stay at the fill value; they are
        computed by the sweep but masked out of every best-cell update.
        Column :data:`PAD_CODE` holds the pad sentinel (module docs).
        """
        n_q = len(q_codes)
        m_max = max(len(qc) for qc in q_codes)
        if isinstance(scheme, SubstitutionMatrix):
            prof = np.zeros((n_q, m_max, PAD_CODE + 1), dtype=np.int64)
            for qi, qc in enumerate(q_codes):
                prof[qi, : len(qc), :PAD_CODE] = scheme._table[qc, :]
        else:
            prof = np.full((n_q, m_max, PAD_CODE + 1), scheme.mismatch, dtype=np.int64)
            for qi, qc in enumerate(q_codes):
                prof[qi, np.arange(len(qc)), qc] = scheme.match
        best_pair = max(int(prof[..., :PAD_CODE].max()), 0)
        prof[..., PAD_CODE] = -(m_max * best_pair + 1)
        return prof

    @staticmethod
    def _state_dtype(prof: np.ndarray, m_max: int, n_max: int, gap: int):
        """The narrowest integer dtype no DP value can overflow.

        DP magnitudes are bounded by ``m·max|pair|`` above and by the
        scan offsets ``n·|gap|`` plus one pair score below; values are
        identical in any dtype inside that bound, so the narrowest
        state (a quarter of the memory traffic for short sequences —
        this kernel is bandwidth bound) changes nothing but wall-clock.
        The pad sentinel's column is left out: its magnitude,
        ``m_max·max(pair, 0) + 1``, is inside the bound already.
        """
        pair_bound = int(np.abs(prof[..., :PAD_CODE]).max(initial=0))
        bound = (m_max + n_max) * (pair_bound + abs(gap) + 1)
        if bound < 2**14:
            return np.int16
        return np.int32 if bound < 2**30 else np.int64

    def _sweep_chunk(
        self,
        prof: np.ndarray,
        q_lens: list[int],
        t_codes: list[np.ndarray],
        gap: int,
    ) -> list[list[LocalHit]]:
        """One padded chunk: every query × every record, row by row."""
        n_q = len(q_lens)
        n_t = len(t_codes)
        n_max = max(len(tc) for tc in t_codes)
        m_max = max(q_lens)
        dtype = self._state_dtype(prof, m_max, n_max, gap)
        prof = prof.astype(dtype, copy=False)
        T = np.full((n_t, n_max), PAD_CODE, dtype=np.intp)
        for ti, tc in enumerate(t_codes):
            T[ti, : len(tc)] = tc
        q_len_arr = np.array(q_lens, dtype=np.int64)
        flat_T = T.ravel()

        offsets = (gap * np.arange(1, n_max + 1)).astype(dtype)
        prev = np.zeros((n_q, n_t, n_max + 1), dtype=dtype)
        cur = np.zeros((n_q, n_t, n_max + 1), dtype=dtype)
        pair = np.empty((n_q, n_t * n_max), dtype=dtype)
        h = np.empty((n_q, n_t, n_max), dtype=dtype)
        up = np.empty((n_q, n_t, n_max), dtype=dtype)
        # An array operand, not the scalar 0: NumPy's int16 maximum
        # against a scalar is an order of magnitude slower.
        zero = np.zeros((n_q, n_t, n_max), dtype=dtype)
        best = np.zeros((n_q, n_t), dtype=dtype)
        best_i = np.zeros((n_q, n_t), dtype=np.int64)
        best_j = np.zeros((n_q, n_t), dtype=np.int64)
        for i in range(1, m_max + 1):
            np.take(prof[:, i - 1, :], flat_T, axis=-1, out=pair)
            pair_qr = pair.reshape(n_q, n_t, n_max)
            np.add(prev[..., :-1], pair_qr, out=h)
            np.add(prev[..., 1:], gap, out=up)
            np.maximum(h, up, out=h)
            np.maximum(h, zero, out=h)
            row = cur[..., 1:]
            np.subtract(h, offsets, out=h)
            np.maximum.accumulate(h, axis=-1, out=row)
            row += offsets
            vals = row.max(axis=-1)
            improved = (vals > best) & (i <= q_len_arr)[:, None]
            if improved.any():
                # argmax (first occurrence = smallest j) only on the
                # lanes that actually improved — most rows improve none.
                np.copyto(best, vals, where=improved)
                best_i[improved] = i
                best_j[improved] = np.argmax(row[improved], axis=-1) + 1
            prev, cur = cur, prev
        return [
            [
                LocalHit(int(best[qi, ti]), int(best_i[qi, ti]), int(best_j[qi, ti]))
                for ti in range(n_t)
            ]
            for qi in range(n_q)
        ]
