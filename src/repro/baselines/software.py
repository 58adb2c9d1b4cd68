"""Software baselines: the "optimized C program" stand-in.

The paper's speedup is measured against "an optimized C program that
implemented the same algorithm (i.e. computation of the same matrix
and highest score)" on the host CPU — score and coordinates only, no
traceback, no I/O.  We provide two software implementations of exactly
that computation:

* :func:`locate_numpy` — the vectorized row-sweep (our stand-in for
  the optimized C program; NumPy's compiled inner loops play the role
  of the C compiler's);
* :func:`locate_pure` — a straightforward pure-Python version: the
  naive implementation a scripting-language user would write, kept as
  an independent oracle (it shares no code with the kernels it
  validates) and as the lower anchor of the measured software range.

Both honour the repo-wide coordinate and tie-break conventions, so
every implementation in the repository is interchangeable on outputs.
"""

from __future__ import annotations

from ..align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix
from ..align.smith_waterman import LocalHit

__all__ = ["locate_numpy", "locate_pure"]


def locate_numpy(
    s: str, t: str, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> LocalHit:
    """Optimized software locate: the batched NumPy profile kernel.

    Historically this was an alias of
    :func:`~repro.align.smith_waterman.sw_locate_best` — the "NumPy
    baseline" and the reference kernel were the same code, so E1's
    software side measured nothing distinct.  It now routes through
    the ``numpy-striped`` backend (:mod:`repro.kernels`): genuinely
    different code (profile gather + batched row sweep) that is still
    bit-identical on ``(score, i, j)``, keeping the paper's fairness
    rule — hardware and software do *the same work* — while making the
    software side an honest optimized baseline.  It calls the backend's
    batched path with a one-pair batch: the backend's own ``locate`` is
    the reference row sweep, which would make the two sides one code
    again.
    """
    from ..kernels import get_backend

    return get_backend("numpy-striped").locate_batch([s], [t], scheme)[0][0]


def locate_pure(
    s: str, t: str, scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA
) -> LocalHit:
    """Pure-Python reference locate (no NumPy in the inner loop).

    Deliberately written from the recurrence as in paper equation (1),
    cell by cell, with its own scoring lookups — an implementation
    independent enough that agreement with the kernels is evidence,
    not tautology.  Quadratic time, linear space.
    """
    s = s.upper()
    t = t.upper()
    m, n = len(s), len(t)
    if m == 0 or n == 0:
        return LocalHit(0, 0, 0)
    gap = scheme.gap
    prev = [0] * (n + 1)
    best_score, best_i, best_j = 0, 0, 0
    for i in range(1, m + 1):
        cur = [0] * (n + 1)
        si = s[i - 1]
        for j in range(1, n + 1):
            diag = prev[j - 1] + scheme.pair(si, t[j - 1])
            up = prev[j] + gap
            left = cur[j - 1] + gap
            v = diag
            if up > v:
                v = up
            if left > v:
                v = left
            if v < 0:
                v = 0
            cur[j] = v
            if v > best_score:
                best_score, best_i, best_j = v, i, j
        prev = cur
    return LocalHit(best_score, best_i, best_j)
