"""Profiling harness — "no optimization without measuring".

The HPC guidance this repository follows starts every optimization at
a profile; this module packages that workflow so benchmark notes and
examples can show *where* the software baseline spends its time (and
why the anti-diagonal/scan vectorization was the right lever).

:func:`profile_call` runs any callable under :mod:`cProfile` and
returns the top hotspots as structured rows;
:func:`profile_locate` applies it to the locate kernels on a synthetic
workload.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from typing import Callable

__all__ = ["Hotspot", "profile_call", "profile_locate"]


def _is_overhead_frame(filename: str, name: str, internal_seconds: float) -> bool:
    """True for the harness's own zero-cost frames.

    A frame belongs to the harness when it is the profiler machinery
    (``cProfile``) or the wrapper lambda — but it is only *overhead*
    when it did no work of its own (``internal_seconds`` is zero).  A
    user function that happens to be a lambda, or real time spent
    inside profiler frames, stays in the report.  (This predicate was
    previously inlined as ``"cProfile" in filename or name ==
    "<lambda>" and not tt``, where Python's precedence binds the
    ``and`` first and the ``or`` arm dropped every cProfile frame
    regardless of cost.)
    """
    return ("cProfile" in filename or name == "<lambda>") and not internal_seconds


@dataclass(frozen=True)
class Hotspot:
    """One profile row: where the time went."""

    function: str
    calls: int
    cumulative_seconds: float
    internal_seconds: float


def profile_call(fn: Callable[[], object], top: int = 10) -> list[Hotspot]:
    """Profile one call of ``fn``; return the ``top`` hotspots.

    Rows are ordered by cumulative time; the profiled call's own
    overhead frames (the profiler, this wrapper) are filtered out.
    """
    if top < 1:
        raise ValueError(f"top must be positive, got {top}")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    hotspots: list[Hotspot] = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, _line, name = func
        if _is_overhead_frame(filename, name, tt):
            continue
        label = f"{name} ({filename.rsplit('/', 1)[-1]})"
        hotspots.append(
            Hotspot(
                function=label,
                calls=int(nc),
                cumulative_seconds=float(ct),
                internal_seconds=float(tt),
            )
        )
        if len(hotspots) >= top:
            break
    return hotspots


def profile_locate(
    query_length: int = 100,
    database_length: int = 50_000,
    kernel: str = "numpy",
    top: int = 8,
    seed: int = 0,
) -> list[Hotspot]:
    """Profile a locate kernel on a synthetic workload.

    ``kernel`` is ``"numpy"`` (the vectorized baseline) or ``"pure"``
    (the Python-loop reference).  The expected shapes — NumPy time in
    ufunc/accumulate, pure-Python time in the cell loop — are asserted
    by the tests, making the guide's "profile first" advice an actual
    checked property of the repository.  The kernel runs once on a
    short prefix before profiling, so first-call costs (imports,
    allocator warm-up) stay out of the profile.
    """
    if kernel not in ("numpy", "pure"):
        raise ValueError(f"unknown kernel {kernel!r}")
    from ..baselines.software import locate_numpy, locate_pure
    from ..io.generate import random_dna

    s = random_dna(query_length, seed=seed)
    t = random_dna(database_length, seed=seed + 1)
    fn = locate_numpy if kernel == "numpy" else locate_pure
    fn(s[:8], t[:8])
    return profile_call(lambda: fn(s, t), top=top)
