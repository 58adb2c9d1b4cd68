"""Shard sweep tasks: the unit of work the search service distributes.

Each task sweeps one :class:`~repro.service.index.Shard` with the
phase-1 locate kernel — the software row sweep or a simulated
:class:`~repro.core.accelerator.SWAccelerator` — for a *batch* of
queries at once, and returns only the per-shard top-k candidate
tuples ``(score, global_index, i, j)``.  That is the paper's
deployment contract scaled out: the expensive O(m·n) sweep happens
next to the data, and "only a few bytes" per record travel back.

Correctness contract: merging per-shard candidates with the key
``(-score, global_index)`` reproduces :func:`repro.scan.scan_database`
rankings **bit-identically** — the scanner stable-sorts database-order
hits by descending score, which is exactly that total order.  A
per-shard top-k can never evict a global top-k member under a total
order, so the truncation is lossless.  The property test in
``tests/test_service_engine.py`` pins this across worker counts.

Tasks run either in-process (the engine's single-worker path) or in
the subprocesses of
:class:`~repro.service.resilience.SupervisedWorkerPool`; a
:class:`WorkerSpec` describes how each task builds its kernel so
accelerator state never needs to cross the process boundary.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass
from typing import Sequence

from ..align.scoring import LinearScoring, SubstitutionMatrix
from ..kernels import KernelBackend, HwSimBackend, available_backends, default_kernel, get_backend

__all__ = [
    "Candidate",
    "ShardSweep",
    "WorkerSpec",
    "busy_seconds",
    "merge_candidates",
    "shard_task",
]

#: ``(score, global_index, i, j)`` — the pool's wire format for one
#: database hit, deliberately tiny (the paper's three-word readout
#: plus the record id it belongs to).
Candidate = tuple[int, int, int, int]


@dataclass(frozen=True)
class WorkerSpec:
    """How a worker builds its locate kernel.

    ``kind`` names a :mod:`repro.kernels` backend; ``None`` is the
    process default (``REPRO_KERNEL`` when set, else
    ``numpy-striped``).  ``elements`` sizes the ``hw-sim`` backend's
    array.  The spec — not the kernel — is what crosses
    the process boundary, so device state is built fresh in each
    worker process (one per worker per sweep).
    """

    kind: str | None = None
    elements: int = 100

    def __post_init__(self) -> None:
        if self.kind is not None and self.kind not in available_backends():
            raise ValueError(
                f"unknown worker kind {self.kind!r} "
                f"(available: {', '.join(available_backends())})"
            )
        if self.elements < 1:
            raise ValueError(f"need at least one element, got {self.elements}")

    def resolved_kernel(self) -> str:
        """The registry backend name this spec resolves to.

        Resolved at call time (not construction) so a spec pickled
        into a worker subprocess honours that process's environment.
        """
        return self.kind if self.kind is not None else default_kernel()

    def make_backend(
        self, scheme: LinearScoring | SubstitutionMatrix
    ) -> KernelBackend:
        """The kernel backend a worker sweeps with."""
        name = self.resolved_kernel()
        if name == "hw-sim":
            # A fresh device per worker: accelerator state never
            # crosses the process boundary.
            return HwSimBackend(elements=self.elements)
        return get_backend(name)


@dataclass(frozen=True)
class ShardSweep:
    """One shard's sweep result for a batch of queries."""

    shard_id: int
    candidates: tuple[tuple[Candidate, ...], ...]  # per query
    cells: int
    records: int
    seconds: float
    worker: str


def shard_task(
    shard,
    queries: Sequence[str],
    scheme: LinearScoring | SubstitutionMatrix,
    spec: WorkerSpec,
    min_score: int,
    k: int,
) -> tuple:
    """The picklable argument tuple one shard sweep task carries.

    Shared by the supervised pool and the engine's in-process sweep so
    both feed :func:`_sweep_shard` identical work — which is what keeps
    their healthy-path results byte-for-byte interchangeable.
    """
    return (
        shard.shard_id,
        shard.start,
        shard.offsets,
        shard.payload,
        tuple(queries),
        scheme,
        spec,
        min_score,
        k,
    )


def _sweep_shard(
    args: tuple,
) -> ShardSweep:
    """Sweep one shard for every query (runs inside a worker process)."""
    (shard_id, start, offsets, payload, queries, scheme, spec, min_score, k) = args
    backend = spec.make_backend(scheme)
    t0 = time.perf_counter()
    n_records = len(offsets) - 1
    records = [
        payload[int(offsets[r]) : int(offsets[r + 1])] for r in range(n_records)
    ]
    # One batched call: every query × every record of the shard in one
    # kernel invocation, so a batched backend amortizes its row sweeps
    # across the whole shard (single-pair backends fall back to the
    # equivalent pairwise loop inside ``locate_batch``).
    hits = backend.locate_batch(queries, records, scheme)
    cells = 0
    per_query: list[list[Candidate]] = [[] for _ in queries]
    for r, codes in enumerate(records):
        gidx = start + r
        for qi, query in enumerate(queries):
            cells += len(query) * len(codes)
            hit = hits[qi][r]
            if hit.score >= min_score:
                per_query[qi].append((hit.score, gidx, hit.i, hit.j))
    topk = tuple(
        tuple(heapq.nsmallest(k, cands, key=lambda c: (-c[0], c[1])))
        for cands in per_query
    )
    return ShardSweep(
        shard_id=shard_id,
        candidates=topk,
        cells=cells,
        records=n_records,
        seconds=time.perf_counter() - t0,
        worker=f"worker-{os.getpid()}",
    )


def merge_candidates(
    sweeps: Sequence[ShardSweep], n_queries: int, k: int
) -> list[list[Candidate]]:
    """Merge per-shard top-k lists into global top-k per query.

    Sorting by ``(-score, global_index)`` is the scanner's stable-sort
    order, so the merged ranking is bit-identical to a sequential
    :func:`~repro.scan.scan_database` over the same records.
    """
    merged: list[list[Candidate]] = []
    for qi in range(n_queries):
        pooled = [c for sweep in sweeps for c in sweep.candidates[qi]]
        pooled.sort(key=lambda c: (-c[0], c[1]))
        merged.append(pooled[:k])
    return merged


def busy_seconds(sweeps: Sequence[ShardSweep]) -> dict[str, float]:
    """Total sweep seconds per worker (for utilization reporting)."""
    busy: dict[str, float] = {}
    for sweep in sweeps:
        busy[sweep.worker] = busy.get(sweep.worker, 0.0) + sweep.seconds
    return busy
