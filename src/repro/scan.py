"""Database scanning: the user-facing search application.

The deployment the paper envisions (sections 1 and 5): a query held on
the accelerator, a sequence database streamed past it record by
record, "the coordinates and the value of the similarity" returned for
each, and the interesting alignments retrieved in software.  This
module is that application built on the public API — a minimal
SSEARCH-style tool:

* scan every FASTA record (or any ``(name, sequence)`` iterable),
* rank records by best local score,
* optionally retrieve the actual alignment for the top hits via the
  linear-space pipeline,
* account cells/time so the report carries throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .align.local_linear import local_align_linear
from .align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix
from .align.smith_waterman import LocalHit, sw_locate_best
from .align.traceback import Alignment
from .analysis.cups import format_cups
from .analysis.report import render_table
from .analysis.stats import ScoreStatistics
from .io.fasta import FastaRecord

__all__ = ["ScanHit", "ScanReport", "scan_database"]


@dataclass(frozen=True)
class ScanHit:
    """Best hit of the query against one database record."""

    record: str
    length: int
    hit: LocalHit
    alignment: Alignment | None = None
    evalue: float | None = None

    @property
    def score(self) -> int:
        return self.hit.score


@dataclass
class ScanReport:
    """Ranked scan results plus throughput accounting.

    Two clocks are kept: ``sweep_seconds`` times only the phase-1
    locate sweep (the work the accelerator does and the work CUPS is
    defined on), while ``total_seconds`` additionally includes ranking,
    alignment retrieval and E-value computation on the host side.
    """

    query_length: int
    min_score: int = 1
    hits: list[ScanHit] = field(default_factory=list)
    records_scanned: int = 0
    cells: int = 0
    sweep_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def cups(self) -> float:
        """Sweep throughput — cells over the phase-1 sweep time only."""
        return self.cells / self.sweep_seconds if self.sweep_seconds > 0 else 0.0

    def best(self) -> ScanHit | None:
        return self.hits[0] if self.hits else None

    def render(self, max_rows: int = 10) -> str:
        """Human-readable ranked table (SSEARCH-style)."""
        rows = [
            [
                rank + 1,
                h.record or "<unnamed>",
                h.length,
                h.score,
                f"({h.hit.i}, {h.hit.j})",
                f"{h.evalue:.2g}" if h.evalue is not None else "-",
                f"{h.alignment.identity():.0%}" if h.alignment else "-",
            ]
            for rank, h in enumerate(self.hits[:max_rows])
        ]
        if not rows:
            rows = [["-", f"no hits >= min_score {self.min_score}"] + ["-"] * 5]
        table = render_table(
            ["rank", "record", "length", "score", "end (i, j)", "E-value", "identity"],
            rows,
            title=(
                f"scan: query of {self.query_length} bp vs "
                f"{self.records_scanned} records "
                f"({self.cells:,} cells, {format_cups(self.cups)})"
            ),
        )
        return table


def _named(rec) -> tuple[str, str]:
    """``(name, upper-cased sequence)`` of one scan record.

    An already upper-case sequence is returned as is, not copied, so a
    sweep that holds every record holds no second copy of the database.
    """
    if isinstance(rec, FastaRecord):
        name, seq = rec.identifier, rec.sequence
    elif isinstance(rec, tuple):
        name, seq = rec
    else:
        name, seq = "", rec
    return name, seq if seq.isupper() else seq.upper()


def scan_database(
    query: str,
    records: Iterable[FastaRecord] | Iterable[tuple[str, str]] | Sequence[str],
    scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    top: int = 10,
    min_score: int = 1,
    retrieve: int = 3,
    statistics: ScoreStatistics | None = None,
    kernel: "str | object | None" = None,
) -> ScanReport:
    """Scan the query against every record; rank by best local score.

    Parameters
    ----------
    records:
        :class:`FastaRecord` objects, ``(name, sequence)`` tuples, or
        bare sequence strings.
    kernel:
        The phase-1 kernel backend: a :mod:`repro.kernels` registry
        name (``"numpy-striped"``, ``"pure"``, ``"hw-sim"``, ...)
        or a :class:`~repro.kernels.KernelBackend` instance.  The query
        sweeps every record in one ``locate_batch`` call, so a batched
        backend runs batched.  ``None`` runs the oracle row sweep
        (:func:`~repro.align.smith_waterman.sw_locate_best`) record by
        record whatever ``REPRO_KERNEL`` says: that path shares no code
        with the batched kernels, which makes it the oracle the service
        is checked against.  Every backend ranks bit-identically.
    top:
        Keep this many best records in the report.
    min_score:
        Discard records scoring below this.
    retrieve:
        Retrieve actual alignments (linear space) for this many of
        the top hits; 0 disables retrieval.
    statistics:
        Calibrated :class:`~repro.analysis.stats.ScoreStatistics`;
        when given, every reported hit carries a Karlin-Altschul
        E-value for its record's search space.
    """
    if top < 1:
        raise ValueError(f"top must be positive, got {top}")
    if retrieve < 0:
        raise ValueError(f"retrieve cannot be negative, got {retrieve}")
    backend = None
    locate = sw_locate_best
    if kernel is not None:
        from .kernels import KernelBackend, get_backend

        backend = kernel if isinstance(kernel, KernelBackend) else get_backend(kernel)
        locate = backend.locate
    query = query.upper()
    report = ScanReport(query_length=len(query), min_score=min_score)
    start = time.perf_counter()
    named = (_named(rec) for rec in records)
    scored: list[tuple[LocalHit, str, str]] = []
    if backend is None:
        # Stream: a record's upper-cased copy lives through its own
        # locate and is kept only for a hit.
        for name, seq in named:
            report.records_scanned += 1
            report.cells += len(query) * len(seq)
            hit = locate(query, seq, scheme)
            if hit.score >= min_score:
                scored.append((hit, name, seq))
    else:
        names: list[str] = []
        seqs: list[str] = []
        for name, seq in named:
            names.append(name)
            seqs.append(seq)
        (hits,) = backend.locate_batch([query], seqs, scheme)
        report.records_scanned = len(seqs)
        report.cells = len(query) * sum(len(seq) for seq in seqs)
        scored = [
            (hit, name, seq)
            for hit, name, seq in zip(hits, names, seqs)
            if hit.score >= min_score
        ]
    report.sweep_seconds = time.perf_counter() - start
    # Rank: score desc, then record order (stable sort keeps ties in
    # database order, the convention search tools use).
    scored.sort(key=lambda item: -item[0].score)
    for rank, (hit, name, seq) in enumerate(scored[:top]):
        alignment = None
        if rank < retrieve:
            alignment = local_align_linear(query, seq, scheme, locate).alignment
        evalue = (
            statistics.evalue(hit.score, len(query), len(seq))
            if statistics is not None
            else None
        )
        report.hits.append(
            ScanHit(
                record=name,
                length=len(seq),
                hit=hit,
                alignment=alignment,
                evalue=evalue,
            )
        )
    report.total_seconds = time.perf_counter() - start
    return report
