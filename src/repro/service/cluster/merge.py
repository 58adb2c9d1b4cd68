"""Globally consistent merge of per-node top-k responses.

Why this is bit-identical to a single-node ranking
--------------------------------------------------
The single-node engine ranks candidates by ``(-score, global_index)``
(:func:`repro.service.pool.merge_candidates` — the scanner's stable
sort).  The wire protocol does **not** carry global indices, but the
topology makes them recoverable: nodes own *contiguous, ascending*
record spans, so for two hits with equal score the one from the
lower-ranked node has the smaller global index, and within one node
the server's own response order already is ascending-global-index
among ties.  A stable merge keyed ``(-score, node_rank, within-node
position)`` therefore reproduces ``(-score, global_index)`` exactly.

Per-node **top-k is lossless** for the global top-k: a hit's global
rank is at least its rank within its own node, so any hit ranked
``< k`` globally was ranked ``< k`` on its node and is present in
that node's answer.  The same argument covers ``retrieve``: every hit
inside the global top-``retrieve`` sits inside its node's
top-``retrieve`` and arrived with its alignment; hits merged *past*
the global cutoff have their alignments stripped so the cluster
answer matches the single-node answer field for field.

Coverage and degradation
------------------------
``records`` on each node response is the count its engine actually
swept, so the cluster-level coverage is simply the sum over answering
nodes divided by the database total.  A node that did not answer
loses exactly its span's records — and an **empty-span** node
(more nodes than records) loses zero, so it can never mark the answer
degraded no matter what happened to it.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ... import scan as _scan
from .. import QueryOptions
from ..engine import RequestMetrics, SearchResponse
from .topology import ClusterTopology

__all__ = ["NodeAnswer", "merge_node_responses"]


@dataclasses.dataclass(frozen=True)
class NodeAnswer:
    """One node's contribution to a gather: a response, or why not.

    ``response`` is ``None`` when the node did not answer inside the
    budget (dead, partitioned, breaker-open, deadline-expired);
    ``error`` then carries the reason for logs and metrics.

    ``events`` records what happened to this leg on the way —
    ``("failover", ...)`` when a replica answered for a dead primary,
    ``("ejected", ...)``, ``("failed", ...)``, ``("timeout", ...)`` —
    so the coordinator can pin each incident to the correct node span
    in the stitched trace.
    """

    node_id: int
    response: SearchResponse | None
    error: BaseException | None = None
    seconds: float = 0.0
    events: tuple[tuple[str, dict], ...] = ()

    @property
    def answered(self) -> bool:
        return self.response is not None


def merge_node_responses(
    query: str,
    answers: Sequence[NodeAnswer],
    topology: ClusterTopology,
    options: QueryOptions,
    total_seconds: float = 0.0,
) -> SearchResponse:
    """Fold per-node answers into one globally ranked response.

    ``answers`` may cover any subset of the topology's non-empty
    nodes; missing and unanswered nodes degrade coverage by exactly
    their span size.  Raises ``ValueError`` when no node answered at
    all and the database is non-empty — an answer ranking zero of the
    records is not a degraded answer, it is a failure.
    """
    options = options.validate()
    by_id = {answer.node_id: answer for answer in answers}
    total = topology.total_records

    answered = [
        (node.node_id, by_id[node.node_id].response)
        for node in topology.nodes
        if node.node_id in by_id and by_id[node.node_id].answered
    ]
    if not answered and total:
        errors = [a.error for a in answers if a.error is not None]
        detail = f": {errors[0]}" if errors else ""
        raise ValueError(f"no cluster node answered the query{detail}")

    # Stable merge: per-node hit lists are already sorted by
    # (-score, local index); concatenating in node order and sorting
    # stably by score alone reproduces (-score, global index).
    merged: list[_scan.ScanHit] = []
    for _node_id, response in answered:
        merged.extend(response.report.hits)
    merged.sort(key=lambda hit: -hit.hit.score)
    merged = merged[: options.top]
    merged = [
        hit
        if rank < options.retrieve or hit.alignment is None
        else dataclasses.replace(hit, alignment=None)
        for rank, hit in enumerate(merged)
    ]

    covered = sum(response.metrics.records for _nid, response in answered)
    degraded: set[int] = set()
    for node in topology.nodes:
        if node.empty:
            continue  # owns nothing; cannot lose anything
        answer = by_id.get(node.node_id)
        if answer is None or not answer.answered:
            degraded.add(node.node_id)
        elif answer.response.coverage < 1.0:
            degraded.add(node.node_id)
    coverage = covered / total if total else 1.0

    cells = sum(r.report.cells for _nid, r in answered)
    sweep_seconds = max((r.metrics.sweep_seconds for _nid, r in answered), default=0.0)
    retrieval_seconds = max(
        (r.metrics.retrieval_seconds for _nid, r in answered), default=0.0
    )
    report = _scan.ScanReport(
        query_length=len(query),
        min_score=options.min_score,
        hits=merged,
        records_scanned=covered,
        cells=cells,
        sweep_seconds=sweep_seconds,
        total_seconds=total_seconds or sweep_seconds + retrieval_seconds,
    )
    metrics = RequestMetrics(
        query_length=len(query),
        records=covered,
        cells=cells,
        sweep_seconds=sweep_seconds,
        retrieval_seconds=retrieval_seconds,
        total_seconds=total_seconds or sweep_seconds + retrieval_seconds,
        workers=sum(r.metrics.workers for _nid, r in answered),
        shards=sum(r.metrics.shards for _nid, r in answered),
        cache_hit=bool(answered) and all(r.metrics.cache_hit for _nid, r in answered),
    )
    return SearchResponse(
        query=query,
        report=report,
        metrics=metrics,
        coverage=coverage,
        degraded_shards=tuple(sorted(degraded)),
    )
