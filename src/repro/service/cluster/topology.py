"""Cluster topology: which node owns which slice of the database.

The paper partitions the comparison across processing elements so each
holds only a fraction of the problem in its reduced memory space; at
service scale the same move splits a :class:`~repro.service.index.
DatabaseIndex` across N shard *nodes*, each a full
:class:`~repro.service.net.TcpSearchServer` over its own sub-index.

The split is :func:`repro.parallel.sharding.even_spans` over the
**global record order** — contiguous spans, node 0 first.  Contiguity
is what makes the coordinator's merge bit-identical to a single-node
ranking: the repo-wide tie-break is ascending global record index, and
with contiguous ascending spans, ``(-score, node_rank, within-node
order)`` *is* ``(-score, global_index)`` (see
:mod:`repro.service.cluster.merge`).

A :class:`ClusterTopology` is the deployable description: one
:class:`NodeSpec` per node with its record span, its primary address
and any replica addresses.  It round-trips through a JSON manifest so
``repro cluster partition`` / ``serve`` / ``query`` can hand off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from ...align.scoring import decode
from ...io.atomic import atomic_write
from ...parallel.sharding import even_spans
from ..index import DEFAULT_SHARD_BP, DatabaseIndex

__all__ = ["NodeSpec", "ClusterTopology", "partition_index", "write_partition"]


@dataclass(frozen=True)
class NodeSpec:
    """One shard node: a contiguous record span behind an address.

    ``start``/``stop`` delimit the node's half-open global record span
    (``even_spans`` output).  An **empty span** (``start == stop``) is
    legal — more nodes than records — and such a node owns zero
    records: it is never queried and can never degrade coverage.

    ``address`` is ``host:port`` (may be empty before the node is
    bound); ``replicas`` are addresses serving the *same* span, used
    for failover.  ``index_path`` optionally records where the node's
    sub-index file lives (the ``partition`` CLI writes it so ``serve``
    can find it).
    """

    node_id: int
    start: int
    stop: int
    address: str = ""
    replicas: tuple[str, ...] = ()
    index_path: str = ""

    @property
    def records(self) -> int:
        return self.stop - self.start

    @property
    def empty(self) -> bool:
        return self.stop <= self.start

    def with_address(self, address: str, replicas: Sequence[str] = ()) -> "NodeSpec":
        return replace(self, address=address, replicas=tuple(replicas))


@dataclass(frozen=True)
class ClusterTopology:
    """An ordered set of :class:`NodeSpec` covering the whole database.

    ``version`` is the *source* index's content hash: every node must
    be a partition of that exact database or the coordinator's merged
    ranking would silently mix generations.
    """

    nodes: tuple[NodeSpec, ...]
    total_records: int
    version: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        expected = 0
        for rank, node in enumerate(self.nodes):
            if node.node_id != rank:
                raise ValueError(
                    f"node ids must be 0..N-1 in order, got {node.node_id} at {rank}"
                )
            if node.start != expected or node.stop < node.start:
                raise ValueError(
                    f"node {rank} span [{node.start}, {node.stop}) is not the "
                    f"contiguous continuation of the previous span (expected "
                    f"start {expected})"
                )
            expected = node.stop
        if expected != self.total_records:
            raise ValueError(
                f"spans cover {expected} records, topology claims {self.total_records}"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def addresses(self) -> list[str]:
        return [node.address for node in self.nodes]

    @property
    def active_nodes(self) -> list[NodeSpec]:
        """Nodes that own at least one record (the only ones worth querying)."""
        return [node for node in self.nodes if not node.empty]

    def node(self, node_id: int) -> NodeSpec:
        return self.nodes[node_id]

    def with_addresses(
        self,
        addresses: Sequence[str],
        replicas: Sequence[Sequence[str]] | None = None,
    ) -> "ClusterTopology":
        """A copy of this topology bound to concrete addresses."""
        if len(addresses) != len(self.nodes):
            raise ValueError(
                f"{len(addresses)} addresses for {len(self.nodes)} nodes"
            )
        bound = tuple(
            node.with_address(
                address, replicas[rank] if replicas is not None else ()
            )
            for rank, (node, address) in enumerate(zip(self.nodes, addresses))
        )
        return replace(self, nodes=bound)

    # -- manifest --------------------------------------------------------
    def to_manifest(self) -> dict:
        return {
            "magic": "repro-cluster",
            "total_records": self.total_records,
            "version": self.version,
            "source": self.source,
            "nodes": [
                {
                    "node_id": node.node_id,
                    "start": node.start,
                    "stop": node.stop,
                    "address": node.address,
                    "replicas": list(node.replicas),
                    "index_path": node.index_path,
                }
                for node in self.nodes
            ],
        }

    def save(self, path: str | Path) -> None:
        atomic_write(path, json.dumps(self.to_manifest(), indent=2) + "\n")

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ClusterTopology":
        if manifest.get("magic") != "repro-cluster":
            raise ValueError("not a repro-cluster manifest")
        nodes = tuple(
            NodeSpec(
                node_id=int(node["node_id"]),
                start=int(node["start"]),
                stop=int(node["stop"]),
                address=str(node.get("address", "")),
                replicas=tuple(node.get("replicas", ())),
                index_path=str(node.get("index_path", "")),
            )
            for node in manifest["nodes"]
        )
        return cls(
            nodes=nodes,
            total_records=int(manifest["total_records"]),
            version=str(manifest.get("version", "")),
            source=str(manifest.get("source", "")),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ClusterTopology":
        try:
            manifest = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: not a readable cluster manifest ({exc})") from exc
        return cls.from_manifest(manifest)

    @classmethod
    def from_record_counts(
        cls,
        counts: Sequence[int],
        addresses: Sequence[str],
        version: str = "",
        source: str = "",
    ) -> "ClusterTopology":
        """Topology from per-node record counts, in node order.

        This is the address-list deployment path: probe each running
        node for its record count, then declare the spans contiguous
        in the given order.  Correct ranking then *requires* the nodes
        to actually hold contiguous partitions in that order — which
        is exactly what :func:`partition_index` produces.
        """
        if len(counts) != len(addresses):
            raise ValueError(f"{len(counts)} counts for {len(addresses)} addresses")
        nodes = []
        start = 0
        for rank, (count, address) in enumerate(zip(counts, addresses)):
            if count < 0:
                raise ValueError(f"node {rank} has negative record count {count}")
            nodes.append(
                NodeSpec(node_id=rank, start=start, stop=start + count, address=address)
            )
            start += count
        return cls(
            nodes=tuple(nodes), total_records=start, version=version, source=source
        )


def partition_index(
    index: DatabaseIndex,
    nodes: int,
    shard_bp: int = DEFAULT_SHARD_BP,
) -> tuple[ClusterTopology, list[DatabaseIndex]]:
    """Split ``index`` into ``nodes`` contiguous sub-indexes.

    Record order is preserved end to end: node ``k`` gets the
    ``even_spans(record_count, nodes)[k]`` slice of the global record
    sequence, re-sharded locally at ``shard_bp``.  With more nodes
    than records the trailing nodes get **empty** sub-indexes (zero
    records, zero shards of payload) — they serve, answer instantly,
    and report full coverage over nothing.

    Returns the (unbound) topology and one sub-index per node.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    total = index.record_count
    spans = even_spans(total, nodes)
    records = [
        (name, decode(codes)) for _gidx, name, codes in index.iter_records()
    ]
    specs: list[NodeSpec] = []
    parts: list[DatabaseIndex] = []
    for rank, (lo, hi) in enumerate(spans):
        part = DatabaseIndex.build(
            records[lo:hi],
            shard_bp=shard_bp,
            source=f"{index.source}#node{rank}[{lo}:{hi}]",
        )
        specs.append(NodeSpec(node_id=rank, start=lo, stop=hi))
        parts.append(part)
    topology = ClusterTopology(
        nodes=tuple(specs),
        total_records=total,
        version=index.version,
        source=index.source,
    )
    return topology, parts


def write_partition(
    index: DatabaseIndex,
    nodes: int,
    outdir: str | Path,
    shard_bp: int = DEFAULT_SHARD_BP,
) -> ClusterTopology:
    """Partition ``index`` and save each node's part as ``outdir/node-N.npz``.

    Returns the (unbound) topology with every non-empty node's
    ``index_path`` set to its file; empty spans get no file.  This is
    how every on-disk cluster is laid out: ``repro cluster partition``
    and :class:`~repro.service.cluster.local.LocalCluster` process mode.
    """
    topology, parts = partition_index(index, nodes, shard_bp=shard_bp)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    specs = []
    for spec, part in zip(topology.nodes, parts):
        if not spec.empty:
            index_path = outdir / f"node-{spec.node_id}.npz"
            part.save(index_path)
            spec = replace(spec, index_path=str(index_path))
        specs.append(spec)
    return replace(topology, nodes=tuple(specs))
