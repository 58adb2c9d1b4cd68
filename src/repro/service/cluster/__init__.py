"""Distributed search: a coordinator tier over shard nodes.

The paper partitions one comparison across processing elements so that
each works in reduced memory space; PRs 1-5 scaled that to a hardened
single-node service.  This package is the next level of the same
recursion — partition the *database* across N
:class:`~repro.service.net.TcpSearchServer` shard nodes and
scatter-gather every query over protocol v2:

* :mod:`~repro.service.cluster.topology` — :class:`NodeSpec` /
  :class:`ClusterTopology` (contiguous ``even_spans`` record spans,
  JSON manifest round-trip), :func:`partition_index` and
  :func:`write_partition` (the parts saved as ``node-N.npz`` files);
* :mod:`~repro.service.cluster.merge` — the globally consistent
  top-k merge, provably bit-identical to the single-node ranking;
* :mod:`~repro.service.cluster.coordinator` —
  :class:`ClusterCoordinator`, the cluster's one client: threaded
  fan-out with group-min deadline propagation, one circuit breaker
  per node as its one health verdict (a leg or probe any serving path
  answered is a success), failover to replicas, coverage-degrading
  partial gathers;
  built from a bound topology, a manifest
  (``ClusterCoordinator(ClusterTopology.load(path))``) or bare node
  addresses (:meth:`ClusterCoordinator.from_addresses`); also the
  cluster's observability root — it opens the root span each query,
  propagates trace context on the wire, stitches per-node subtrees
  back together (:meth:`ClusterCoordinator.trace`), and aggregates
  fleet metrics (:attr:`ClusterCoordinator.aggregator`, built on
  :class:`repro.obs.MetricsAggregator` / :class:`repro.obs.SloTracker`);
* :mod:`~repro.service.cluster.local` — :class:`LocalCluster`,
  spawn-local topologies (threads for dev/chaos, ``repro serve``
  subprocesses for honest scale-out measurement);
* :mod:`~repro.service.cluster.healthd` — :class:`HealthMonitor`,
  the jittered heartbeat loop that feeds each node's breaker, so
  fan-outs skip a dead node *before* scatter even while no traffic
  flows, and a good probe half-opens it for readmission;
* :mod:`~repro.service.cluster.supervisor` —
  :class:`ClusterSupervisor`, the watchdog that respawns dead nodes
  under capped-exponential backoff and reattaches their channels —
  the software form of reconfiguring the array around a failed
  element between queries.
"""

from .coordinator import ClusterCoordinator, NodeChannel
from .healthd import HealthMonitor
from .local import LocalCluster
from .merge import NodeAnswer, merge_node_responses
from .supervisor import ClusterSupervisor
from .topology import ClusterTopology, NodeSpec, partition_index, write_partition

__all__ = [
    "ClusterCoordinator",
    "ClusterSupervisor",
    "ClusterTopology",
    "HealthMonitor",
    "LocalCluster",
    "NodeAnswer",
    "NodeChannel",
    "NodeSpec",
    "merge_node_responses",
    "partition_index",
    "write_partition",
]
