"""Spawn-local clusters: a whole topology on one machine, one call.

Two modes, one surface:

* ``mode="thread"`` — every node is a
  :class:`~repro.service.net.ServerThread` (an in-process asyncio TCP
  server on a background loop) over its own sub-index.  Cheap, fast to
  start, ideal for tests and the chaos harness; replicas share the
  node's engine, which is exactly what a replica *is* semantically (a
  second serving path over the same data).
* ``mode="process"`` — every node is a real ``repro serve --tcp``
  subprocess over its sub-index saved to disk.  This is the honest
  scale-out configuration the CL1 benchmark measures: separate
  interpreters, separate GILs, separate memory — the software stand-in
  for the paper's physically separate FPGAs.

Either way, :meth:`LocalCluster.topology` hands back a bound
:class:`~repro.service.cluster.topology.ClusterTopology` and
:meth:`LocalCluster.client` a ready
:class:`~repro.service.cluster.coordinator.ClusterCoordinator`.
:meth:`kill_node` exists for the chaos schedules: it stops one node's
primary server (replicas keep serving) so coverage-degradation
invariants can be asserted against a real dead node.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tempfile
import time
from typing import Sequence

from ...obs import NULL_OBS, Observability
from .. import QueryOptions
from ..engine import SearchEngine
from ..index import DEFAULT_SHARD_BP, DatabaseIndex
from ..net import ServerConfig, ServerThread
from .coordinator import ClusterCoordinator
from .topology import ClusterTopology, partition_index, write_partition

__all__ = ["LocalCluster"]


class _ThreadNode:
    """One thread-mode node: primary ServerThread + replica ServerThreads."""

    def __init__(
        self,
        index: DatabaseIndex,
        replicas: int,
        workers: int,
        defaults: QueryOptions | None,
        obs: Observability,
        batch_window: float,
    ) -> None:
        # Each node owns its obs bundle (its own registry and tracer),
        # exactly like a separate process would: the coordinator's
        # aggregator scrapes them over the wire and its trace verb
        # fetches adopted subtrees back per node.
        self.obs = obs
        self.engine = SearchEngine(index, workers=workers, obs=obs)
        self._config = ServerConfig(host="127.0.0.1", port=0, batch_window=batch_window)
        self._defaults = defaults
        self.primary: ServerThread | None = ServerThread(
            self.engine, config=self._config, defaults=defaults, obs=obs
        )
        self.primary.start()
        # Replicas share the engine: same data, independent serving path.
        self.replica_servers = []
        for _ in range(replicas):
            replica = ServerThread(
                self.engine, config=self._config, defaults=defaults, obs=obs
            )
            replica.start()
            self.replica_servers.append(replica)

    @property
    def address(self) -> str:
        if self.primary is None:
            return ""
        return f"{self.primary.host}:{self.primary.port}"

    @property
    def replica_addresses(self) -> list[str]:
        return [f"{r.host}:{r.port}" for r in self.replica_servers]

    @property
    def alive(self) -> bool:
        return self.primary is not None

    def kill(self) -> None:
        if self.primary is not None:
            self.primary.stop()
            self.primary = None

    def respawn(self) -> str:
        """Bring a killed primary back (fresh server, same engine)."""
        if self.primary is None:
            self.primary = ServerThread(
                self.engine, config=self._config, defaults=self._defaults, obs=self.obs
            )
            self.primary.start()
        return self.address

    def stop(self) -> None:
        self.kill()
        for replica in self.replica_servers:
            replica.stop()
        self.replica_servers = []


class _ProcessNode:
    """One process-mode node: a ``repro serve --tcp`` subprocess."""

    def __init__(
        self,
        index_path: str,
        workers: int,
        batch_window: float,
        startup_timeout: float,
    ) -> None:
        self._index_path = index_path
        self._workers = workers
        self._batch_window = batch_window
        self._startup_timeout = startup_timeout
        self.proc: subprocess.Popen | None = None
        self.address = self._spawn()

    def _spawn(self) -> str:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(self._index_path),
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                str(self._workers),
                "--batch-window",
                str(self._batch_window),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.address = self._await_listening(self._startup_timeout)
        return self.address

    def _await_listening(self, timeout: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"node process exited before listening (rc={self.proc.poll()})"
                )
            if line.startswith("listening on "):
                return line.removeprefix("listening on ").strip()
        raise RuntimeError(f"node did not announce its port within {timeout}s")

    @property
    def replica_addresses(self) -> list[str]:
        return []

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=10)
            self.proc = None

    def respawn(self) -> str:
        """Replace a dead subprocess with a fresh one (new port).

        A process that died on its own (crash, OOM kill) is reaped
        first; a live one is left alone and its address returned.
        """
        if self.proc is not None:
            if self.proc.poll() is None:
                return self.address
            self.proc.wait(timeout=10)
            self.proc = None
        return self._spawn()

    def stop(self, graceful: bool = True) -> None:
        if self.proc is None:
            return
        if graceful and self.proc.poll() is None:
            self.proc.terminate()  # SIGTERM → `repro serve` drains
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                self.proc.kill()
                self.proc.wait(timeout=10)
        else:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc = None


class LocalCluster:
    """Partition an index and serve it as N local shard nodes.

    Parameters
    ----------
    index:
        The database to partition (the *source of truth*; each node
        serves a contiguous slice of it).
    nodes:
        Shard-node count.  More nodes than records is legal: trailing
        nodes own empty spans and are simply never spawned or queried.
    replicas:
        Replica servers per node (thread mode only) — extra serving
        paths over the same node engine, which the coordinator fails
        over to when a node's primary is down.
    mode:
        ``"thread"`` (in-process, default) or ``"process"`` (one
        ``repro serve`` subprocess per node).
    workers:
        Sweep workers per node engine.
    batch_window:
        Per-node server micro-batching window in seconds.
    """

    def __init__(
        self,
        index: DatabaseIndex,
        nodes: int = 2,
        replicas: int = 0,
        mode: str = "thread",
        workers: int = 1,
        shard_bp: int = DEFAULT_SHARD_BP,
        defaults: QueryOptions | None = None,
        obs: Observability | None = None,
        batch_window: float = 0.002,
        startup_timeout: float = 60.0,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if mode == "process" and replicas:
            raise ValueError("replicas are only supported in thread mode")
        self.mode = mode
        self.obs = obs if obs is not None else NULL_OBS
        self._nodes: dict[int, _ThreadNode | _ProcessNode] = {}
        #: Per-node obs bundles (thread mode with live cluster obs only):
        #: each thread node gets its *own* registry and tracer, like a
        #: separate process would, so fleet aggregation and cross-node
        #: trace stitching exercise the same merge paths either way.
        self.node_obs: dict[int, Observability] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        addresses: list[str] = []
        replica_lists: list[Sequence[str]] = []
        try:
            if mode == "process":
                self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
                unbound = write_partition(
                    index, nodes, self._tmpdir.name, shard_bp=shard_bp
                )
                parts = [None] * len(unbound)
            else:
                unbound, parts = partition_index(index, nodes, shard_bp=shard_bp)
            for spec, part in zip(unbound.nodes, parts):
                if spec.empty:
                    addresses.append("")
                    replica_lists.append(())
                    continue
                if mode == "thread":
                    node_obs = (
                        Observability.create() if self.obs.enabled else NULL_OBS
                    )
                    if node_obs.enabled:
                        self.node_obs[spec.node_id] = node_obs
                    node: _ThreadNode | _ProcessNode = _ThreadNode(
                        part,
                        replicas=replicas,
                        workers=workers,
                        defaults=defaults,
                        obs=node_obs,
                        batch_window=batch_window,
                    )
                else:
                    node = _ProcessNode(
                        spec.index_path,
                        workers=workers,
                        batch_window=batch_window,
                        startup_timeout=startup_timeout,
                    )
                self._nodes[spec.node_id] = node
                addresses.append(node.address)
                replica_lists.append(node.replica_addresses)
        except BaseException:
            self.stop()
            raise
        self._topology = unbound.with_addresses(addresses, replica_lists)

    # ------------------------------------------------------------------
    def topology(self) -> ClusterTopology:
        return self._topology

    @property
    def addresses(self) -> list[str]:
        return [address for address in self._topology.addresses if address]

    def client(self, **coordinator_kwargs) -> ClusterCoordinator:
        coordinator_kwargs.setdefault("obs", self.obs)
        return ClusterCoordinator(self._topology, **coordinator_kwargs)

    def kill_node(self, node_id: int) -> None:
        """Stop one node's primary server (chaos: a dead shard node).

        Thread-mode replicas keep serving, so a killed primary with
        replicas costs availability nothing — which is the point of
        replicas.  Idempotent: killing a node twice, or after
        :meth:`stop`, is a no-op — chaos schedules and supervisors race
        against each other and must never die on a double kill.
        """
        node = self._nodes.get(node_id)
        if node is None:
            return
        node.kill()

    def node_alive(self, node_id: int) -> bool:
        """Whether this node's primary is currently serving."""
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def dead_nodes(self) -> list[int]:
        """Node ids whose primary is dead (killed, crashed, or exited)."""
        return [
            node_id for node_id, node in self._nodes.items() if not node.alive
        ]

    def respawn_node(self, node_id: int) -> str:
        """Bring a dead node back; returns its (usually new) address.

        Thread mode restarts a fresh :class:`ServerThread` over the
        node's engine; process mode spawns a fresh ``repro serve``
        subprocess over the node's on-disk sub-index.  Either way the
        node returns on a *new* port, so the bound topology is updated
        and callers holding channels must reattach (the
        :class:`~repro.service.cluster.supervisor.ClusterSupervisor`
        does both).  A node that is already alive is left untouched.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"no node {node_id} (empty span or stopped cluster)")
        address = node.respawn()
        self._topology = dataclasses.replace(
            self._topology,
            nodes=tuple(
                dataclasses.replace(spec, address=address)
                if spec.node_id == node_id
                else spec
                for spec in self._topology.nodes
            ),
        )
        return address

    def stop(self) -> None:
        """Stop every node (process mode drains gracefully) and clean up.

        Idempotent: a second stop (or a stop after kills) is a no-op.
        """
        for node in self._nodes.values():
            node.stop()
        self._nodes = {}
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
