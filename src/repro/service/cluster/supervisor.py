"""Automatic node recovery: the serving tier's watchdog.

``LocalCluster.kill_node`` used to be a one-way door — a dead
process-mode node stayed dead until an operator restarted it, which
is exactly the posture the paper's platform rejects: an FPGA array
with a failed element is *reconfigured around it and reloaded*, not
left half-dark until a technician walks over.  The
:class:`ClusterSupervisor` closes that loop in software:

* it polls the cluster for dead nodes (a node killed by chaos, or a
  subprocess that crashed on its own);
* each dead node is respawned with **capped-exponential backoff**
  driven by :class:`~repro.service.resilience.RetryPolicy` — the same
  deterministic-jitter schedule the shard pool retries with, so a
  node that refuses to come back does not get hammered in a tight
  loop, and two runs with the same seed back off identically;
* a successful respawn almost always lands on a **new port**, so the
  supervisor immediately *reattaches* every registered coordinator's
  channel to the new address; the node keeps its breaker's probation,
  and the next good heartbeat probe or half-open trial returns it to
  full fan-out coverage without operator action;
* a node that exhausts ``policy.retries`` consecutive failed respawns
  is abandoned (logged, counted) until :meth:`revive` clears it —
  crash-looping hardware needs a human, and a supervisor that
  respawns forever just turns one failure into a CPU fire.

Like the health monitor, the supervisor's whole behaviour lives in
:meth:`check_once`, with :meth:`start`/:meth:`stop` wrapping it in a
background thread; tests drive it synchronously with injected clocks.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from ...obs import NULL_OBS, Observability
from ..resilience import RetryPolicy

__all__ = ["ClusterSupervisor"]


class ClusterSupervisor:
    """Respawn dead cluster nodes; reattach coordinator channels.

    Parameters
    ----------
    cluster:
        A :class:`~repro.service.cluster.local.LocalCluster` (or
        anything exposing ``dead_nodes()`` and
        ``respawn_node(node_id) -> address``).
    coordinators:
        Coordinators whose channels must be re-pointed at the
        respawned node's new address
        (:meth:`ClusterCoordinator.reattach_node`).
    policy:
        Backoff schedule between consecutive failed respawn attempts
        for one node; ``policy.retries`` is the give-up threshold.
    poll_interval:
        Seconds between dead-node sweeps when running in the
        background.
    clock:
        Injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        cluster,
        coordinators: Sequence[object] = (),
        policy: RetryPolicy | None = None,
        poll_interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        obs: Observability | None = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.cluster = cluster
        self.coordinators = list(coordinators)
        self.policy = (
            policy
            if policy is not None
            else RetryPolicy(retries=8, base_delay=0.1, max_delay=5.0)
        )
        self.poll_interval = poll_interval
        self._clock = clock
        self.obs = obs if obs is not None else NULL_OBS
        self._lock = threading.Lock()
        self._failures: dict[int, int] = {}  # node -> consecutive failed respawns
        self._next_try: dict[int, float] = {}  # node -> earliest next attempt
        self._abandoned: set[int] = set()
        self.respawns = 0
        self.respawn_failures = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        registry = self.obs.registry
        self._m_respawns = registry.counter(
            "supervisor_respawns_total", "Dead nodes respawned by the supervisor"
        )
        self._m_failures = registry.counter(
            "supervisor_respawn_failures_total", "Respawn attempts that failed"
        )
        self._g_abandoned = registry.gauge(
            "supervisor_abandoned_nodes", "Nodes abandoned after exhausting retries"
        )

    # ------------------------------------------------------------------
    def register(self, coordinator) -> None:
        """Add a coordinator whose channels follow future respawns."""
        with self._lock:
            self.coordinators.append(coordinator)

    @property
    def abandoned(self) -> set[int]:
        with self._lock:
            return set(self._abandoned)

    def revive(self, node_id: int) -> None:
        """Clear a node's abandoned state so the next sweep tries again."""
        with self._lock:
            self._abandoned.discard(node_id)
            self._failures.pop(node_id, None)
            self._next_try.pop(node_id, None)
            self._g_abandoned.set(len(self._abandoned))

    # ------------------------------------------------------------------
    def check_once(self) -> list[int]:
        """One sweep: respawn every eligible dead node; returns node ids.

        Backoff is per node: a failed attempt schedules the next one
        ``policy.delay(attempt, token=node_id)`` seconds out, so one
        crash-looping node never delays the healthy path for others.
        """
        respawned: list[int] = []
        now = self._clock()
        for node_id in self.cluster.dead_nodes():
            with self._lock:
                if node_id in self._abandoned:
                    continue
                if now < self._next_try.get(node_id, 0.0):
                    continue
                attempt = self._failures.get(node_id, 0)
            try:
                address = self.cluster.respawn_node(node_id)
            except Exception as exc:  # noqa: BLE001 - counted, backed off, retried
                self.respawn_failures += 1
                self._m_failures.inc()
                with self._lock:
                    self._failures[node_id] = attempt + 1
                    if attempt + 1 > self.policy.retries:
                        self._abandoned.add(node_id)
                        self._g_abandoned.set(len(self._abandoned))
                        self.obs.log.error(
                            "supervisor.abandoned",
                            node=node_id,
                            attempts=attempt + 1,
                            error=str(exc),
                        )
                        continue
                    delay = self.policy.delay(attempt, token=node_id)
                    self._next_try[node_id] = self._clock() + delay
                self.obs.log.warning(
                    "supervisor.respawn-failed",
                    node=node_id,
                    attempt=attempt + 1,
                    error=str(exc),
                )
                continue
            with self._lock:
                self._failures.pop(node_id, None)
                self._next_try.pop(node_id, None)
                coordinators = list(self.coordinators)
            for coordinator in coordinators:
                try:
                    coordinator.reattach_node(node_id, address)
                except KeyError:
                    pass  # coordinator never had a channel for this node
            self.respawns += 1
            self._m_respawns.inc()
            self.obs.log.info(
                "supervisor.respawned", node=node_id, address=address
            )
            respawned.append(node_id)
        return respawned

    # ------------------------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        if self._thread is not None:
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.poll_interval):
                try:
                    self.check_once()
                except Exception as exc:  # noqa: BLE001 - watchdog must survive
                    self.obs.log.error("supervisor.sweep-failed", error=str(exc))

        self._thread = threading.Thread(
            target=_loop, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        self.obs.log.info("supervisor.started", poll_interval=self.poll_interval)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "running": self.running,
                "respawns": self.respawns,
                "respawn_failures": self.respawn_failures,
                "abandoned": sorted(self._abandoned),
                "backing_off": sorted(self._next_try),
            }

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
