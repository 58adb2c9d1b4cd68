"""Heartbeat failure detection: the probes that feed each node's breaker.

A coordinator without a heartbeat only learns a node is dead by
burning a slice of a live query's deadline on it; the paper's
reconfigurable array does better — a bad processing element is
detected by the fabric and routed around *before* the next wave
starts.  :class:`HealthMonitor` is that detector for the serving tier:
a background loop probes every
:class:`~repro.service.cluster.coordinator.NodeChannel` on a jittered
interval and feeds each outcome into the channel's
:class:`~repro.service.guard.CircuitBreaker`, the node's one health
verdict (:meth:`CircuitBreaker.record_probe`):

* a failed probe is a failure — ``failure_threshold`` of them in a
  row open the breaker while no traffic flows, so fan-outs skip the
  node before scatter;
* a good probe half-opens an open breaker — the node has answered, so
  its next leg is the trial that closes or re-opens it — and leaves a
  closed breaker's failure streak alone, so a node that answers pings
  but fails its searches still trips.

The monitor keeps no per-node state of its own.  Probes use
:meth:`NodeChannel.ping`, which tries the node's serving paths in
failover order and never raises, so a node with a live replica stays
up.  The heartbeat interval is jittered by a seeded RNG so a fleet of
monitors does not synchronize its probe bursts against the same node;
probes are counted in ``healthd_probes_total``.  After each probe the
``healthd_node_up_<id>`` gauge reads the verdict the breaker now holds
(1 unless it is open), so a node that died while no traffic flowed
shows as down without waiting for a fan-out to find it.

The loop is a daemon thread (:meth:`start` / :meth:`stop`), but every
piece of logic lives in :meth:`tick` so tests drive the monitor
synchronously with fake channels — determinism first, exactly like
the chaos harness.
"""

from __future__ import annotations

import random
import threading
from typing import Mapping

from ...obs import NULL_OBS, Observability
from ..guard import CircuitBreaker

__all__ = ["HealthMonitor"]


class HealthMonitor:
    """Jittered heartbeat loop over a coordinator's node channels.

    Parameters
    ----------
    channels:
        ``node_id -> channel`` mapping; each channel needs a
        non-raising ``ping() -> bool`` and a ``breaker`` to feed.  The
        coordinator passes its live ``channels`` dict, so a reattached
        channel (new address after a respawn) is probed without
        re-registration.
    interval:
        Nominal seconds between heartbeats.
    jitter:
        Fraction of ``interval`` the seeded RNG may add or subtract
        per beat (``0.2`` → each beat lands within ±20%).
    seed:
        Jitter seed, for deterministic tests.
    """

    def __init__(
        self,
        channels: Mapping[int, object],
        interval: float = 0.5,
        jitter: float = 0.2,
        seed: int = 0,
        obs: Observability | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be within [0, 1), got {jitter}")
        unguarded = sorted(
            node_id
            for node_id, channel in channels.items()
            if getattr(channel, "breaker", None) is None
        )
        if unguarded:
            raise ValueError(
                f"nodes {unguarded} have no breaker for the heartbeat to feed"
            )
        self.channels = channels
        self.interval = interval
        self.jitter = jitter
        self._rng = random.Random(f"healthd:{seed}")
        self.obs = obs if obs is not None else NULL_OBS
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.ticks = 0
        self._m_probes = self.obs.registry.counter(
            "healthd_probes_total", "Heartbeat probes issued"
        )

    def tick(self) -> dict[int, str]:
        """Probe every channel once and feed its breaker; return the states.

        This is the whole monitor — the background thread just calls
        it on a jittered cadence.
        """
        states = {}
        for node_id, channel in list(self.channels.items()):
            channel.breaker.record_probe(bool(channel.ping()))
            self._m_probes.inc()
            states[node_id] = state = channel.breaker.state
            self.obs.registry.gauge(
                f"healthd_node_up_{node_id}",
                "1 unless the node's breaker is open, as of the last heartbeat",
            ).set(0.0 if state == CircuitBreaker.OPEN else 1.0)
        self.ticks += 1
        return states

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def _next_beat(self) -> float:
        """The next sleep: ``interval`` jittered by the seeded RNG."""
        if self.jitter == 0.0:
            return self.interval
        return self.interval * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))

    def start(self) -> "HealthMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self._next_beat()):
                try:
                    self.tick()
                except Exception as exc:  # noqa: BLE001 - the monitor must survive
                    self.obs.log.error("healthd.tick-failed", error=str(exc))

        self._thread = threading.Thread(
            target=_loop, name="repro-healthd", daemon=True
        )
        self._thread.start()
        self.obs.log.info(
            "healthd.started", nodes=len(self.channels), interval=self.interval
        )
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
        return {
            "running": self.running,
            "interval": self.interval,
            "ticks": self.ticks,
        }

    def __enter__(self) -> "HealthMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
