"""Observability: metrics, tracing, and structured logging.

The paper's controller is observable by construction — the host reads
the best score and its coordinates back from registers and reduces
them into the global answer; the whole 246.9x evaluation is built on
measured CUPS.  This package is the service-stack equivalent of those
readback registers, dependency-free and cheap enough to leave on:

* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms (p50/p90/p99), exposed as
  Prometheus text or a JSON snapshot, with a shared no-op
  :data:`NULL_REGISTRY` as the library default;
* :mod:`~repro.obs.trace` — a :class:`Tracer` building per-request
  span trees (``engine.search`` → ``cache.lookup`` → ``pool.sweep`` →
  per-shard ``shard.sweep``) with retry/quarantine/fallback events,
  kept in a bounded ring of recent traces;
* :mod:`~repro.obs.log` — structured logging (``key=value`` or JSON
  lines) over the stdlib machinery, quiet until
  :func:`configure_logging` installs a handler;
* :mod:`~repro.obs.distributed` — the cluster tier: a
  :class:`MetricsAggregator` merging every node's scrape into one
  fleet view (``node=`` labels, merged-histogram global quantiles),
  an :class:`SloTracker` with multi-window burn rates, and trace
  stitching that grafts per-node span trees under the coordinator's
  fan-out span.

:class:`Observability` bundles the three so instrumented components
take one optional argument; :data:`NULL_OBS` is the all-off default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distributed import (
    DEFAULT_OBJECTIVES,
    Exposition,
    FleetView,
    MetricsAggregator,
    NodeScrape,
    Sample,
    ServiceObjective,
    SloStatus,
    SloTracker,
    parse_prometheus,
    stitch_trace,
    synthesize_trace,
    validate_exposition,
)
from .log import LOG_LEVELS, StructLogger, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    PeriodicDumper,
    escape_label_value,
)
from .trace import NULL_TRACER, NullTracer, Span, SpanEvent, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_OBJECTIVES",
    "LOG_LEVELS",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Counter",
    "Exposition",
    "FleetView",
    "Gauge",
    "Histogram",
    "MetricsAggregator",
    "MetricsRegistry",
    "NodeScrape",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "PeriodicDumper",
    "Sample",
    "ServiceObjective",
    "SloStatus",
    "SloTracker",
    "Span",
    "SpanEvent",
    "StructLogger",
    "Tracer",
    "configure_logging",
    "escape_label_value",
    "get_logger",
    "parse_prometheus",
    "stitch_trace",
    "synthesize_trace",
    "validate_exposition",
]


@dataclass(frozen=True)
class Observability:
    """The bundle instrumented components accept as one argument."""

    registry: MetricsRegistry = NULL_REGISTRY
    tracer: Tracer = NULL_TRACER
    log: StructLogger = field(default_factory=get_logger)

    @classmethod
    def create(cls, trace_capacity: int = 64) -> "Observability":
        """A live bundle: real registry, real tracer, repro logger."""
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(capacity=trace_capacity),
            log=get_logger(),
        )

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled


#: The all-off default: no-op registry and tracer, quiet logger.
NULL_OBS = Observability()
