"""Cluster-wide observability: fleet scrape merging, SLOs, trace stitching.

The paper's multi-FPGA story splits the database across boards and has
the *host* read back each board's status registers — best score, done
flag — and stitch them into one answer.  This module is that readback
path for the software cluster:

* :func:`parse_prometheus` / :func:`validate_exposition` — a strict,
  dependency-free parser for the Prometheus text format, used both to
  merge node scrapes and as a promtool-style CI check;
* :class:`MetricsAggregator` — scrapes every node's registry over the
  existing ``metrics`` verb and merges the results into one
  :class:`FleetView` with ``node=`` labels, fleet rollups (total
  sustained CUPS, inflight, coverage) and **merged-histogram** global
  quantiles: per-node bucket counts over identical bounds sum into one
  histogram whose interpolated p99 is exactly what one registry fed
  all the samples would report;
* :class:`SloTracker` — declarative service objectives (availability,
  p99 latency, coverage) evaluated over sliding windows with
  multi-window burn rates (fast 5 m / slow 1 h by default), surfaced
  as gauges and structured log events on threshold crossings;
* :func:`stitch_trace` / :func:`synthesize_trace` — graft per-node
  span trees (fetched by the coordinator's trace id) under the
  coordinator's fan-out span, yielding one cross-node trace.

A fleet's ``--metrics-file`` is :class:`~repro.obs.metrics.PeriodicDumper`
over a fresh :meth:`MetricsAggregator.scrape` per write.

Everything here is pure python over the wire surfaces that already
exist (``metrics`` and ``trace`` verbs); nodes need no new endpoint to
participate.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .log import StructLogger, get_logger
from .metrics import (
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    escape_label_value,
)
from .trace import Span

__all__ = [
    "DEFAULT_OBJECTIVES",
    "Exposition",
    "FleetView",
    "MetricsAggregator",
    "NodeScrape",
    "Sample",
    "ServiceObjective",
    "SloStatus",
    "SloTracker",
    "parse_prometheus",
    "stitch_trace",
    "synthesize_trace",
    "validate_exposition",
]


# ----------------------------------------------------------------------
# Exposition parsing (promtool-style, pure python)
# ----------------------------------------------------------------------

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


@dataclass(frozen=True)
class Sample:
    """One sample line: ``name{labels} value``."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    @property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    def with_label(self, key: str, value: str) -> "Sample":
        """A copy with ``key=value`` added (existing key is replaced)."""
        labels = tuple((k, v) for k, v in self.labels if k != key)
        return Sample(self.name, labels + ((key, value),), self.value)

    def render(self) -> str:
        if not self.labels:
            return f"{self.name} {self.value:g}"
        inner = ",".join(
            f'{k}="{escape_label_value(v)}"' for k, v in self.labels
        )
        return f"{self.name}{{{inner}}} {self.value:g}"


@dataclass
class Exposition:
    """A parsed exposition: samples plus family metadata."""

    samples: list[Sample] = field(default_factory=list)
    types: dict[str, str] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)

    def family(self, sample_name: str) -> str:
        """The metric family a sample belongs to (strips histogram suffixes)."""
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and self.types.get(base) == "histogram":
                return base
        return sample_name


def _is_valid_name(name: str) -> bool:
    if not name:
        return False
    head, rest = name[0], name[1:]
    if not (head.isalpha() or head in "_:"):
        return False
    return all(c.isalnum() or c in "_:" for c in rest)


def _parse_labels(text: str, lineno: int) -> tuple[tuple[str, str], ...]:
    """Parse the ``k="v",...`` body between braces (values may be escaped)."""
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0:
            raise ValueError(f"line {lineno}: malformed label pair in {text!r}")
        key = text[i:eq].strip()
        if not _is_valid_name(key):
            raise ValueError(f"line {lineno}: invalid label name {key!r}")
        if eq + 1 >= len(text) or text[eq + 1] != '"':
            raise ValueError(f"line {lineno}: label value for {key!r} must be quoted")
        value_chars: list[str] = []
        j = eq + 2
        while j < len(text):
            c = text[j]
            if c == "\\":
                if j + 1 >= len(text):
                    raise ValueError(f"line {lineno}: dangling escape in label value")
                nxt = text[j + 1]
                value_chars.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
                j += 2
                continue
            if c == '"':
                break
            value_chars.append(c)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value for {key!r}")
        labels.append((key, "".join(value_chars)))
        i = j + 1
        if i < len(text):
            if text[i] != ",":
                raise ValueError(f"line {lineno}: expected ',' between labels")
            i += 1
    return tuple(labels)


def parse_prometheus(text: str) -> Exposition:
    """Parse Prometheus text exposition; raises ``ValueError`` when malformed.

    Understands ``# HELP`` / ``# TYPE`` comments and sample lines with
    optional labels.  Strict about what it accepts — this doubles as
    the CI format check — but permissive about *order* beyond the spec
    requirement that metadata precede first use.
    """
    exposition = Exposition()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise ValueError(f"line {lineno}: # {parts[1]} missing metric name")
                name = parts[2]
                if not _is_valid_name(name):
                    raise ValueError(f"line {lineno}: invalid metric name {name!r}")
                body = parts[3] if len(parts) > 3 else ""
                if parts[1] == "TYPE":
                    if body not in _VALID_TYPES:
                        raise ValueError(f"line {lineno}: unknown metric type {body!r}")
                    if name in exposition.types:
                        raise ValueError(f"line {lineno}: duplicate # TYPE for {name}")
                    exposition.types[name] = body
                else:
                    exposition.helps[name] = body
            continue  # other comments are legal and ignored
        if "{" in line:
            brace = line.index("{")
            name = line[:brace]
            close = line.rindex("}")
            if close < brace:
                raise ValueError(f"line {lineno}: unbalanced braces")
            labels = _parse_labels(line[brace + 1 : close], lineno)
            value_part = line[close + 1 :].strip()
        else:
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
            name, value_part = fields[0], " ".join(fields[1:])
            labels = ()
        if not _is_valid_name(name):
            raise ValueError(f"line {lineno}: invalid metric name {name!r}")
        value_fields = value_part.split()
        if len(value_fields) not in (1, 2):  # optional timestamp
            raise ValueError(f"line {lineno}: trailing garbage after value")
        try:
            value = float(value_fields[0])
        except ValueError:
            raise ValueError(
                f"line {lineno}: sample value {value_fields[0]!r} is not a number"
            ) from None
        exposition.samples.append(Sample(name, labels, value))
    return exposition


def validate_exposition(text: str) -> Exposition:
    """Parse *and* lint an exposition; raises ``ValueError`` on violations.

    Beyond syntax, checks the conventions the registry promises:
    counters end in ``_total``; every histogram family has cumulative,
    non-decreasing ``_bucket`` series ending in ``le="+Inf"`` whose
    value equals ``_count``.
    """
    exposition = parse_prometheus(text)
    by_name: dict[str, list[Sample]] = {}
    for sample in exposition.samples:
        by_name.setdefault(sample.name, []).append(sample)
    for name, kind in exposition.types.items():
        if kind == "counter" and not name.endswith("_total"):
            raise ValueError(f"counter {name} does not end in '_total'")
        if kind != "histogram":
            continue
        buckets = by_name.get(f"{name}_bucket", [])
        if not buckets:
            raise ValueError(f"histogram {name} has no _bucket samples")
        # Group by the label set minus ``le`` (one series per node, say).
        series: dict[tuple[tuple[str, str], ...], list[Sample]] = {}
        for sample in buckets:
            rest = tuple((k, v) for k, v in sample.labels if k != "le")
            series.setdefault(rest, []).append(sample)
        counts = {
            tuple((k, v) for k, v in s.labels): s.value
            for s in by_name.get(f"{name}_count", [])
        }
        for rest, group in series.items():
            les = [s.label_map.get("le") for s in group]
            if les[-1] != "+Inf":
                raise ValueError(f"histogram {name} series missing trailing +Inf bucket")
            numeric = [float(le) for le in les[:-1]]  # type: ignore[arg-type]
            if numeric != sorted(numeric):
                raise ValueError(f"histogram {name} bucket bounds are not ascending")
            values = [s.value for s in group]
            if any(b > a for a, b in zip(values[1:], values)):
                raise ValueError(f"histogram {name} bucket counts are not cumulative")
            if rest in counts and counts[rest] != values[-1]:
                raise ValueError(
                    f"histogram {name} _count disagrees with its +Inf bucket"
                )
    return exposition


# ----------------------------------------------------------------------
# Fleet metrics aggregation
# ----------------------------------------------------------------------


@dataclass
class NodeScrape:
    """One node's scrape: an exposition, or why it failed."""

    node: str
    exposition: Exposition | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.exposition is not None


class FleetView:
    """N node scrapes merged into one fleet-wide picture.

    Scalar samples are re-labeled with ``node=<id>``; histograms with
    identical bounds merge by summing per-bucket counts, which makes
    the fleet p99 *exactly* the quantile one registry would report had
    it observed every node's samples (same bounds, same interpolation).
    """

    def __init__(self, scrapes: Sequence[NodeScrape]) -> None:
        self.scrapes = list(scrapes)

    @property
    def ok_scrapes(self) -> list[NodeScrape]:
        return [s for s in self.scrapes if s.ok]

    @property
    def failed(self) -> list[NodeScrape]:
        return [s for s in self.scrapes if not s.ok]

    # ------------------------------------------------------------------
    def scalar(self, name: str, node: str) -> float | None:
        for scrape in self.ok_scrapes:
            if scrape.node != node:
                continue
            assert scrape.exposition is not None
            for sample in scrape.exposition.samples:
                if sample.name == name and not sample.labels:
                    return sample.value
        return None

    def sum_scalar(self, name: str) -> float:
        """Sum of an unlabeled sample across every answering node."""
        total = 0.0
        for scrape in self.ok_scrapes:
            value = self.scalar(name, scrape.node)
            if value is not None:
                total += value
        return total

    def histogram_families(self) -> list[str]:
        families: set[str] = set()
        for scrape in self.ok_scrapes:
            assert scrape.exposition is not None
            families.update(
                name
                for name, kind in scrape.exposition.types.items()
                if kind == "histogram"
            )
        return sorted(families)

    def merged_histogram(self, family: str) -> Histogram | None:
        """One histogram summing every node's buckets (identical bounds).

        Returns ``None`` when no node exposes the family; raises
        ``ValueError`` when nodes disagree on bucket bounds (merging
        those would silently corrupt quantiles).
        """
        bounds: tuple[float, ...] | None = None
        merged_counts: list[int] = []
        total_count = 0
        total_sum = 0.0
        seen = False
        for scrape in self.ok_scrapes:
            assert scrape.exposition is not None
            cumulative: dict[float, float] = {}
            inf_cumulative: float | None = None
            for sample in scrape.exposition.samples:
                if sample.name == f"{family}_bucket":
                    le = sample.label_map.get("le", "")
                    if le == "+Inf":
                        inf_cumulative = sample.value
                    else:
                        cumulative[float(le)] = sample.value
                elif sample.name == f"{family}_sum":
                    total_sum += sample.value
            if inf_cumulative is None and not cumulative:
                continue  # family absent on this node
            seen = True
            node_bounds = tuple(sorted(cumulative))
            if bounds is None:
                bounds = node_bounds
                merged_counts = [0] * (len(bounds) + 1)
            elif node_bounds != bounds:
                raise ValueError(
                    f"histogram {family}: bucket bounds differ across nodes"
                )
            previous = 0.0
            for i, bound in enumerate(bounds):
                merged_counts[i] += int(cumulative[bound] - previous)
                previous = cumulative[bound]
            if inf_cumulative is None:
                raise ValueError(f"histogram {family}: missing +Inf bucket")
            merged_counts[-1] += int(inf_cumulative - previous)
            total_count += int(inf_cumulative)
        if not seen or bounds is None:
            return None
        merged = Histogram(family, buckets=bounds)
        merged.counts = merged_counts
        merged.count = total_count
        merged.sum = total_sum
        return merged

    # ------------------------------------------------------------------
    def rollups(self) -> dict[str, float]:
        """Computed fleet-level gauges (the host's stitched registers)."""
        rollups: dict[str, float] = {
            "repro_fleet_nodes": float(len(self.ok_scrapes)),
            "repro_fleet_nodes_failed": float(len(self.failed)),
            "repro_fleet_sustained_cups": self.sum_scalar("repro_sustained_cups"),
            "repro_fleet_inflight": self.sum_scalar("repro_net_inflight"),
        }
        requests = self.sum_scalar("repro_cluster_requests_total")
        degraded = self.sum_scalar("repro_cluster_degraded_total")
        if requests > 0:
            rollups["repro_fleet_coverage_ratio"] = 1.0 - degraded / requests
        for family in self.histogram_families():
            merged = self.merged_histogram(family)
            if merged is None or merged.count == 0:
                continue
            suffix = family[len("repro_") :] if family.startswith("repro_") else family
            rollups[f"repro_fleet_{suffix}_p50"] = merged.p50
            rollups[f"repro_fleet_{suffix}_p99"] = merged.p99
        return rollups

    def render_prometheus(self) -> str:
        """One merged exposition: per-node samples + fleet rollups.

        Metadata (``# HELP`` / ``# TYPE``) is emitted once per family;
        every node sample gains a ``node=<id>`` label (escaped), so
        the output is a valid multi-target exposition a Prometheus
        server could ingest directly.
        """
        lines: list[str] = []
        emitted_meta: set[str] = set()
        families: dict[str, list[str]] = {}
        meta: dict[str, tuple[str | None, str | None]] = {}
        for scrape in self.ok_scrapes:
            assert scrape.exposition is not None
            expo = scrape.exposition
            for sample in expo.samples:
                family = expo.family(sample.name)
                if family not in meta:
                    meta[family] = (expo.helps.get(family), expo.types.get(family))
                families.setdefault(family, []).append(
                    sample.with_label("node", scrape.node).render()
                )
        for family in sorted(families):
            help_text, kind = meta[family]
            if family not in emitted_meta:
                if help_text:
                    lines.append(f"# HELP {family} {help_text}")
                if kind:
                    lines.append(f"# TYPE {family} {kind}")
                emitted_meta.add(family)
            lines.extend(families[family])
        for name, value in sorted(self.rollups().items()):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value:g}")
        for scrape in self.failed:
            lines.append(
                f'repro_fleet_scrape_ok{{node="{escape_label_value(scrape.node)}"}} 0'
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, object]:
        """JSON-serializable fleet snapshot (``repro cluster stats --json``)."""
        nodes: dict[str, object] = {}
        for scrape in self.scrapes:
            if not scrape.ok:
                nodes[scrape.node] = {"ok": False, "error": scrape.error}
                continue
            assert scrape.exposition is not None
            scalars = {
                s.name: s.value for s in scrape.exposition.samples if not s.labels
            }
            nodes[scrape.node] = {"ok": True, "scalars": scalars}
        histograms: dict[str, object] = {}
        for family in self.histogram_families():
            merged = self.merged_histogram(family)
            if merged is None:
                continue
            histograms[family] = {
                "count": merged.count,
                "sum": merged.sum,
                "p50": merged.p50,
                "p90": merged.p90,
                "p99": merged.p99,
            }
        return {
            "nodes": nodes,
            "fleet": self.rollups(),
            "histograms": histograms,
        }


class MetricsAggregator:
    """Scrapes every node's ``metrics`` verb and merges the expositions.

    ``sources`` maps a node label to a zero-argument callable returning
    Prometheus text — typically a bound ``SearchClient.metrics`` — so
    the aggregator works identically over live TCP nodes, in-process
    registries, and test doubles.  A failing source degrades to a
    ``NodeScrape`` with its error; the fleet view reports it instead
    of the aggregator raising mid-scrape.
    """

    def __init__(self, sources: Mapping[str, Callable[[], str]] | None = None) -> None:
        self._sources: dict[str, Callable[[], str]] = dict(sources or {})

    def add_source(self, label: str, fetch: Callable[[], str]) -> None:
        self._sources[str(label)] = fetch

    @classmethod
    def from_coordinator(cls, coordinator) -> "MetricsAggregator":
        """Sources = every channel's primary ``metrics`` verb + the
        coordinator's own registry (fan-out metrics, SLO gauges)."""
        aggregator = cls()
        for node_id in sorted(coordinator.channels):
            channel = coordinator.channels[node_id]
            # Bind the channel, not the client: a respawned node swaps
            # ``channel.primary`` and the scrape must follow it.
            aggregator.add_source(
                str(node_id), lambda ch=channel: ch.primary.metrics()
            )
        registry = coordinator.obs.registry
        if registry.enabled:
            aggregator.add_source("coordinator", registry.render_prometheus)
        return aggregator

    @classmethod
    def from_registries(
        cls, registries: Mapping[str, MetricsRegistry]
    ) -> "MetricsAggregator":
        aggregator = cls()
        for label, registry in registries.items():
            aggregator.add_source(label, registry.render_prometheus)
        return aggregator

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._sources))

    def scrape(self) -> FleetView:
        scrapes: list[NodeScrape] = []
        for label in sorted(self._sources):
            try:
                text = self._sources[label]()
                scrapes.append(NodeScrape(label, exposition=parse_prometheus(text)))
            except Exception as exc:
                scrapes.append(
                    NodeScrape(label, error=f"{type(exc).__name__}: {exc}")
                )
        return FleetView(scrapes)


# ----------------------------------------------------------------------
# SLO engine: declarative objectives, multi-window burn rates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceObjective:
    """One objective: ``target`` fraction of requests must be *good*.

    ``kind`` decides what "good" means for a request sample:

    * ``availability`` — it succeeded;
    * ``latency`` — it succeeded within ``threshold`` seconds (so a
      ``target`` of 0.99 with ``threshold=1.0`` is "p99 < 1 s");
    * ``coverage`` — it succeeded with coverage ≥ ``threshold``.
    """

    name: str
    kind: str
    target: float
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency", "coverage"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.kind != "availability" and self.threshold is None:
            raise ValueError(f"objective {self.name} needs a threshold")

    @property
    def budget(self) -> float:
        """The error budget: the fraction of requests allowed to be bad."""
        return 1.0 - self.target

    def bad(self, ok: bool, seconds: float, coverage: float) -> bool:
        if not ok:
            return True
        if self.kind == "latency":
            return seconds > float(self.threshold)  # type: ignore[arg-type]
        if self.kind == "coverage":
            return coverage < float(self.threshold)  # type: ignore[arg-type]
        return False


#: The serving tier's default objectives: three nines of availability
#: is not claimed — this is a benchmark harness — but 99% availability,
#: a 1 s p99, and near-full coverage are what the chaos suite defends.
DEFAULT_OBJECTIVES: tuple[ServiceObjective, ...] = (
    ServiceObjective("availability", "availability", 0.99),
    ServiceObjective("latency_p99", "latency", 0.99, threshold=1.0),
    ServiceObjective("coverage", "coverage", 0.99, threshold=0.999),
)


@dataclass(frozen=True)
class SloStatus:
    """One objective's burn state at evaluation time."""

    objective: ServiceObjective
    fast_burn: float
    slow_burn: float
    firing: bool
    fast_total: int
    slow_total: int

    def describe(self) -> str:
        state = "FIRING" if self.firing else "ok"
        return (
            f"{self.objective.name}: {state} "
            f"burn_fast={self.fast_burn:.2f} burn_slow={self.slow_burn:.2f} "
            f"(target={self.objective.target:g}, "
            f"n_fast={self.fast_total}, n_slow={self.slow_total})"
        )


@dataclass(frozen=True)
class _SloSample:
    t: float
    ok: bool
    seconds: float
    coverage: float


class SloTracker:
    """Sliding-window burn-rate tracking for a set of objectives.

    Classic multi-window alerting: an objective **fires** when its
    error budget burns faster than ``burn_threshold`` in *both* the
    fast and the slow window — the fast window catches the outage
    quickly, the slow window keeps one bad request from paging — and
    clears as soon as either window recovers.  Both windows and the
    clock are injectable so chaos runs can compress hours into ticks.

    Per objective the tracker exports three gauges
    (``slo_<name>_burn_fast``, ``slo_<name>_burn_slow``,
    ``slo_<name>_firing``) and logs ``slo.breach`` / ``slo.clear``
    events on transitions.
    """

    def __init__(
        self,
        objectives: Iterable[ServiceObjective] = DEFAULT_OBJECTIVES,
        fast_window: float = 300.0,
        slow_window: float = 3600.0,
        burn_threshold: float = 1.0,
        min_samples: int = 1,
        clock=time.monotonic,
        registry: MetricsRegistry = NULL_REGISTRY,
        log: StructLogger | None = None,
    ) -> None:
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ValueError("need at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        if not 0 < fast_window <= slow_window:
            raise ValueError(
                f"windows must satisfy 0 < fast <= slow, got {fast_window}/{slow_window}"
            )
        if burn_threshold <= 0:
            raise ValueError(f"burn threshold must be positive, got {burn_threshold}")
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.burn_threshold = burn_threshold
        self.min_samples = max(1, int(min_samples))
        self.clock = clock
        self.log = log if log is not None else get_logger()
        self._samples: deque[_SloSample] = deque()
        self._lock = threading.Lock()
        self._firing: set[str] = set()
        self._gauges = {}
        for objective in self.objectives:
            self._gauges[objective.name] = (
                registry.gauge(
                    f"slo_{objective.name}_burn_fast",
                    f"Fast-window burn rate for the {objective.name} objective",
                ),
                registry.gauge(
                    f"slo_{objective.name}_burn_slow",
                    f"Slow-window burn rate for the {objective.name} objective",
                ),
                registry.gauge(
                    f"slo_{objective.name}_firing",
                    f"1 while the {objective.name} objective is burning in both windows",
                ),
            )

    # ------------------------------------------------------------------
    def observe(
        self, ok: bool, seconds: float = 0.0, coverage: float = 1.0
    ) -> tuple[SloStatus, ...]:
        """Record one request outcome and re-evaluate every objective."""
        with self._lock:
            now = self.clock()
            self._samples.append(_SloSample(now, bool(ok), seconds, coverage))
            self._prune(now)
        return self.evaluate()

    def _prune(self, now: float) -> None:
        horizon = now - self.slow_window
        while self._samples and self._samples[0].t < horizon:
            self._samples.popleft()

    def _burn(
        self, objective: ServiceObjective, samples: Sequence[_SloSample]
    ) -> tuple[float, int]:
        if len(samples) < self.min_samples:
            return 0.0, len(samples)
        bad = sum(1 for s in samples if objective.bad(s.ok, s.seconds, s.coverage))
        ratio = bad / len(samples)
        if ratio == 0.0:
            return 0.0, len(samples)
        return ratio / objective.budget, len(samples)

    def evaluate(self) -> tuple[SloStatus, ...]:
        """Burn rates for every objective; updates gauges + transition logs."""
        with self._lock:
            now = self.clock()
            self._prune(now)
            slow = tuple(self._samples)
            fast = tuple(s for s in slow if s.t >= now - self.fast_window)
            statuses: list[SloStatus] = []
            for objective in self.objectives:
                fast_burn, n_fast = self._burn(objective, fast)
                slow_burn, n_slow = self._burn(objective, slow)
                firing = (
                    fast_burn >= self.burn_threshold
                    and slow_burn >= self.burn_threshold
                )
                statuses.append(
                    SloStatus(objective, fast_burn, slow_burn, firing, n_fast, n_slow)
                )
            transitions = []
            for status in statuses:
                name = status.objective.name
                g_fast, g_slow, g_firing = self._gauges[name]
                g_fast.set(status.fast_burn)
                g_slow.set(status.slow_burn)
                g_firing.set(1.0 if status.firing else 0.0)
                was = name in self._firing
                if status.firing and not was:
                    self._firing.add(name)
                    transitions.append(("slo.breach", status))
                elif not status.firing and was:
                    self._firing.discard(name)
                    transitions.append(("slo.clear", status))
        for event, status in transitions:
            emit = self.log.warning if event == "slo.breach" else self.log.info
            emit(
                event,
                objective=status.objective.name,
                burn_fast=round(status.fast_burn, 3),
                burn_slow=round(status.slow_burn, 3),
                threshold=self.burn_threshold,
            )
        return tuple(statuses)

    def healthy(self) -> bool:
        """True when no objective is firing."""
        return all(not status.firing for status in self.evaluate())

    @property
    def firing(self) -> tuple[str, ...]:
        """Names of currently firing objectives (as of the last evaluate)."""
        with self._lock:
            return tuple(sorted(self._firing))


# ----------------------------------------------------------------------
# Cross-node trace stitching
# ----------------------------------------------------------------------


def stitch_trace(
    root: Span, node_trees: Mapping[object, Span | None], span_name: str = "node.search"
) -> Span:
    """Graft per-node span trees under the coordinator's fan-out legs.

    ``root`` is the coordinator's completed trace; ``node_trees`` maps
    node ids to the tree each node returned for the same trace id (or
    ``None`` when the node had nothing — dead, restarted, ring rolled
    over).  The input is not mutated: the result is a rebuilt copy
    whose ``node.search`` children carry the matching remote subtree.
    """
    stitched = Span.from_payload(root.to_payload())
    available = {str(k): v for k, v in node_trees.items() if v is not None}
    for span in stitched.walk():
        if span.name != span_name:
            continue
        node = span.attrs.get("node")
        tree = available.get(str(node)) if node is not None else None
        if tree is None:
            continue
        remote = Span.from_payload(tree.to_payload())
        remote.attrs.setdefault("node", node)
        span.children.append(remote)
        span.attrs["stitched"] = True
    return stitched


def synthesize_trace(trace_id: str, node_trees: Mapping[object, Span | None]) -> Span:
    """A cross-node view when the coordinator's own root is gone.

    ``repro cluster trace <id>`` runs in a fresh process whose
    coordinator never saw the query; the node rings still hold their
    halves, keyed by the coordinator's trace id.  This wraps whatever
    the nodes returned under a synthetic root (marked
    ``reconstructed``) so the cross-node picture survives the
    coordinator's death — durations are real, coordinator-side timing
    is absent by construction.
    """
    trees = {str(k): v for k, v in node_trees.items() if v is not None}
    duration = max((t.duration for t in trees.values()), default=0.0)
    root = Span(
        name="cluster.trace",
        trace_id=trace_id,
        start=0.0,
        end=duration,
        attrs={"reconstructed": True, "nodes": len(trees)},
    )
    for node in sorted(trees):
        remote = Span.from_payload(trees[node].to_payload())
        remote.attrs.setdefault("node", node)
        root.children.append(remote)
    return root
