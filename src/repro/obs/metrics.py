"""Metrics registry: counters, gauges, fixed-bucket histograms.

The paper's host sees the accelerator only through a handful of
readback registers — best score, coordinates, a done flag — and the
entire evaluation (sustained CUPS, the 246.9x speedup) is built from
those few words.  This module is the software equivalent: a small,
dependency-free set of instruments the service layer updates on its
hot path, cheap enough to leave on in production and exposed two ways:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines), so a
  scrape loop is one ``metrics`` request away;
* :meth:`MetricsRegistry.snapshot` — a plain JSON-serializable dict
  for the ``--metrics-file`` periodic dump and ``repro stats``.

The default for library callers is :data:`NULL_REGISTRY`, whose
instruments are shared no-ops — a disabled engine pays one attribute
lookup and an empty method call per event, nothing more.

Histograms use **fixed** bucket bounds chosen at creation; quantiles
(p50/p90/p99) are estimated by linear interpolation inside the bucket
that holds the target rank, exactly how a Prometheus
``histogram_quantile`` would read the same buckets.
"""

from __future__ import annotations

import json
import re
import threading
import time
from bisect import bisect_left
from typing import Callable, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "PeriodicDumper",
    "escape_label_value",
]

#: Default histogram bounds — latency-shaped (seconds), spanning the
#: sub-millisecond cache hit to the multi-second cold sweep.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Inside ``name{label="..."}`` the backslash, the double quote, and
    the line feed must be escaped (``\\\\``, ``\\"``, ``\\n``); anything
    else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text (backslash and line feed only, per spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with estimated quantiles.

    ``bounds`` are the finite bucket upper edges (ascending); an
    implicit ``+Inf`` bucket catches everything above the last bound.
    ``quantile`` walks the cumulative counts to the bucket holding the
    target rank and interpolates linearly inside it, so p50/p90/p99
    are estimates whose resolution is the bucket width — the standard
    Prometheus trade: bounded memory, mergeable across processes.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if i == len(self.bounds):
                    # +Inf bucket: the last finite bound is the best
                    # statement the buckets can make.
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                if bucket_count == 0:
                    return hi
                return lo + (hi - lo) * (rank - previous) / bucket_count
        return self.bounds[-1]  # pragma: no cover - loop always resolves

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class MetricsRegistry:
    """Named instruments, created idempotently, exposed as text/JSON.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (so call sites need no "is it
    registered yet" dance) and raise when the name is registered as a
    different kind — a name means one thing, forever.
    """

    enabled = True

    def __init__(self, namespace: str = "repro") -> None:
        if not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metrics namespace {namespace!r}")
        self.namespace = namespace
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        full = f"{self.namespace}_{name}"
        with self._lock:
            existing = self._instruments.get(full)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {full} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(full, help, **kwargs)
            self._instruments[full] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        # Prometheus naming convention: cumulative counters end in
        # ``_total``.  Enforced at registration so a deviation fails in
        # the test that introduces it, not in a downstream scraper.
        if not name.endswith("_total"):
            raise ValueError(f"counter name {name!r} must end with '_total'")
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    @property
    def instruments(self) -> tuple[Counter | Gauge | Histogram, ...]:
        with self._lock:
            return tuple(self._instruments[k] for k in sorted(self._instruments))

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, one block per metric."""
        lines: list[str] = []
        for inst in self.instruments:
            if inst.help:
                lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            if isinstance(inst, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(inst.bounds, inst.counts):
                    cumulative += bucket_count
                    lines.append(f'{inst.name}_bucket{{le="{bound:g}"}} {cumulative}')
                lines.append(f'{inst.name}_bucket{{le="+Inf"}} {inst.count}')
                lines.append(f"{inst.name}_sum {inst.sum:g}")
                lines.append(f"{inst.name}_count {inst.count}")
            else:
                lines.append(f"{inst.name} {inst.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A JSON-serializable snapshot of every instrument."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, object] = {}
        for inst in self.instruments:
            if isinstance(inst, Counter):
                counters[inst.name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[inst.name] = inst.value
            else:
                histograms[inst.name] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "p50": inst.p50,
                    "p90": inst.p90,
                    "p99": inst.p99,
                    "buckets": {
                        f"{b:g}": c for b, c in zip(inst.bounds, inst.counts)
                    },
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullInstrument:
    """One shared do-nothing instrument standing in for all kinds."""

    name = "null"
    help = ""
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0
    p50 = p90 = p99 = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    This is the default for library callers — instrumented code always
    has a registry to talk to, and the disabled path costs one empty
    method call per event (the <2% engine-latency budget the service
    layer holds itself to).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]


#: Shared disabled registry (safe: all its instruments are no-ops).
NULL_REGISTRY = NullRegistry()


class PeriodicDumper:
    """Throttled JSON snapshots to a file, written by a tick thread of its own.

    ``snapshot`` is a zero-argument callable returning a JSON-ready
    dict: a registry's :meth:`~MetricsRegistry.snapshot` for one
    server, or a fresh fleet scrape (``lambda:
    aggregator.scrape().snapshot()``) for a cluster, so the file always
    holds one coherent view.  :meth:`start` runs :meth:`maybe_dump` on
    a daemon thread every ``min(interval, 1 s)`` (at least 50 ms), and
    :meth:`maybe_dump` writes at most once per ``interval`` seconds.
    :meth:`stop` ends the thread and writes one final dump, so the file
    left behind after a drain is the last state.  Writes go through a
    temp file + rename so a scraper never reads a torn snapshot.
    """

    def __init__(
        self,
        snapshot: Callable[[], dict],
        path,
        interval: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        from pathlib import Path

        if interval < 0:
            raise ValueError(f"interval cannot be negative, got {interval}")
        self.snapshot = snapshot
        self.path = Path(path)
        self.interval = interval
        self.clock = clock
        self.dumps = 0
        self._last = None
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    def maybe_dump(self) -> bool:
        """Dump if the interval elapsed; returns whether a write happened."""
        now = self.clock()
        if self._last is not None and now - self._last < self.interval:
            return False
        self.dump()
        self._last = now
        return True

    def dump(self) -> None:
        """Write one snapshot unconditionally (atomic rename).

        ``fsync=False``: losing the last interval's snapshot on a
        power cut is fine, but a reader must never see a torn file.
        """
        from ..io.atomic import atomic_write

        atomic_write(
            self.path,
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            fsync=False,
        )
        self.dumps += 1

    def start(self) -> "PeriodicDumper":
        """Start the tick thread; returns ``self``."""
        tick = max(0.05, min(self.interval, 1.0))

        def _tick() -> None:
            while not self._stopping.wait(timeout=tick):
                self.maybe_dump()

        self._thread = threading.Thread(
            target=_tick, name="repro-metrics-dump", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the tick thread, then write the final snapshot."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.dump()
