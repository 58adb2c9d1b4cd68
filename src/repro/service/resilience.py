"""Fault tolerance for the search service.

PR 1's service layer realizes the paper's host/accelerator loop — a
fixed database, queries streaming in, "only a few bytes" of results
streaming out — but assumes every sweep succeeds.  Production database
search engines treat partial failure as the normal case (SWAPHI
degrades gracefully when a Xeon Phi drops out; BioSEAL's large-scale
scans assume unit-level faults), and this module brings that posture
here:

* an **error taxonomy** rooted at :class:`ServiceError`, whose
  ``code`` attribute is the one-token failure class the wire
  protocol's error frames carry (``error <code> <message>`` on the
  CLI);
* a :class:`RetryPolicy` — capped exponential backoff with
  deterministic jitter, so two runs with the same seed schedule the
  same delays;
* a :class:`FaultPlan` — a deterministic fault-injection schedule
  (crash-on-shard-k, hang-for-t, corrupt-result, error, bad-npz) that
  tests and benchmarks use to script failures without monkeypatching
  the kernel;
* :func:`validate_sweep` — the host-side sanity check on every result
  that crosses the process boundary (the paper's "few bytes" wire
  format is cheap to audit exhaustively);
* a :class:`SupervisedWorkerPool` — the service's only multi-process
  sweep path: one subprocess per worker per sweep, each sweeping a
  bp-balanced group of shards, with per-shard worker-death
  detection, timeouts, retries under the policy, and shard-level
  **quarantine** for sweeps that fail repeatedly.

The healthy path preserves PR 1's contract: a supervised sweep with no
faults returns exactly the per-shard candidates an in-process sweep
returns, so merged rankings stay bit-identical to
:func:`repro.scan.scan_database`.
"""

from __future__ import annotations

import dataclasses
import io
import math
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..align.scoring import LinearScoring, SubstitutionMatrix
from ..obs import NULL_OBS, Observability
from .pool import ShardSweep, WorkerSpec, _sweep_shard, shard_task

__all__ = [
    "ServiceError",
    "BadRequest",
    "Overloaded",
    "RequestTimeout",
    "DeadlineExceeded",
    "Deadline",
    "ShardFailure",
    "WorkerTimeout",
    "IndexCorrupt",
    "RetryPolicy",
    "Fault",
    "FaultPlan",
    "CrashPoint",
    "DiskFault",
    "DiskFaultPlan",
    "FaultFS",
    "ShardHealth",
    "SweepOutcome",
    "SupervisedWorkerPool",
    "validate_sweep",
    "corrupt_index_file",
]


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base of the service-layer error taxonomy.

    ``code`` is the stable one-token failure class the server's line
    protocol reports (``error <code> <message>``); subclasses override
    it.  Anything that is not a :class:`ServiceError` or a bad request
    surfaces as ``internal``.
    """

    code = "internal"


class BadRequest(ServiceError, ValueError):
    """A client-supplied request was malformed or out of range.

    Subclasses :class:`ValueError` too, so a remote bad-request
    reconstructed by the client raises through the same ``except
    ValueError`` handlers an in-process engine's validation does.
    """

    code = "bad-request"


class Overloaded(ServiceError):
    """The server is at its in-flight limit (or draining); retry later."""

    code = "overloaded"


class RequestTimeout(ServiceError):
    """A request ran out of time (wire code ``timeout``).

    The taxonomy's base for time limits.  The TCP server bounds a
    request only by its own ``deadline_ms`` and answers with the
    subclass :class:`DeadlineExceeded`.
    """

    code = "timeout"


class ShardFailure(ServiceError):
    """A shard sweep failed (worker died, raised, or returned garbage)."""

    code = "shard-failure"

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id


class WorkerTimeout(ServiceError):
    """A shard sweep exceeded the supervisor's task timeout."""

    code = "worker-timeout"

    def __init__(self, shard_id: int, seconds: float) -> None:
        super().__init__(f"shard {shard_id}: sweep exceeded {seconds:.3g}s timeout")
        self.shard_id = shard_id
        self.seconds = seconds


class IndexCorrupt(ServiceError):
    """Stored index content failed its content-hash validation."""

    code = "index-corrupt"


class DeadlineExceeded(RequestTimeout):
    """The request's end-to-end deadline budget ran out.

    Subclasses :class:`RequestTimeout` so existing ``except
    RequestTimeout`` handlers keep working, but carries its own wire
    code — a deadline the *client* set expiring is a different signal
    from a plain ``timeout``, and circuit breakers and dashboards want
    to tell them apart.  The same class (and the
    same code) surfaces in-process from the engine, over the wire from
    the TCP server, and client-side from an expired local budget.
    """

    code = "deadline-exceeded"


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the monotonic clock a request must beat.

    A deadline is *anchored once* — when the request is admitted — and
    every layer downstream (engine, pool, per-attempt supervision)
    derives its own timeout from :meth:`remaining` instead of carrying
    a private static budget.  That is what makes worst-case latency
    ``deadline`` rather than ``retries x timeout``: a retry only ever
    gets what is left, never a fresh allowance.
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(time.monotonic() + seconds)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now (the wire unit)."""
        return cls.after(milliseconds / 1000.0)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        """Milliseconds left — what a client forwards on the wire."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, where: str = "request") -> "Deadline":
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded ({where}, {-self.remaining():.3f}s past budget)"
            )
        return self


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``a`` (0-based) that fails waits
    ``min(base_delay * multiplier**a, max_delay)`` scaled down by up to
    ``jitter`` (a fraction in [0, 1]) before retrying; ``retries`` is
    how many retries follow the first attempt.  Jitter is drawn from a
    generator seeded by ``(seed, token, attempt)`` — same inputs, same
    delay — so supervised runs are reproducible end to end.
    """

    retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries cannot be negative, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def delay(self, attempt: int, token: object = 0) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt cannot be negative, got {attempt}")
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        # str seeding hashes with sha512 — stable across processes and
        # PYTHONHASHSEED, which int tuple hashing would not be for all
        # token types.
        rng = random.Random(f"{self.seed}:{token}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
FAULT_KINDS = ("crash", "hang", "error", "corrupt", "bad-npz")


@dataclass(frozen=True)
class Fault:
    """One scripted failure.

    ``kind``:
      * ``crash``   — the worker process exits hard (``os._exit``);
      * ``hang``    — the worker stalls ``seconds`` before sweeping;
      * ``error``   — the worker raises inside the sweep;
      * ``corrupt`` — the worker returns a plausible-looking but
        invalid :class:`~repro.service.pool.ShardSweep`;
      * ``bad-npz`` — file-level: a saved index's payload bytes for
        the shard are flipped (applied by
        :meth:`FaultPlan.apply_to_file`, not by workers).

    ``times`` limits the fault to the shard's first N attempts (so a
    retry "heals" it); ``None`` makes it persistent.
    """

    kind: str
    shard_id: int
    times: int | None = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (use one of {FAULT_KINDS})")
        if self.shard_id < 0:
            raise ValueError(f"shard_id cannot be negative, got {self.shard_id}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if self.seconds <= 0:
            raise ValueError(f"seconds must be positive, got {self.seconds}")


class FaultPlan:
    """A deterministic schedule of :class:`Fault` injections.

    The supervisor consults :meth:`fault_for` before launching each
    shard attempt and ships the matching fault (if any) into the
    worker; the plan itself never crosses the process boundary.  Only
    supervised workers honor the plan — the engine's in-process
    sweeps, the fallback path included, never see it.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults = tuple(faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultPlan({list(self.faults)!r})"

    @classmethod
    def crash_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("crash", shard_id, times=times)])

    @classmethod
    def hang_on(
        cls, shard_id: int, seconds: float = 30.0, times: int | None = 1
    ) -> "FaultPlan":
        return cls([Fault("hang", shard_id, times=times, seconds=seconds)])

    @classmethod
    def error_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("error", shard_id, times=times)])

    @classmethod
    def corrupt_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("corrupt", shard_id, times=times)])

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """A plan containing both schedules."""
        return FaultPlan(self.faults + other.faults)

    def fault_for(self, shard_id: int, attempt: int) -> Fault | None:
        """The fault to inject on ``shard_id``'s 0-based ``attempt``."""
        for fault in self.faults:
            if fault.kind == "bad-npz":
                continue
            if fault.shard_id == shard_id and (
                fault.times is None or attempt < fault.times
            ):
                return fault
        return None

    def apply_to_file(self, path: str | Path) -> int:
        """Apply every file-level (``bad-npz``) fault to a saved index.

        Returns the number of faults applied.
        """
        applied = 0
        for fault in self.faults:
            if fault.kind == "bad-npz":
                corrupt_index_file(path, shard_id=fault.shard_id)
                applied += 1
        return applied


def corrupt_index_file(path: str | Path, shard_id: int = 0, offset: int = 0) -> None:
    """Flip a payload byte of ``shard_id`` inside a saved index file.

    The file stays a structurally valid ``.npz`` — only the shard's
    content no longer matches its stored hash, which is exactly what a
    bit-rotted or torn write looks like to
    :meth:`~repro.service.index.DatabaseIndex.load`.  ``offset`` picks
    *which* byte of the shard's payload span is flipped (wrapped into
    range), so property tests can damage arbitrary positions.
    """
    import numpy as np

    path = Path(path)
    with np.load(path) as data:
        arrays = {key: data[key].copy() for key in data.files}
    counts = arrays["shard_counts"]
    lengths = arrays["record_lengths"]
    if not 0 <= shard_id < len(counts):
        raise ValueError(f"shard {shard_id} out of range (index has {len(counts)})")
    first = int(counts[:shard_id].sum())
    span = int(lengths[first : first + int(counts[shard_id])].sum())
    if span == 0:
        raise ValueError(f"shard {shard_id} has no payload to corrupt")
    start = int(lengths[:first].sum())
    arrays["payload"][start + (offset % span)] ^= 0x1F
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


# ----------------------------------------------------------------------
# Disk fault injection: FaultFS
# ----------------------------------------------------------------------
DISK_FAULT_KINDS = ("torn", "short", "enospc", "eio", "fsync-drop", "crash")


class CrashPoint(Exception):
    """Simulated process death at a labeled filesystem barrier.

    Raised by :class:`FaultFS` when a ``crash`` (or ``torn``) fault
    triggers.  Ingest code must never catch it — the chaos harness
    catches it at the top, throws the whole service object away, and
    rebuilds one over the same directory, exactly as a restart after
    ``kill -9`` would.  Before raising, :class:`FaultFS` discards
    every byte that was never fsynced, so recovery sees what the disk
    would actually hold.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"simulated crash at barrier {label!r}")
        self.label = label


@dataclass(frozen=True)
class DiskFault:
    """One scripted filesystem failure at a labeled barrier.

    ``kind``:
      * ``torn``       — a write lands only a prefix of its bytes
        (made durable, as if the page hit the platter) and the process
        dies: the classic torn write a journal must detect by
        checksum;
      * ``short``      — a write returns having written fewer bytes
        than asked, without raising (the POSIX short-write case a
        naive caller ignores);
      * ``enospc``     — the operation raises ``OSError(ENOSPC)``;
      * ``eio``        — the operation raises ``OSError(EIO)``;
      * ``fsync-drop`` — an ``fsync`` silently does nothing, so the
        bytes it was meant to make durable vanish at the next crash;
      * ``crash``      — the process dies at the barrier, before the
        operation applies.

    ``label`` names the barrier (e.g. ``journal.append``,
    ``delta.rename``); ``after`` skips the first N hits of that
    barrier and ``times`` bounds how many trigger (``None`` =
    every subsequent hit).
    """

    kind: str
    label: str
    after: int = 0
    times: int | None = 1
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(
                f"unknown disk fault kind {self.kind!r} (use one of {DISK_FAULT_KINDS})"
            )
        if not self.label:
            raise ValueError("disk fault needs a barrier label")
        if self.after < 0:
            raise ValueError(f"after cannot be negative, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


class DiskFaultPlan:
    """A deterministic schedule of :class:`DiskFault` injections.

    The disk-level counterpart of :class:`FaultPlan`: where that plan
    keys faults on ``(shard_id, attempt)``, this one keys them on
    ``(barrier label, hit count)`` — every filesystem operation the
    ingest path performs passes through a named barrier, and the plan
    decides which hit of which barrier fails, and how.
    """

    def __init__(self, faults: Iterable[DiskFault] = ()) -> None:
        self.faults = tuple(faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DiskFaultPlan({list(self.faults)!r})"

    @classmethod
    def crash_at(cls, label: str, after: int = 0) -> "DiskFaultPlan":
        return cls([DiskFault("crash", label, after=after)])

    @classmethod
    def torn_at(cls, label: str, after: int = 0, fraction: float = 0.5) -> "DiskFaultPlan":
        return cls([DiskFault("torn", label, after=after, fraction=fraction)])

    @classmethod
    def short_at(cls, label: str, after: int = 0, fraction: float = 0.5) -> "DiskFaultPlan":
        return cls([DiskFault("short", label, after=after, fraction=fraction)])

    @classmethod
    def enospc_at(cls, label: str, after: int = 0, times: int | None = 1) -> "DiskFaultPlan":
        return cls([DiskFault("enospc", label, after=after, times=times)])

    @classmethod
    def eio_at(cls, label: str, after: int = 0, times: int | None = 1) -> "DiskFaultPlan":
        return cls([DiskFault("eio", label, after=after, times=times)])

    @classmethod
    def fsync_drop_at(cls, label: str, after: int = 0, times: int | None = None) -> "DiskFaultPlan":
        return cls([DiskFault("fsync-drop", label, after=after, times=times)])

    def merged(self, other: "DiskFaultPlan") -> "DiskFaultPlan":
        return DiskFaultPlan(self.faults + other.faults)

    def fault_for(self, label: str, hit: int) -> DiskFault | None:
        """The fault to inject on the 0-based ``hit`` of ``label``."""
        for fault in self.faults:
            if fault.label != label:
                continue
            if hit < fault.after:
                continue
            if fault.times is not None and hit >= fault.after + fault.times:
                continue
            return fault
        return None


class FaultFS:
    """Filesystem shim with labeled barriers and injectable disk faults.

    Every durable operation the ingest path performs — appends,
    fsyncs, atomic publishes, renames, removals — goes through this
    object and names the barrier it is crossing.  A clean
    :class:`FaultFS` (no plan) is a thin veneer over ``os``; one armed
    with a :class:`DiskFaultPlan` injects torn/short writes, ENOSPC,
    EIO, dropped fsyncs, and simulated crashes deterministically.

    The shim keeps an honest durability model so a simulated crash
    behaves like a real one: for every file it touches it tracks the
    byte length that has actually been fsynced, and when a ``crash``
    or ``torn`` fault fires it truncates each file back to its durable
    length and deletes not-yet-renamed temp files before raising
    :class:`CrashPoint`.  Bytes written but never synced are gone
    after the "reboot", exactly as the page cache would lose them —
    which is what makes torn-tail recovery testable in-process.

    ``hits`` / ``labels_seen`` record every barrier crossing, so a
    fault-free probe run enumerates the crash points a chaos schedule
    should then kill at.
    """

    def __init__(self, plan: DiskFaultPlan | None = None) -> None:
        self.plan = plan or DiskFaultPlan()
        self.hits: dict[str, int] = {}
        self.labels_seen: list[str] = []
        self.crashed = False
        self._durable: dict[str, int] = {}
        self._temps: set[str] = set()

    # -- fault bookkeeping ---------------------------------------------
    def _barrier(self, label: str) -> DiskFault | None:
        hit = self.hits.get(label, 0)
        self.hits[label] = hit + 1
        if label not in self.labels_seen:
            self.labels_seen.append(label)
        return self.plan.fault_for(label, hit)

    def _crash(self, label: str) -> None:
        """Apply crash semantics: unsynced bytes vanish, temps vanish."""
        self.crashed = True
        for name, durable in self._durable.items():
            path = Path(name)
            if not path.exists():
                continue
            size = path.stat().st_size
            if size > durable:
                with open(path, "rb+") as fh:
                    fh.truncate(durable)
        for name in list(self._temps):
            Path(name).unlink(missing_ok=True)
        self._temps.clear()
        raise CrashPoint(label)

    def _track(self, path: Path) -> None:
        key = str(path)
        if key not in self._durable:
            # A file we did not write this run (or one inherited from a
            # previous life) counts as durable at its current size.
            self._durable[key] = path.stat().st_size if path.exists() else 0

    # -- operations ----------------------------------------------------
    def append(self, path: str | Path, data: bytes, label: str) -> int:
        """Append ``data``; returns the byte count actually written.

        A ``short`` fault writes a prefix and returns its short count
        without raising — the caller must check, as with a real
        ``write(2)``.
        """
        path = Path(path)
        self._track(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "torn":
                keep = int(len(data) * fault.fraction)
                with open(path, "ab") as fh:
                    fh.write(data[:keep])
                # The torn prefix is what the platter kept.
                self._durable[str(path)] = path.stat().st_size
                self._crash(label)
            if fault.kind == "short":
                keep = int(len(data) * fault.fraction)
                with open(path, "ab") as fh:
                    fh.write(data[:keep])
                return keep
        with open(path, "ab") as fh:
            fh.write(data)
        return len(data)

    def fsync(self, path: str | Path, label: str) -> None:
        """Make a file's current content durable (unless dropped)."""
        path = Path(path)
        self._track(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "fsync-drop":
                return  # lies like a failing disk: reports success
        with open(path, "rb+") as fh:
            os.fsync(fh.fileno())
        self._durable[str(path)] = path.stat().st_size

    def replace(self, src: str | Path, dst: str | Path, label: str) -> None:
        """Atomic rename; the barrier fires before the rename applies."""
        src, dst = Path(src), Path(dst)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
        durable = self._durable.pop(str(src), None)
        os.replace(src, dst)
        self._temps.discard(str(src))
        self._durable[str(dst)] = (
            durable if durable is not None else dst.stat().st_size
        )

    def fsync_dir(self, path: str | Path, label: str) -> None:
        """Flush a directory entry (rename durability barrier)."""
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "fsync-drop":
                return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def remove(self, path: str | Path, label: str) -> None:
        """Delete a file (journal segment retirement)."""
        path = Path(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
        path.unlink(missing_ok=True)
        self._durable.pop(str(path), None)

    def truncate(self, path: str | Path, size: int) -> None:
        """Truncate a file (torn-tail repair during recovery; no barrier)."""
        path = Path(path)
        with open(path, "rb+") as fh:
            fh.truncate(size)
            os.fsync(fh.fileno())
        self._durable[str(path)] = size

    def publish(self, path: str | Path, data: bytes, label: str) -> None:
        """Atomically replace ``path`` with ``data``, barrier by barrier.

        The four steps of :func:`repro.io.atomic_write`, each crossing
        its own crash point: ``<label>.write`` → ``<label>.sync`` →
        ``<label>.rename`` → ``<label>.dirsync``.  A crash at any step
        leaves either the complete old file or the complete new file
        (or, with a dropped sync, a file whose content the digest
        check will refuse) — never a silently torn one.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        self._temps.add(str(tmp))
        tmp.unlink(missing_ok=True)
        self._durable[str(tmp)] = 0
        written = self.append(tmp, data, f"{label}.write")
        if written < len(data):
            raise _disk_error("enospc", f"{label}.write (short write: {written}/{len(data)} bytes)")
        self.fsync(tmp, f"{label}.sync")
        self.replace(tmp, path, f"{label}.rename")
        self.fsync_dir(path.parent, f"{label}.dirsync")


def _disk_error(kind: str, label: str) -> OSError:
    import errno

    number = errno.ENOSPC if kind == "enospc" else errno.EIO
    return OSError(number, f"injected {kind} at {label}")


# ----------------------------------------------------------------------
# Sweep validation (host-side audit of the wire format)
# ----------------------------------------------------------------------
def validate_sweep(
    sweep: ShardSweep,
    shard,
    n_queries: int,
    min_score: int,
    k: int,
) -> None:
    """Audit one sweep result against its shard's ground truth.

    The pool's wire format is tiny — ``(score, global_index, i, j)``
    per candidate — so the host can afford to check all of it: shard
    identity, record count, per-query list shape, score floor, and
    that every global index lands inside the shard's span.  Raises
    :class:`ShardFailure` on the first violation, which the supervisor
    treats like any other failed attempt (retry, then quarantine).
    """
    sid = shard.shard_id
    if sweep.shard_id != sid:
        raise ShardFailure(sid, f"result reports shard {sweep.shard_id}")
    if sweep.records != len(shard):
        raise ShardFailure(
            sid, f"result reports {sweep.records} records, shard has {len(shard)}"
        )
    if len(sweep.candidates) != n_queries:
        raise ShardFailure(
            sid,
            f"result carries {len(sweep.candidates)} query lists, expected {n_queries}",
        )
    lo, hi = shard.start, shard.start + len(shard)
    for cands in sweep.candidates:
        if len(cands) > k:
            raise ShardFailure(sid, f"{len(cands)} candidates exceed top-{k}")
        for cand in cands:
            score, gidx, i, j = cand
            if score < min_score or not lo <= gidx < hi or i < 0 or j < 0:
                raise ShardFailure(sid, f"corrupt candidate {cand!r}")


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------
def _corrupt_sweep(sweep: ShardSweep) -> ShardSweep:
    """The ``corrupt`` fault: plausible shape, invalid content."""
    bad = tuple(
        tuple((score, gidx + 1_000_000_007, i, j) for score, gidx, i, j in cands)
        for cands in sweep.candidates
    )
    return dataclasses.replace(sweep, candidates=bad, records=sweep.records + 1)


def _supervised_entry(tasks: tuple, faults: tuple, conn) -> None:
    """Worker-process entry: sweep a group of shards in order, report each.

    ``tasks`` and ``faults`` run pairwise: each shard first suffers its
    scripted fault (if any), then sweeps, and its outcome crosses back
    over ``conn`` as a picklable ``("ok", sweep)`` or
    ``("error", message)`` pair as soon as that shard is done — so
    results arrive in group order, and the supervisor knows which
    shard is in progress.  A crash fault (or
    a real segfault) reports nothing for the shard in progress and
    ends the group, which the supervisor reads from the exit code.

    A forked worker first drops the signal handling it inherited: the
    serving commands (``repro serve``, ``repro cluster serve``) install
    Python handlers for SIGINT/SIGTERM (and the ``--reload-signal``)
    that only set a flag or start a reload, so without the reset a
    SIGTERM sent to the worker would not end it.  A parent that runs
    an asyncio loop on its main thread may also have aimed the wake-up
    fd at that loop's self-pipe, which the reset detaches.
    """
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    for task, fault in zip(tasks, faults):
        try:
            if fault is not None:
                if fault.kind == "crash":
                    os._exit(13)
                if fault.kind == "hang":
                    time.sleep(fault.seconds)
                elif fault.kind == "error":
                    raise RuntimeError("injected worker error")
            sweep = _sweep_shard(task)
            if fault is not None and fault.kind == "corrupt":
                sweep = _corrupt_sweep(sweep)
            conn.send(("ok", sweep))
        except BaseException as exc:  # noqa: BLE001 - must never escape the worker
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except Exception:
                os._exit(1)


def _groups(entries: list, n: int) -> list[list]:
    """Split pending ``(shard, attempt, ready_at)`` entries into at most
    ``n`` groups balanced by bp.

    Longest-first greedy assignment to the lightest group; each group
    then runs in shard-id order.
    """
    n = min(n, len(entries))
    groups: list[list] = [[] for _ in range(n)]
    loads = [0] * n
    for entry in sorted(entries, key=lambda e: -e[0].bp):
        g = loads.index(min(loads))
        groups[g].append(entry)
        loads[g] += entry[0].bp
    return [sorted(g, key=lambda e: e[0].shard_id) for g in groups]


@dataclass
class ShardHealth:
    """Per-shard failure bookkeeping across sweeps."""

    failures: int = 0
    exhaustions: int = 0
    quarantined: bool = False
    last_error: str = ""


@dataclass
class SweepOutcome:
    """What a supervised sweep produced, successes and failures both.

    ``sweeps`` holds every validated per-shard result; ``failed`` maps
    shard ids that exhausted their retries (or were already
    quarantined) to the :class:`ServiceError` describing why.  The
    counters record how hard the supervisor had to work: ``attempts``
    counts shard attempts, ``processes`` the worker processes forked
    to run them.
    """

    sweeps: list[ShardSweep] = field(default_factory=list)
    failed: dict[int, ServiceError] = field(default_factory=dict)
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    processes: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed


@dataclass
class _Running:
    """One worker process sweeping ``items`` — ``(shard, attempt)`` — in order.

    ``items[done]`` is the shard in progress, and ``deadline`` is its
    kill time.  Results arrive on ``conn``; ``writer`` is the parent's
    copy of the pipe's other end, closed with it.
    """

    items: list[tuple[object, int]]
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    writer: multiprocessing.connection.Connection
    deadline: float
    done: int = 0
    finished: bool = False


class SupervisedWorkerPool:
    """Fault-aware shard sweeps: supervision, retries, quarantine.

    A sweep splits its shards into at most ``workers`` groups balanced
    by bp and forks **one** subprocess (fork where available) per
    group, which sweeps its shards in order and reports each as soon
    as it is done.  Supervision stays per shard: the shard in progress
    is the first without a result, its ``task_timeout`` kill-timer
    starts when the previous result arrives, and a death or kill is
    charged to it alone — the group's shards that never started are
    re-queued at the same attempt, counting as no failure, retry or
    attempt.  A failed shard is rescheduled under ``policy``'s
    backoff; one whose attempts exhaust the policy is recorded in the
    outcome's ``failed`` map, and after ``quarantine_after`` such
    exhaustions it is quarantined and excluded from future sweeps
    until :meth:`heal`.

    A worker that has sent its group's last result is not joined
    inside the sweep: its exit (a few ms of process teardown) would sit
    on the sweep's critical path.  It is reaped behind the sweep, at
    the start of the next sweep before any fork, in a deadline abort,
    or in :meth:`close`, which a server's drain calls.  Every other
    worker is killed or joined before the sweep returns.

    ``fault_plan`` scripts deterministic failures for tests and
    benchmarks; ``None`` (the default) injects nothing.

    ``obs`` is the observability bundle (metrics + tracer + logger);
    retries, quarantines, timeouts and worker deaths — previously
    silent counter bumps — become counters, trace events on the open
    ``pool.sweep`` span, and structured log lines.  An engine with a
    live bundle rebinds a pool constructed without one.
    """

    def __init__(
        self,
        workers: int = 1,
        spec: WorkerSpec | None = None,
        policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        quarantine_after: int = 1,
        fault_plan: FaultPlan | None = None,
        obs: Observability | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be positive, got {quarantine_after}")
        self.workers = workers
        self.spec = spec if spec is not None else WorkerSpec()
        self.policy = policy if policy is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.quarantine_after = quarantine_after
        self.fault_plan = fault_plan
        self.health: dict[int, ShardHealth] = {}
        self.sweeps_run = 0
        self.attempts_total = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.worker_deaths_total = 0
        self.processes_total = 0
        self._healthy = True
        # Workers that delivered their group's last result, unjoined.
        self._exiting: list[multiprocessing.process.BaseProcess] = []
        self.bind_obs(obs if obs is not None else NULL_OBS)

    def bind_obs(self, obs: Observability) -> None:
        """Attach an observability bundle and register the counters."""
        self.obs = obs
        registry = obs.registry
        self._m_attempts = registry.counter(
            "sweep_attempts_total", "Shard sweep attempts launched"
        )
        self._m_processes = registry.counter(
            "worker_processes_started_total", "Worker processes forked for sweeps"
        )
        self._m_retries = registry.counter(
            "retries_total", "Shard sweep attempts retried after a failure"
        )
        self._m_quarantines = registry.counter(
            "quarantines_total", "Shards quarantined after exhausting retries"
        )
        self._m_timeouts = registry.counter(
            "worker_timeouts_total", "Shard sweeps killed at the task timeout"
        )
        self._m_deaths = registry.counter(
            "worker_deaths_total", "Worker processes that died without a result"
        )

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """False once a sweep ends with zero successful shards."""
        return self._healthy

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Shard ids currently excluded from sweeps."""
        return tuple(sorted(s for s, h in self.health.items() if h.quarantined))

    def heal(self, shard_id: int | None = None) -> None:
        """Clear quarantine (one shard, or everything) and mark healthy."""
        if shard_id is None:
            self.health.clear()
        else:
            self.health.pop(shard_id, None)
        self._healthy = True

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # ------------------------------------------------------------------
    def sweep(
        self,
        index,
        queries: Sequence[str],
        scheme: LinearScoring | SubstitutionMatrix,
        min_score: int,
        k: int,
        deadline: Deadline | None = None,
        spec: WorkerSpec | None = None,
    ) -> SweepOutcome:
        """Sweep every non-quarantined shard under supervision.

        ``deadline``, when given, bounds the *whole* sweep: every
        shard's kill-timer is ``min(task_timeout, remaining budget)``
        — a retry never gets a fresh static allowance — and once the
        budget is gone the supervisor kills everything still running
        and raises :class:`DeadlineExceeded` instead of limping on.

        ``spec`` overrides the pool's kernel spec for this sweep only
        (a request-level ``QueryOptions.kernel`` selection).
        """
        self.close()  # the last sweep's workers, before any fork
        queries = tuple(queries)
        spec = spec if spec is not None else self.spec
        outcome = SweepOutcome()
        runnable = []
        for shard in index.active_shards:
            health = self.health.get(shard.shard_id)
            if health is not None and health.quarantined:
                outcome.failed[shard.shard_id] = ShardFailure(
                    shard.shard_id, f"quarantined: {health.last_error}"
                )
            else:
                runnable.append(shard)

        ctx = self._context()
        pending: list[tuple[object, int, float]] = [(s, 0, 0.0) for s in runnable]
        running: list[_Running] = []
        while pending or running:
            if deadline is not None and deadline.expired:
                # Every in-flight shard was an attempt that ran.
                self._count_attempts(outcome, len(running))
                self._abort_running(running)
                self._fold_totals(outcome)
                self.obs.log.warning(
                    "pool.deadline-exceeded",
                    running=len(running),
                    pending=len(pending),
                )
                deadline.check("pool sweep")
            now = time.monotonic()
            free = self.workers - len(running)
            ready = [entry for entry in pending if entry[2] <= now]
            if free > 0 and ready:
                pending = [entry for entry in pending if entry[2] > now]
                for group in _groups(ready, free):
                    running.append(
                        self._launch(
                            ctx,
                            [(shard, attempt) for shard, attempt, _ in group],
                            queries,
                            scheme,
                            min_score,
                            k,
                            deadline,
                            spec,
                        )
                    )
                    outcome.processes += 1
                    self._m_processes.inc()

            progressed = False
            for run in list(running):
                progressed |= self._advance(
                    run, queries, min_score, k, outcome, pending, deadline
                )
                if run.finished:
                    running.remove(run)
            if not progressed and (running or pending):
                self._wait(running, pending, deadline)

        outcome.sweeps.sort(key=lambda s: s.shard_id)
        self._fold_totals(outcome)
        if runnable and not outcome.sweeps:
            self._healthy = False
            self.obs.log.error(
                "pool.unhealthy",
                shards=len(runnable),
                attempts=outcome.attempts,
            )
        return outcome

    def close(self) -> None:
        """Join the workers earlier sweeps left exiting; the pool stays usable."""
        exiting, self._exiting = self._exiting, []
        for process in exiting:
            process.join()

    # ------------------------------------------------------------------
    def _fold_totals(self, outcome: SweepOutcome) -> None:
        """Add one finished (or aborted) sweep's counters to the totals."""
        self.sweeps_run += 1
        self.attempts_total += outcome.attempts
        self.retries_total += outcome.retries
        self.timeouts_total += outcome.timeouts
        self.worker_deaths_total += outcome.worker_deaths
        self.processes_total += outcome.processes

    def _wait(self, running, pending, deadline: Deadline | None) -> None:
        """Block until a result or a worker exit, or the next timer.

        Timers are the in-progress shards' kill times, retry backoffs
        (while a worker slot is free) and the sweep deadline.  With no
        finite timer the wait ends only on a pipe or a process sentinel.
        """
        wake = [run.deadline for run in running]
        if len(running) < self.workers:
            wake += [entry[2] for entry in pending]
        if deadline is not None:
            wake.append(deadline.expires_at)
        earliest = min(wake)
        timeout = (
            max(earliest - time.monotonic(), 0.0) if math.isfinite(earliest) else None
        )
        handles = [run.conn for run in running] + [run.process.sentinel for run in running]
        if handles:
            multiprocessing.connection.wait(handles, timeout)
        else:
            time.sleep(timeout)

    def _count_attempts(self, outcome: SweepOutcome, n: int) -> None:
        outcome.attempts += n
        self._m_attempts.inc(n)

    def _abort_running(self, running: list["_Running"]) -> None:
        """Kill every in-flight worker (the sweep's budget is gone)."""
        for run in running:
            try:
                run.process.kill()
                run.process.join()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self._close(run)
        running.clear()
        self.close()

    def _kill_at(self, deadline: Deadline | None) -> float:
        """When a shard attempt starting now is killed.

        The static ``task_timeout``, capped at the request's deadline:
        without the cap every retry got the full ``task_timeout`` again
        (worst case ``retries x timeout``); with it an attempt only ever
        gets what is left of the budget.
        """
        static = self.task_timeout if self.task_timeout is not None else math.inf
        kill_at = time.monotonic() + static
        return kill_at if deadline is None else min(kill_at, deadline.expires_at)

    def _launch(
        self, ctx, items, queries, scheme, min_score, k, deadline, spec
    ) -> _Running:
        """Fork one worker that sweeps ``items`` in order."""
        faults = tuple(
            self.fault_plan.fault_for(shard.shard_id, attempt)
            if self.fault_plan is not None
            else None
            for shard, attempt in items
        )
        tasks = tuple(
            shard_task(shard, queries, scheme, spec, min_score, k)
            for shard, _ in items
        )
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_supervised_entry, args=(tasks, faults, writer), daemon=True
        )
        process.start()
        return _Running(list(items), process, reader, writer, self._kill_at(deadline))

    def _advance(
        self,
        run: _Running,
        queries,
        min_score: int,
        k: int,
        outcome: SweepOutcome,
        pending: list[tuple[object, int, float]],
        deadline: Deadline | None,
    ) -> bool:
        """Resolve what ``run`` has finished; ``True`` if anything did.

        Sets ``run.finished`` once the worker is done with: every shard
        reported, or the worker died or was killed mid-group.
        """
        progressed = False
        while run.done < len(run.items) and run.conn.poll():
            status, payload = run.conn.recv()
            shard, attempt = run.items[run.done]
            run.done += 1
            # The next shard in the group starts now: so does its timer.
            run.deadline = self._kill_at(deadline)
            self._count_attempts(outcome, 1)
            progressed = True
            sid = shard.shard_id
            if status != "ok":
                error: ServiceError = ShardFailure(sid, f"worker raised: {payload}")
            else:
                try:
                    validate_sweep(payload, shard, len(queries), min_score, k)
                except ShardFailure as exc:
                    error = exc
                else:
                    outcome.sweeps.append(payload)
                    continue
            self._record_failure(shard, attempt, error, pending, outcome, deadline)
        if run.done == len(run.items):
            self._exiting.append(run.process)  # reaped behind the sweep
            self._close(run)
            run.finished = True
            return True
        shard, attempt = run.items[run.done]
        sid = shard.shard_id
        if run.process.exitcode is not None:
            # Dead without this shard's result: grant the pipe one
            # grace read in case the payload landed between the checks.
            if run.conn.poll(0.01):
                return self._advance(
                    run, queries, min_score, k, outcome, pending, deadline
                )
            outcome.worker_deaths += 1
            self._m_deaths.inc()
            self.obs.tracer.event(
                "worker-death", shard=sid, exit_code=run.process.exitcode
            )
            self.obs.log.warning(
                "pool.worker-death",
                shard=sid,
                attempt=attempt,
                exit_code=run.process.exitcode,
            )
            error = ShardFailure(sid, f"worker died (exit code {run.process.exitcode})")
        elif time.monotonic() > run.deadline:
            if deadline is not None and deadline.expired:
                # The kill timer is the request's deadline, read after the
                # sweep's own deadline check passed: the sweep's deadline
                # abort kills this worker; the shard did not time out.
                return progressed
            outcome.timeouts += 1
            self._m_timeouts.inc()
            self.obs.tracer.event(
                "worker-timeout", shard=sid, seconds=self.task_timeout
            )
            self.obs.log.warning(
                "pool.worker-timeout",
                shard=sid,
                attempt=attempt,
                seconds=self.task_timeout,
            )
            run.process.kill()
            run.process.join()
            error = WorkerTimeout(sid, float(self.task_timeout))
        else:
            return progressed
        self._close(run)
        run.finished = True
        self._count_attempts(outcome, 1)
        self._record_failure(shard, attempt, error, pending, outcome, deadline)
        # The group's shards that never started go back unchanged.
        pending.extend((s, a, 0.0) for s, a in run.items[run.done + 1 :])
        return True

    @staticmethod
    def _close(run: _Running) -> None:
        for conn in (run.conn, run.writer):
            try:
                conn.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def _record_failure(
        self,
        shard,
        attempt: int,
        error: ServiceError,
        pending: list[tuple[object, int, float]],
        outcome: SweepOutcome,
        deadline: Deadline | None = None,
    ) -> None:
        sid = shard.shard_id
        health = self.health.setdefault(sid, ShardHealth())
        health.failures += 1
        health.last_error = str(error)
        retry_fits = True
        if attempt < self.policy.retries and deadline is not None:
            # A retry whose backoff alone outlives the budget can never
            # complete; spend the remaining time on failing cleanly.
            retry_fits = self.policy.delay(attempt, token=sid) < deadline.remaining()
            if not retry_fits:
                self.obs.log.warning(
                    "pool.retry-skipped", shard=sid, reason="deadline budget exhausted"
                )
        if attempt < self.policy.retries and retry_fits:
            outcome.retries += 1
            self._m_retries.inc()
            delay = self.policy.delay(attempt, token=sid)
            self.obs.tracer.event(
                "retry", shard=sid, attempt=attempt, delay_s=round(delay, 4)
            )
            self.obs.log.warning(
                "pool.retry",
                shard=sid,
                attempt=attempt,
                delay_s=round(delay, 4),
                error=str(error),
            )
            ready_at = time.monotonic() + delay
            pending.append((shard, attempt + 1, ready_at))
            return
        health.exhaustions += 1
        if health.exhaustions >= self.quarantine_after:
            health.quarantined = True
            self._m_quarantines.inc()
            self.obs.tracer.event("quarantine", shard=sid)
            self.obs.log.error(
                "pool.quarantine",
                shard=sid,
                failures=health.failures,
                error=str(error),
            )
        else:
            self.obs.log.error(
                "pool.shard-exhausted", shard=sid, attempt=attempt, error=str(error)
            )
        outcome.failed[sid] = error

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Supervision counters for the ``stats`` server verb."""
        return {
            "pool": "healthy" if self._healthy else "unhealthy",
            "quarantined shards": len(self.quarantined),
            "sweep attempts": self.attempts_total,
            "worker processes": self.processes_total,
            "sweep retries": self.retries_total,
            "sweep timeouts": self.timeouts_total,
            "worker deaths": self.worker_deaths_total,
        }
