"""Crash-safe live-index lifecycle: WAL-backed streaming ingest.

The paper's accelerator reloads its database between queries; PR 5
carried that to the serving tier as the :class:`IndexManager`
generation swap.  This module closes the remaining gap — *growing* the
database while serving, surviving the process dying at any instant:

1. **Journal.**  Every ingested record is appended to a write-ahead
   journal segment first: a length-prefixed, CRC-checksummed record,
   fsynced before the ingest is acknowledged.  An ack therefore means
   the bytes are durable — nothing acknowledged can be lost short of
   the disk itself lying.
2. **Seal.**  Once a segment holds ``seal_every`` records it is
   sealed (renamed ``.log`` → ``.sealed``) and a fresh active segment
   starts.  Sealed segments are immutable.
3. **Compact.**  A sealed segment's records are compacted into one
   *delta shard* — a normal format-v2 ``.npz`` index with its own
   sha256 shard digest — published with the full atomic-write
   discipline (temp → fsync → rename → dir fsync).
4. **Publish.**  The ingest manifest (the list of live deltas) is
   atomically replaced, the retired segment deleted, and the combined
   base+deltas index swapped live via :meth:`IndexManager.reload` —
   in-flight sweeps finish on their generation, new requests see the
   new one, stale cache generations are purged.

**Recovery** replays the directory after a crash: leftover temp files
are discarded, the active segment's torn tail (a record whose length
prefix, payload, or CRC is incomplete) is truncated away, sealed-but-
uncompacted segments are compacted exactly as the crashed process
would have, and every manifest delta is loaded with its digest
checked — a delta whose content no longer matches is *quarantined*
through the existing degraded-coverage machinery (the server answers
with partial coverage) instead of crashing or serving garbage.

Every filesystem step crosses a labeled :class:`FaultFS` barrier, so
the chaos suite (``repro.service.chaos.run_ingest_chaos``) can kill
the process at each one and assert the lifecycle invariant: recovery
always lands on a consistent generation serving exactly the
acknowledged records, never a torn shard, with rankings bit-identical
to a fault-free run.

When the disk itself fails (ENOSPC / EIO), the service degrades to
**read-only**: ingests are refused with :class:`IngestReadOnly`
(wire code ``read-only``) while the live index keeps answering
searches untouched.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..align.scoring import decode, encode
from ..obs import NULL_OBS, Observability
from .guard import IndexManager
from .index import DatabaseIndex, IndexFormatError, Shard
from .resilience import CrashPoint, FaultFS, IndexCorrupt, ServiceError

__all__ = [
    "INGEST_FORMAT",
    "IngestError",
    "IngestReadOnly",
    "Journal",
    "JournalReplay",
    "IngestService",
    "combine_indexes",
]

#: Ingest directory format version (stamped into the manifest).
INGEST_FORMAT = 1

_WAL_MAGIC = b"repro-wal\x01"
#: Per-record header: payload byte length + CRC32 of the payload.
_REC_HEADER = struct.Struct(">II")
_MANIFEST_MAGIC = "repro-ingest"
_MANIFEST_NAME = "MANIFEST.json"


class IngestError(ServiceError):
    """The ingest directory's on-disk state is structurally invalid."""

    code = "ingest-failed"


class IngestReadOnly(ServiceError):
    """Ingest is suspended (disk failing); searches keep serving."""

    code = "read-only"


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
class JournalReplay:
    """Result of replaying one journal segment.

    ``records`` are the complete, checksum-verified entries;
    ``good_bytes`` is the byte length of the valid prefix; ``torn`` is
    True when trailing bytes past that prefix had to be discarded (a
    record whose header, payload, or CRC the crash cut short).
    """

    def __init__(self, records: list[tuple[str, str]], good_bytes: int, torn: bool) -> None:
        self.records = records
        self.good_bytes = good_bytes
        self.torn = torn


class Journal:
    """One append-only WAL segment of ingested records.

    Record framing mirrors the network protocol's length-prefix
    discipline, plus a CRC32 so a torn tail is *detected*, never
    guessed at::

        +---------+---------+----------------------+
        | len: >I | crc: >I |  JSON payload (UTF-8) |
        +---------+---------+----------------------+

    Appends go through :class:`FaultFS` barriers ``journal.append``
    and ``journal.sync``; :meth:`append` returns only after the fsync,
    so its return *is* the durability acknowledgement.
    """

    def __init__(self, path: str | Path, fs: FaultFS) -> None:
        self.path = Path(path)
        self.fs = fs
        self.count = 0
        if not self.path.exists():
            written = fs.append(self.path, _WAL_MAGIC, "journal.create")
            if written < len(_WAL_MAGIC):
                raise _short_write("journal.create", written, len(_WAL_MAGIC))
            fs.fsync(self.path, "journal.create-sync")
        else:
            self.count = len(self.replay(self.path).records)

    def append(self, name: str, sequence: str) -> int:
        """Durably append one record; returns its segment-local index.

        Raises ``OSError`` on disk failure (including a short write,
        which leaves a torn-but-detectable tail for recovery to cut).
        """
        payload = json.dumps(
            {"name": name, "sequence": sequence}, separators=(",", ":")
        ).encode("utf-8")
        frame = _REC_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        written = self.fs.append(self.path, frame, "journal.append")
        if written < len(frame):
            raise _short_write("journal.append", written, len(frame))
        self.fs.fsync(self.path, "journal.sync")
        self.count += 1
        return self.count - 1

    @staticmethod
    def replay(path: str | Path) -> JournalReplay:
        """Replay a segment, stopping at the first torn record.

        Never raises on a damaged tail — a crash can legitimately cut
        a record anywhere — but a file too short to hold the magic, or
        holding the wrong magic, is :class:`IngestError`: that is not
        a torn append, it is not a journal.
        """
        data = Path(path).read_bytes()
        if len(data) < len(_WAL_MAGIC):
            if _WAL_MAGIC.startswith(data):
                # Crash mid-create: a torn prefix of the magic itself.
                # good_bytes=0 tells recovery to recreate the segment.
                return JournalReplay([], 0, True)
            raise IngestError(f"{path}: not a repro WAL segment")
        if not data.startswith(_WAL_MAGIC):
            raise IngestError(f"{path}: not a repro WAL segment")
        if len(data) == len(_WAL_MAGIC):
            return JournalReplay([], len(data), False)
        records: list[tuple[str, str]] = []
        offset = len(_WAL_MAGIC)
        while offset < len(data):
            header = data[offset : offset + _REC_HEADER.size]
            if len(header) < _REC_HEADER.size:
                return JournalReplay(records, offset, True)
            length, crc = _REC_HEADER.unpack(header)
            body = data[offset + _REC_HEADER.size : offset + _REC_HEADER.size + length]
            if len(body) < length or zlib.crc32(body) != crc:
                return JournalReplay(records, offset, True)
            try:
                entry = json.loads(body.decode("utf-8"))
                records.append((str(entry["name"]), str(entry["sequence"])))
            except (UnicodeDecodeError, ValueError, KeyError, TypeError):
                # CRC matched but content is garbage: treat as torn at
                # this record — nothing past a bad record is trusted.
                return JournalReplay(records, offset, True)
            offset += _REC_HEADER.size + length
        return JournalReplay(records, offset, False)


def _short_write(label: str, written: int, wanted: int) -> OSError:
    import errno

    return OSError(
        errno.ENOSPC, f"short write at {label}: {written} of {wanted} bytes"
    )


# ----------------------------------------------------------------------
# Index combination (base + delta shards)
# ----------------------------------------------------------------------
def combine_indexes(
    parts: Sequence[DatabaseIndex], source: str | None = None
) -> DatabaseIndex:
    """One index over ``parts`` in order: base first, then each delta.

    Shard ids and record starts are re-based so the combined index has
    the exact record numbering an index built from the concatenated
    records would — which is what makes combined rankings bit-identical
    to a from-scratch rebuild (ranking ties break on global record
    index).  Quarantined shards stay quarantined under their new ids.
    """
    if not parts:
        raise ValueError("combine_indexes needs at least one part")
    shards: list[Shard] = []
    degraded: list[int] = []
    record_offset = 0
    digest = hashlib.sha256()
    for part in parts:
        id_offset = len(shards)
        bad = set(part.degraded)
        for shard in part.shards:
            new_id = id_offset + shard.shard_id
            shards.append(
                replace(shard, shard_id=new_id, start=record_offset + shard.start)
            )
            if shard.shard_id in bad:
                degraded.append(new_id)
        record_offset += part.record_count
        digest.update(part.version.encode("ascii"))
        digest.update(b"\x00")
    if len(parts) == 1:
        return parts[0]
    return DatabaseIndex(
        shards,
        version=digest.hexdigest(),
        source=source or f"{parts[0].source}+{len(parts) - 1} deltas",
        degraded=degraded,
    )


# ----------------------------------------------------------------------
# The lifecycle
# ----------------------------------------------------------------------
class IngestService:
    """Crash-safe streaming ingest bolted onto an :class:`IndexManager`.

    On construction the service *recovers* the ingest directory (see
    the module docstring), takes over the manager's loader so every
    reload serves base + live deltas, and swaps the recovered state
    live.  ``manager``'s pre-existing loader (or, failing that, its
    current index) becomes the immutable base.

    All public methods are thread-safe; the lifecycle itself is
    serialized by one lock, so a seal/compact/publish cycle is atomic
    with respect to concurrent ingests.
    """

    def __init__(
        self,
        manager: IndexManager,
        directory: str | Path,
        *,
        base_loader: Callable[[], DatabaseIndex] | None = None,
        seal_every: int = 64,
        fs: FaultFS | None = None,
        obs: Observability | None = None,
    ) -> None:
        if seal_every < 1:
            raise ValueError(f"seal_every must be positive, got {seal_every}")
        self.manager = manager
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.seal_every = seal_every
        self.fs = fs if fs is not None else FaultFS()
        self.obs = obs if obs is not None else NULL_OBS
        self.read_only = False
        self.read_only_reason: str | None = None
        self.acked = 0  # records acknowledged this process lifetime
        self.recovered_records = 0
        self.recovery_seconds = 0.0
        self._lock = threading.Lock()
        self._deltas: list[dict] = []
        self._next_segment = 1
        self._journal: Journal | None = None
        if base_loader is not None:
            self._base_loader = base_loader
        elif manager.loader is not None:
            self._base_loader = manager.loader
        else:
            base_index = manager.current()[0]
            self._base_loader = lambda: base_index
        registry = self.obs.registry
        self._m_ingested = registry.counter(
            "ingest_records_total", "Records durably acknowledged by ingest"
        )
        self._m_seals = registry.counter(
            "ingest_seals_total", "Journal segments sealed and compacted"
        )
        self._m_quarantined = registry.counter(
            "ingest_deltas_quarantined_total",
            "Delta shards refused at load for digest mismatch",
        )
        self._g_read_only = registry.gauge(
            "ingest_read_only", "1 when ingest is suspended on disk failure"
        )
        self._g_pending = registry.gauge(
            "ingest_pending_records", "Journal records not yet compacted"
        )
        self._g_recovery = registry.gauge(
            "ingest_recovery_seconds", "Wall time of the last startup recovery"
        )
        self.recover()

    # -- paths ----------------------------------------------------------
    def _segment_path(self, segment: int, sealed: bool = False) -> Path:
        suffix = "sealed" if sealed else "log"
        return self.directory / f"wal-{segment:010d}.{suffix}"

    def _delta_path(self, segment: int) -> Path:
        return self.directory / f"delta-{segment:010d}.npz"

    @property
    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    # -- recovery -------------------------------------------------------
    def recover(self) -> None:
        """Replay the directory into a consistent, served state."""
        started = time.perf_counter()
        with self._lock:
            for tmp in self.directory.glob("*.tmp"):
                tmp.unlink(missing_ok=True)
            self._deltas, compacted = self._read_manifest()
            # Retire any segment the manifest already covers (crash
            # landed between manifest publish and segment removal).
            pending: list[tuple[int, Path]] = []
            active: list[tuple[int, Path]] = []
            for path in sorted(self.directory.glob("wal-*")):
                segment = int(path.stem.split("-")[1])
                if segment in compacted:
                    self.fs.remove(path, "segment.retire")
                elif path.suffix == ".sealed":
                    pending.append((segment, path))
                else:
                    active.append((segment, path))
            if len(active) > 1:
                raise IngestError(
                    f"{self.directory}: {len(active)} active journal segments"
                )
            # Compact sealed segments the crashed process never finished.
            for segment, path in sorted(pending):
                replayed = Journal.replay(path)
                if replayed.torn:
                    # Sealing happens strictly after every record of the
                    # segment was fsynced; a torn sealed segment means
                    # the disk dropped acknowledged bytes.  Cut the tail
                    # and serve what survived rather than refusing all.
                    if replayed.good_bytes >= len(_WAL_MAGIC):
                        self.fs.truncate(path, replayed.good_bytes)
                    self.obs.log.warning(
                        "ingest.sealed-segment-torn",
                        segment=segment,
                        kept=len(replayed.records),
                    )
                self._compact(segment, path, replayed.records)
            # Repair the active segment's torn tail and adopt it.
            highest = max(
                [seg for seg, _ in active]
                + [entry["segment"] for entry in self._deltas]
                + [0]
            )
            if active:
                segment, path = active[0]
                replayed = Journal.replay(path)
                if replayed.torn:
                    if replayed.good_bytes >= len(_WAL_MAGIC):
                        self.fs.truncate(path, replayed.good_bytes)
                    else:
                        # Crash mid-create: nothing durable yet, start over.
                        path.unlink(missing_ok=True)
                    self.obs.log.warning(
                        "ingest.torn-tail-truncated",
                        segment=segment,
                        good_bytes=replayed.good_bytes,
                        kept=len(replayed.records),
                    )
                self._journal = Journal(path, self.fs)
                self._next_segment = segment
                self.recovered_records = len(replayed.records)
            else:
                self._next_segment = highest + 1
                self._journal = Journal(
                    self._segment_path(self._next_segment), self.fs
                )
                self.recovered_records = 0
            # Land on a consistent generation: base + every live delta.
            # Acknowledged records recovered from the active journal are
            # compacted right now — an ack means *served after restart*,
            # not "served once enough traffic arrives to trip a seal".
            self.manager.loader = self._load_combined
            if self._journal.count:
                try:
                    self._seal_locked()
                except OSError as exc:
                    # Disk still failing at restart: serve what loads,
                    # keep the journal intact, refuse further ingests.
                    self._enter_read_only(exc)
            self.manager.reload()
            self._g_pending.set(self._journal.count)
        self.recovery_seconds = time.perf_counter() - started
        self._g_recovery.set(self.recovery_seconds)
        self.obs.log.info(
            "ingest.recovered",
            deltas=len(self._deltas),
            journal_records=self._journal.count,
            seconds=round(self.recovery_seconds, 6),
        )

    def _read_manifest(self) -> tuple[list[dict], set[int]]:
        path = self._manifest_path
        if not path.exists():
            return [], set()
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise IngestError(f"{path}: unreadable ingest manifest ({exc})") from None
        if manifest.get("magic") != _MANIFEST_MAGIC:
            raise IngestError(f"{path}: not a repro ingest manifest")
        deltas = [
            {
                "segment": int(entry["segment"]),
                "file": str(entry["file"]),
                "records": int(entry["records"]),
            }
            for entry in manifest.get("deltas", [])
        ]
        return deltas, {entry["segment"] for entry in deltas}

    def _write_manifest(self) -> None:
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "format": INGEST_FORMAT,
            "deltas": self._deltas,
        }
        self.fs.publish(
            self._manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
            "manifest",
        )

    # -- serving view ---------------------------------------------------
    def _load_combined(self) -> DatabaseIndex:
        parts = [self._base_loader()]
        for entry in list(self._deltas):
            path = self.directory / entry["file"]
            try:
                delta = DatabaseIndex.load(path, on_corrupt="quarantine", obs=self.obs)
            except (IndexFormatError, IndexCorrupt, OSError) as exc:
                # The delta file itself is unreadable (digest-failing
                # content, truncated npz, vanished file).  Refuse to
                # serve it — a placeholder of fully quarantined shards
                # keeps record numbering and surfaces partial coverage
                # through the existing degraded machinery.
                self._m_quarantined.inc()
                self.obs.log.error(
                    "ingest.delta-quarantined", file=entry["file"], error=str(exc)
                )
                delta = _quarantined_placeholder(entry)
            parts.append(delta)
        return combine_indexes(parts)

    # -- the write path -------------------------------------------------
    def ingest(self, name: str, sequence: str) -> dict[str, object]:
        """Durably accept one record; seal/compact/publish when due.

        Returns an ack payload (segment, segment-local sequence,
        pending count, live generation).  Raises
        :class:`IngestReadOnly` once the disk has failed, and
        ``ValueError`` (→ ``bad-request``) on malformed input.
        """
        if not name or "\n" in name:
            raise ValueError(f"record name must be newline-free and non-empty: {name!r}")
        if not sequence:
            raise ValueError("record sequence must be non-empty")
        try:
            decode(encode(sequence))
        except (ValueError, UnicodeEncodeError):
            raise ValueError(f"sequence is not ASCII: {sequence[:40]!r}") from None
        with self._lock:
            self._check_writable()
            try:
                seq = self._journal.append(name, sequence)
                published = None
                if self._journal.count >= self.seal_every:
                    published = self._seal_locked()
            except OSError as exc:
                self._enter_read_only(exc)
                raise IngestReadOnly(
                    f"ingest suspended: {self.read_only_reason}"
                ) from None
            self.acked += 1
            self._m_ingested.inc()
            self._g_pending.set(self._journal.count)
            return {
                "segment": self._next_segment if published is None else published,
                "seq": seq,
                "pending": self._journal.count,
                "generation": self.manager.generation,
            }

    def seal(self) -> int | None:
        """Force-seal the active segment (flush without waiting for
        ``seal_every``); returns the sealed segment id, or None when
        the journal holds nothing."""
        with self._lock:
            self._check_writable()
            try:
                sealed = self._seal_locked()
            except OSError as exc:
                self._enter_read_only(exc)
                raise IngestReadOnly(
                    f"ingest suspended: {self.read_only_reason}"
                ) from None
            self._g_pending.set(self._journal.count)
            return sealed

    def _seal_locked(self) -> int | None:
        if self._journal.count == 0:
            return None
        segment = self._next_segment
        active = self._segment_path(segment)
        sealed = self._segment_path(segment, sealed=True)
        # Seal: rename is the commit point; every record in the file is
        # already fsynced, so the sealed segment is complete by
        # construction.
        self.fs.replace(active, sealed, "seal.rename")
        self.fs.fsync_dir(self.directory, "seal.dirsync")
        # New active segment *before* compaction: if compaction crashes,
        # recovery finds a sealed segment plus an empty active one.
        self._next_segment = segment + 1
        self._journal = Journal(self._segment_path(self._next_segment), self.fs)
        records = Journal.replay(sealed).records
        self._compact(segment, sealed, records)
        self.manager.reload()
        return segment

    def _compact(self, segment: int, sealed_path: Path, records: list[tuple[str, str]]) -> None:
        """Sealed segment → delta shard → manifest → retire segment."""
        if records:
            delta_path = self._delta_path(segment)
            index = DatabaseIndex.build(
                records, shards=1, source=f"delta-{segment:010d}"
            )
            self.fs.publish(delta_path, index.to_bytes(), "delta")
            self._deltas.append(
                {
                    "segment": segment,
                    "file": delta_path.name,
                    "records": len(records),
                }
            )
            self._write_manifest()
        self.fs.remove(sealed_path, "segment.retire")
        self._m_seals.inc()
        self.obs.log.info(
            "ingest.compacted", segment=segment, records=len(records)
        )

    # -- read-only degradation -----------------------------------------
    def _check_writable(self) -> None:
        if self.read_only:
            raise IngestReadOnly(f"ingest suspended: {self.read_only_reason}")

    def _enter_read_only(self, exc: OSError) -> None:
        self.read_only = True
        self.read_only_reason = str(exc)
        self._g_read_only.set(1)
        self.obs.log.error("ingest.read-only", error=str(exc))

    def resume(self) -> None:
        """Clear read-only after the operator fixed the disk."""
        with self._lock:
            self.read_only = False
            self.read_only_reason = None
            self._g_read_only.set(0)
            self.obs.log.info("ingest.resumed")

    # -- introspection --------------------------------------------------
    @property
    def pending(self) -> int:
        """Acknowledged records not yet compacted into a delta."""
        journal = self._journal
        return journal.count if journal is not None else 0

    def served_names(self) -> Iterator[str]:
        """Names of every record the live generation serves."""
        index = self.manager.current()[0]
        for shard in index.active_shards:
            yield from shard.names

    def describe(self) -> dict[str, object]:
        return {
            "directory": str(self.directory),
            "read_only": self.read_only,
            "read_only_reason": self.read_only_reason,
            "acked": self.acked,
            "pending": self.pending,
            "deltas": len(self._deltas),
            "delta_records": sum(e["records"] for e in self._deltas),
            "seal_every": self.seal_every,
            "recovery_seconds": round(self.recovery_seconds, 6),
        }


def _quarantined_placeholder(entry: dict) -> DatabaseIndex:
    """A stand-in for an unreadable delta: right record count, every
    shard quarantined, so numbering holds and coverage reports the
    loss."""
    count = int(entry["records"])
    names = tuple(f"<lost:{entry['file']}:{k}>" for k in range(count))
    shard = Shard(
        shard_id=0,
        start=0,
        names=names,
        offsets=np.zeros(count + 1, dtype=np.int64),
        payload=np.zeros(0, dtype=np.uint8),
    )
    return DatabaseIndex(
        [shard],
        version=f"lost-{entry['file']}",
        source=f"<quarantined {entry['file']}>",
        degraded=[0],
    )
