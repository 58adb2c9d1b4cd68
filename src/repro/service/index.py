"""Persistent sharded database index for the search service.

The one-shot scanner (:func:`repro.scan.scan_database`) re-parses and
re-encodes the FASTA database on every call.  The database-search
engines the related work builds on the same kernel (SWAPHI's
multi-pass database search, ALAE's index-accelerated local alignment)
all preprocess the database once into a persistent structure and sweep
that; this module is the equivalent here.

A :class:`DatabaseIndex` holds the database as fixed-size **shards**:
contiguous runs of records whose sequences are pre-encoded into one
``uint8`` payload per shard (structure-of-arrays, so a shard ships to
a worker process as three flat buffers instead of thousands of Python
strings).  The index carries a **content-hash version stamp** computed
over record names and sequence bytes; the result cache keys on it, so
a rebuilt index over changed data can never serve stale rankings.

Shards default to ~256 KBP of sequence, small enough that a pool maps
them across cores with good load balance and large enough that the
per-task overhead vanishes against the O(m·n) sweep.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..align.scoring import decode, encode
from ..io.atomic import atomic_write
from ..io.fasta import FastaRecord, stream_fasta
from ..parallel.sharding import even_spans

__all__ = [
    "DEFAULT_SHARD_BP",
    "INDEX_FORMAT",
    "IndexFormatError",
    "Shard",
    "DatabaseIndex",
]

#: Target encoded sequence bytes per shard.
DEFAULT_SHARD_BP = 256 * 1024

#: On-disk format revision; bumped whenever the layout changes so a
#: stale file loads as an explicit error instead of garbage.
#: Revision 2 added per-shard content hashes (``shard_hashes``) so a
#: corrupted shard is detected at load time instead of silently
#: ranking against garbage.
INDEX_FORMAT = 2

_MAGIC = "repro-index"


class IndexFormatError(ValueError):
    """The file is not a readable index of the current format."""


def _shard_digest(shard: "Shard") -> str:
    """Content hash of one shard (names + record boundaries + payload)."""
    digest = hashlib.sha256()
    digest.update("\n".join(shard.names).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(shard.offsets, dtype=np.int64).tobytes())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(shard.payload, dtype=np.uint8).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Shard:
    """One contiguous run of pre-encoded database records.

    ``offsets[k]:offsets[k+1]`` delimits record ``k``'s encoded
    sequence inside ``payload``; ``start`` is the global index of the
    shard's first record, which is what lets per-shard results merge
    back into database order (the repo-wide tie-break).
    """

    shard_id: int
    start: int
    names: tuple[str, ...]
    offsets: np.ndarray
    payload: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    @property
    def bp(self) -> int:
        """Total encoded sequence length of the shard."""
        return int(self.offsets[-1])

    def record(self, k: int) -> tuple[str, np.ndarray]:
        """Name and encoded sequence of local record ``k`` (a view)."""
        return self.names[k], self.payload[int(self.offsets[k]) : int(self.offsets[k + 1])]

    def iter_records(self) -> Iterator[tuple[int, str, np.ndarray]]:
        """Yield ``(global_index, name, codes)`` for every record."""
        for k in range(len(self.names)):
            name, codes = self.record(k)
            yield self.start + k, name, codes


def _coerce(rec: FastaRecord | tuple[str, str] | str) -> tuple[str, str]:
    """The same record coercion :func:`repro.scan.scan_database` uses."""
    if isinstance(rec, FastaRecord):
        return rec.identifier, rec.sequence
    if isinstance(rec, tuple):
        return rec
    return "", rec


class DatabaseIndex:
    """Sharded, pre-encoded view of a sequence database.

    Build once with :meth:`build` / :meth:`from_fasta`, persist with
    :meth:`save` / :meth:`load`, and hand to a
    :class:`~repro.service.engine.SearchEngine`.  Record order — and
    therefore ranking tie-breaks — is exactly the input order.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        version: str,
        source: str = "<records>",
        degraded: Sequence[int] = (),
    ) -> None:
        self.shards = list(shards)
        self.version = version
        self.source = source
        #: Shard ids quarantined at load time (content-hash mismatch).
        #: Degraded shards keep their slot — record numbering and
        #: ranking tie-breaks are unchanged — but are excluded from
        #: sweeps, so responses over this index report partial coverage.
        self.degraded = tuple(sorted(set(degraded)))
        # Cumulative record starts for global-index lookup.
        self._starts = [shard.start for shard in self.shards]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        records: Iterable[FastaRecord] | Iterable[tuple[str, str]] | Sequence[str],
        shard_bp: int = DEFAULT_SHARD_BP,
        shards: int | None = None,
        source: str = "<records>",
    ) -> "DatabaseIndex":
        """Encode ``records`` into an index.

        ``shard_bp`` bounds encoded bytes per shard (the default keeps
        per-task pickling cheap).  ``shards``, when given, overrides it
        and splits the records into exactly that many near-even spans
        (by record count) — useful for benchmarks that want one shard
        per worker.
        """
        if shard_bp < 1:
            raise ValueError(f"shard_bp must be positive, got {shard_bp}")
        names: list[str] = []
        codes: list[np.ndarray] = []
        digest = hashlib.sha256()
        for rec in records:
            name, seq = _coerce(rec)
            if "\n" in name:
                raise ValueError(f"record name may not contain newlines: {name!r}")
            encoded = encode(seq)
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(encoded.tobytes())
            digest.update(b"\x01")
            names.append(name)
            codes.append(encoded)

        if shards is not None:
            if shards < 1:
                raise ValueError(f"need at least one shard, got {shards}")
            spans = even_spans(len(names), shards)
        else:
            spans = []
            lo = 0
            bp = 0
            for k, c in enumerate(codes):
                if bp >= shard_bp and k > lo:
                    spans.append((lo, k))
                    lo, bp = k, 0
                bp += len(c)
            spans.append((lo, len(names)))

        built: list[Shard] = []
        for shard_id, (lo, hi) in enumerate(spans):
            lengths = [len(c) for c in codes[lo:hi]]
            offsets = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            payload = (
                np.concatenate(codes[lo:hi])
                if hi > lo
                else np.zeros(0, dtype=np.uint8)
            )
            built.append(
                Shard(
                    shard_id=shard_id,
                    start=lo,
                    names=tuple(names[lo:hi]),
                    offsets=offsets,
                    payload=payload,
                )
            )
        return cls(built, version=digest.hexdigest(), source=source)

    @classmethod
    def from_fasta(
        cls,
        path: str | Path,
        shard_bp: int = DEFAULT_SHARD_BP,
        shards: int | None = None,
        alphabet: str | None = None,
    ) -> "DatabaseIndex":
        """Build an index by streaming a FASTA file record by record."""
        return cls.build(
            stream_fasta(path, alphabet), shard_bp=shard_bp, shards=shards, source=str(path)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def total_bp(self) -> int:
        return sum(shard.bp for shard in self.shards)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def active_shards(self) -> list[Shard]:
        """Shards eligible for sweeping (quarantined ones excluded)."""
        if not self.degraded:
            return self.shards
        excluded = set(self.degraded)
        return [shard for shard in self.shards if shard.shard_id not in excluded]

    def cells(self, query_length: int) -> int:
        """Matrix cells one full sweep of ``query_length`` bp costs."""
        return query_length * self.total_bp

    def record(self, global_index: int) -> tuple[str, np.ndarray]:
        """Name and encoded sequence of the record at ``global_index``."""
        if not 0 <= global_index < self.record_count:
            raise IndexError(f"record {global_index} out of range")
        # Rightmost shard whose start <= global_index.
        lo, hi = 0, len(self._starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= global_index:
                lo = mid
            else:
                hi = mid - 1
        shard = self.shards[lo]
        return shard.record(global_index - shard.start)

    def sequence(self, global_index: int) -> str:
        """Decoded sequence text (for alignment retrieval)."""
        return decode(self.record(global_index)[1])

    def iter_records(self) -> Iterator[tuple[int, str, np.ndarray]]:
        for shard in self.shards:
            yield from shard.iter_records()

    def describe(self) -> dict[str, object]:
        """Summary stats for reports and the ``serve`` stats verb."""
        info: dict[str, object] = {
            "source": self.source,
            "version": self.version[:12],
            "records": self.record_count,
            "shards": self.shard_count,
            "total bp": self.total_bp,
        }
        if self.degraded:
            info["degraded shards"] = ",".join(str(s) for s in self.degraded)
        return info

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the index as a single ``.npz`` file (no pickling)."""
        # Crash-safe replacement: a process dying mid-save must never
        # leave a torn index where a complete one used to be.
        atomic_write(path, self.to_bytes())

    def to_bytes(self) -> bytes:
        """The exact ``.npz`` bytes :meth:`save` writes, built in memory."""
        meta = json.dumps(
            {
                "magic": _MAGIC,
                "format": INDEX_FORMAT,
                "version": self.version,
                "source": self.source,
            }
        )
        lengths = np.concatenate(
            [np.diff(shard.offsets) for shard in self.shards]
        ) if self.shards else np.zeros(0, dtype=np.int64)
        shard_counts = np.array([len(shard) for shard in self.shards], dtype=np.int64)
        payload = (
            np.concatenate([shard.payload for shard in self.shards])
            if self.shards
            else np.zeros(0, dtype=np.uint8)
        )
        names_blob = np.frombuffer(
            "\n".join(name for shard in self.shards for name in shard.names).encode("utf-8"),
            dtype=np.uint8,
        )
        shard_hashes = np.frombuffer(
            "\n".join(_shard_digest(shard) for shard in self.shards).encode("ascii"),
            dtype=np.uint8,
        )
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
            names_blob=names_blob,
            record_lengths=lengths.astype(np.int64),
            shard_counts=shard_counts,
            shard_hashes=shard_hashes,
            payload=payload,
        )
        return buffer.getvalue()

    @classmethod
    def load(
        cls, path: str | Path, on_corrupt: str = "raise", obs=None
    ) -> "DatabaseIndex":
        """Read an index written by :meth:`save`.

        ``obs`` is an optional :class:`~repro.obs.Observability`
        bundle; when given, the load reports its wall time and shard
        health (``index_load_seconds``, ``index_shards``,
        ``index_degraded_shards`` gauges) and logs one line per
        quarantined shard — the previously silent path an operator
        most needs to see.

        Raises :class:`IndexFormatError` when the file is not an index
        or was written by a different format revision — callers should
        rebuild from FASTA in that case.  Truncated or garbage input
        of any flavor surfaces as :class:`IndexFormatError` too, never
        as a raw NumPy/zipfile exception.

        Each shard's stored content hash is re-verified against its
        bytes.  A mismatch — bit rot, a torn write, a tampered file —
        raises :class:`~repro.service.resilience.IndexCorrupt` when
        ``on_corrupt="raise"`` (the default); with
        ``on_corrupt="quarantine"`` the damaged shards load as
        **degraded** instead: they keep their record slots (numbering
        and tie-breaks are unchanged) but are excluded from sweeps, so
        the service keeps answering with explicit partial coverage.
        """
        from ..obs import NULL_OBS
        from .resilience import IndexCorrupt

        if obs is None:
            obs = NULL_OBS
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'quarantine', got {on_corrupt!r}"
            )
        t_load = time.perf_counter()
        try:
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
        except IndexFormatError:
            raise
        except Exception as exc:
            # np.load on bad input raises a zoo of types (OSError,
            # ValueError, zipfile.BadZipFile, EOFError, pickle errors);
            # all of them mean the same thing here.
            raise IndexFormatError(f"{path}: not a readable index ({exc})") from exc
        try:
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexFormatError(f"{path}: missing or corrupt index metadata") from exc
        if meta.get("magic") != _MAGIC:
            raise IndexFormatError(f"{path}: not a {_MAGIC} file")
        if meta.get("format") != INDEX_FORMAT:
            raise IndexFormatError(
                f"{path}: index format {meta.get('format')} != supported {INDEX_FORMAT}; rebuild"
            )
        try:
            lengths = arrays["record_lengths"].astype(np.int64)
            shard_counts = [int(c) for c in arrays["shard_counts"]]
            payload = arrays["payload"].astype(np.uint8)
            names_blob = bytes(arrays["names_blob"]).decode("utf-8")
            hash_blob = bytes(arrays["shard_hashes"]).decode("ascii")
            version = meta["version"]
        except (KeyError, UnicodeDecodeError, ValueError) as exc:
            raise IndexFormatError(f"{path}: missing or corrupt index arrays") from exc
        if sum(shard_counts) != len(lengths):
            raise IndexFormatError(f"{path}: shard record counts disagree with records")
        names = names_blob.split("\n") if len(lengths) else []
        if len(names) != len(lengths):
            raise IndexFormatError(f"{path}: name table disagrees with records")
        expected_hashes = hash_blob.split("\n") if shard_counts else []
        if len(expected_hashes) != len(shard_counts):
            raise IndexFormatError(f"{path}: shard hash table disagrees with shards")

        shards: list[Shard] = []
        degraded: list[int] = []
        rec = 0
        byte = 0
        for shard_id, count in enumerate(shard_counts):
            shard_lengths = lengths[rec : rec + count]
            offsets = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(shard_lengths, out=offsets[1:])
            bp = int(offsets[-1])
            shard = Shard(
                shard_id=shard_id,
                start=rec,
                names=tuple(names[rec : rec + count]),
                offsets=offsets,
                payload=payload[byte : byte + bp],
            )
            if _shard_digest(shard) != expected_hashes[shard_id]:
                if on_corrupt == "raise":
                    raise IndexCorrupt(
                        f"{path}: shard {shard_id} content hash mismatch "
                        "(corrupt file; rebuild the index or load with "
                        "on_corrupt='quarantine')"
                    )
                degraded.append(shard_id)
                obs.log.warning(
                    "index.shard-quarantined", path=str(path), shard=shard_id
                )
            shards.append(shard)
            rec += count
            byte += bp
        if byte != len(payload):
            raise IndexFormatError(f"{path}: payload size disagrees with record lengths")
        index = cls(
            shards,
            version=version,
            source=meta.get("source", str(path)),
            degraded=degraded,
        )
        load_seconds = time.perf_counter() - t_load
        registry = obs.registry
        registry.gauge("index_load_seconds", "Wall time of the last index load").set(
            load_seconds
        )
        registry.gauge("index_shards", "Shards in the loaded index").set(
            index.shard_count
        )
        registry.gauge(
            "index_degraded_shards", "Shards quarantined at index load"
        ).set(len(degraded))
        obs.log.info(
            "index.loaded",
            path=str(path),
            records=index.record_count,
            shards=index.shard_count,
            degraded=len(degraded),
            seconds=round(load_seconds, 4),
        )
        return index

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DatabaseIndex({self.source!r}, records={self.record_count}, "
            f"shards={self.shard_count}, bp={self.total_bp}, version={self.version[:12]})"
        )
