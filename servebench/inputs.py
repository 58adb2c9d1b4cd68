"""Seeded inputs for the serving-path benchmark.

Everything the server sees is generated here from one integer seed:
the database FASTA, the query streams and the records the ingest
writer streams in.  The same seed gives byte-identical inputs, and
``digest`` hashes them so a run can prove which inputs it measured.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

ALPHABET = "ACGT"

#: Bases per query.  Every query of a workload has this length, so the
#: sweep work per request is uniform and percentiles sit in one mode.
QUERY_BP = 96
#: Database records, each ``RECORD_BP`` random bases followed by one
#: planted near-copy of a query, so rankings have strong top hits as
#: well as the random background.  Every hot query is planted in
#: ``HOT_COPIES`` records, the rest hold the first cold queries (every
#: ``PLANT_EVERY``-th).  A hot request's top hits are then its planted
#: copies, all at the same place in records of the same size, so every
#: hot request does the same retrieval work.  Equal record sizes also
#: make the shard layout the same for every seed: ``SHARD_BP`` packs
#: them into four shards, two per worker.
RECORDS = 48
RECORD_BP = 1000
SHARD_BP = 13000
PLANT_EVERY = 4
#: Distinct queries of the hot-retrieve pool (all warmed into the cache),
#: and the planted copies of each (hot-retrieve asks for that many).
HOT_QUERIES = 8
HOT_COPIES = 3
#: Cold queries are made on demand, query ``k`` from its own generator,
#: so the stream never runs out however fast the server answers; the
#: digest covers the first ``DIGESTED_COLD`` of them.
DIGESTED_COLD = 256
WARMUP_QUERIES = 4
#: Ingest: short records, so the database grows by well under a quarter
#: over a run; ``PRELOAD`` of them sit in the journal before the server
#: starts, so set-up includes journal recovery.  Every ingested record
#: ends in the seed's ``TAG_BP``-base tag, so one cheap probe search
#: (the tag, ``min_score`` = its length) returns every ingested record.
INGEST_BP = 48
TAG_BP = 16
INGEST_RECORDS = 1024
PRELOAD = 16


def _dna(rng: np.random.Generator, length: int) -> str:
    return "".join(ALPHABET[c] for c in rng.integers(0, 4, length))


def _query(seed: int, stream: int, k: int) -> str:
    return _dna(np.random.default_rng([0x5E7E, seed, stream, k]), QUERY_BP)


def _near_copy(rng: np.random.Generator, seq: str, rate: float = 0.08) -> str:
    """Substitutions at ``rate`` plus one short indel: a planted homolog."""
    out = list(seq)
    for pos in np.flatnonzero(rng.random(len(out)) < rate):
        out[pos] = ALPHABET[(ALPHABET.index(out[pos]) + int(rng.integers(1, 4))) % 4]
    cut = int(rng.integers(10, len(out) - 10))
    del out[cut : cut + int(rng.integers(1, 3))]
    return "".join(out)


@dataclass(frozen=True)
class Inputs:
    """One seed's inputs: database, query streams, ingest records."""

    seed: int
    tag: str
    database: tuple[tuple[str, str], ...]
    warmup: tuple[str, ...]
    hot: tuple[str, ...]
    ingest: tuple[tuple[str, str], ...]
    preload: tuple[tuple[str, str], ...]

    def cold(self, k: int) -> str:
        """The ``k``-th never-seen query."""
        return _query(self.seed, _COLD, k)

    def cold_stream(self) -> Iterator[str]:
        return (self.cold(k) for k in itertools.count())

    def fasta(self) -> str:
        return "".join(f">{name}\n{seq}\n" for name, seq in self.database)

    def digest(self) -> str:
        """sha256 over every generated input, in a fixed order."""
        h = hashlib.sha256(self.tag.encode())
        h.update(self.fasta().encode())
        cold = [self.cold(k) for k in range(DIGESTED_COLD)]
        for group in (cold, self.warmup, self.hot):
            h.update(b"\x00" + "\n".join(group).encode())
        for group in (self.ingest, self.preload):
            h.update(b"\x00" + "\n".join(f"{n} {s}" for n, s in group).encode())
        return h.hexdigest()


#: Generator streams of the per-query seeds.
_COLD, _WARMUP, _HOT = 1, 2, 3


def generate(seed: int) -> Inputs:
    rng = np.random.default_rng([0x5E7E, seed])
    tag = _dna(rng, TAG_BP)
    warmup = tuple(_query(seed, _WARMUP, k) for k in range(WARMUP_QUERIES))
    hot = tuple(_query(seed, _HOT, k) for k in range(HOT_QUERIES))
    planted = [q for q in hot for _ in range(HOT_COPIES)]
    planted += [_query(seed, _COLD, PLANT_EVERY * k) for k in range(RECORDS - len(planted))]
    records = [_dna(rng, RECORD_BP) + _near_copy(rng, planted[k])
               for k in rng.permutation(RECORDS)]
    database = tuple((f"db{i:04d}", seq) for i, seq in enumerate(records))
    ingest = tuple(
        (f"ing{seed}-{k:05d}", _dna(rng, INGEST_BP) + tag) for k in range(INGEST_RECORDS)
    )
    preload = tuple(
        (f"pre{seed}-{k:03d}", _dna(rng, INGEST_BP) + tag) for k in range(PRELOAD)
    )
    return Inputs(seed, tag, database, warmup, hot, ingest, preload)
