"""Tests for the service-layer database index (build/save/load/version)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.align.scoring import decode
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.generate import random_dna
from repro.parallel.sharding import even_spans
from repro.service import DatabaseIndex, IndexFormatError
from repro.service.index import INDEX_FORMAT


def make_records(n=12, length=150, seed=7):
    return [
        FastaRecord(f"rec{i}", random_dna(length, seed=seed + i)) for i in range(n)
    ]


class TestEvenSpans:
    def test_covers_range_in_order(self):
        for total in (0, 1, 5, 17, 100):
            for parts in (1, 2, 3, 7, 20):
                spans = even_spans(total, parts)
                assert len(spans) == parts
                assert spans[0][0] == 0 and spans[-1][1] == total
                widths = [hi - lo for lo, hi in spans]
                assert all(w >= 0 for w in widths)
                assert max(widths) - min(widths) <= 1
                for (_, a), (b, _) in zip(spans, spans[1:]):
                    assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            even_spans(-1, 2)
        with pytest.raises(ValueError):
            even_spans(3, 0)


class TestBuild:
    def test_record_order_and_content_preserved(self):
        records = make_records()
        index = DatabaseIndex.build(records, shard_bp=400)
        assert index.record_count == len(records)
        assert index.total_bp == sum(len(r) for r in records)
        assert index.shard_count > 1
        for gidx, (rec) in enumerate(records):
            name, codes = index.record(gidx)
            assert name == rec.identifier
            assert decode(codes) == rec.sequence

    def test_explicit_shard_count(self):
        index = DatabaseIndex.build(make_records(10), shards=4)
        assert index.shard_count == 4
        assert [len(s) for s in index.shards] == [3, 3, 2, 2]

    def test_tuple_and_string_records(self):
        index = DatabaseIndex.build([("a", "acgt"), "GGGG"])
        name, codes = index.record(0)
        assert name == "a"
        assert decode(codes) == "ACGT"  # upper-cased like the scanner
        assert index.record(1)[0] == ""
        assert decode(index.record(1)[1]) == "GGGG"

    def test_cells(self):
        index = DatabaseIndex.build(make_records(4, length=100))
        assert index.cells(60) == 60 * 400

    def test_iter_records_global_indices(self):
        index = DatabaseIndex.build(make_records(9), shard_bp=300)
        indices = [g for g, _, _ in index.iter_records()]
        assert indices == list(range(9))

    def test_empty_database(self):
        index = DatabaseIndex.build([])
        assert index.record_count == 0
        assert index.total_bp == 0
        with pytest.raises(IndexError):
            index.record(0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DatabaseIndex.build([], shard_bp=0)
        with pytest.raises(ValueError):
            DatabaseIndex.build([], shards=0)
        with pytest.raises(ValueError):
            DatabaseIndex.build([("bad\nname", "ACGT")])


class TestVersionStamp:
    def test_deterministic_across_rebuilds(self):
        a = DatabaseIndex.build(make_records(), shard_bp=400)
        b = DatabaseIndex.build(make_records(), shard_bp=999999)
        # Version depends on content only, not on shard geometry.
        assert a.version == b.version

    def test_changes_with_content(self):
        records = make_records()
        a = DatabaseIndex.build(records)
        mutated = records[:5] + [FastaRecord("recX", "ACGTACGT")] + records[6:]
        b = DatabaseIndex.build(mutated)
        assert a.version != b.version

    def test_sensitive_to_names_and_boundaries(self):
        a = DatabaseIndex.build([("a", "ACGT"), ("b", "GG")])
        renamed = DatabaseIndex.build([("a2", "ACGT"), ("b", "GG")])
        rechunked = DatabaseIndex.build([("a", "ACGTG"), ("b", "G")])
        assert a.version != renamed.version
        assert a.version != rechunked.version


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        index = DatabaseIndex.build(make_records(), shard_bp=400, source="unit")
        path = tmp_path / "db.idx"
        index.save(path)
        assert path.read_bytes() == index.to_bytes()  # the one serialiser
        loaded = DatabaseIndex.load(path)
        assert loaded.version == index.version
        assert loaded.source == "unit"
        assert loaded.record_count == index.record_count
        assert loaded.shard_count == index.shard_count
        for (ga, na, ca), (gb, nb, cb) in zip(
            index.iter_records(), loaded.iter_records()
        ):
            assert (ga, na) == (gb, nb)
            assert np.array_equal(ca, cb)

    def test_round_trip_from_fasta(self, tmp_path):
        db = tmp_path / "db.fasta"
        write_fasta(make_records(6), db)
        index = DatabaseIndex.from_fasta(db, shard_bp=300)
        path = tmp_path / "db.idx"
        index.save(path)
        assert DatabaseIndex.load(path).version == index.version

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.idx"
        DatabaseIndex.build([]).save(path)
        assert DatabaseIndex.load(path).record_count == 0

    def test_not_an_index(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"definitely not an index")
        with pytest.raises(IndexFormatError):
            DatabaseIndex.load(path)

    @pytest.mark.parametrize("keep", [0, 10, 57])
    def test_truncated_file_raises_format_error(self, tmp_path, keep):
        """A torn write surfaces as IndexFormatError, not BadZipFile."""
        path = tmp_path / "db.idx"
        DatabaseIndex.build(make_records(4)).save(path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(IndexFormatError):
            DatabaseIndex.load(path)

    def test_truncated_tail_raises_format_error(self, tmp_path):
        """Dropping the archive's tail (central directory) is caught too."""
        path = tmp_path / "db.idx"
        DatabaseIndex.build(make_records(4)).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 20])
        with pytest.raises(IndexFormatError):
            DatabaseIndex.load(path)

    def test_random_garbage_raises_format_error(self, tmp_path):
        import random

        rng = random.Random(5)
        path = tmp_path / "garbage.idx"
        path.write_bytes(bytes(rng.randrange(256) for _ in range(4096)))
        with pytest.raises(IndexFormatError):
            DatabaseIndex.load(path)

    def test_npz_missing_arrays_raises_format_error(self, tmp_path):
        """A valid npz that is not an index errors cleanly, not KeyError."""
        import io

        import numpy as np

        path = tmp_path / "other.idx"
        buffer = io.BytesIO()
        np.savez_compressed(buffer, unrelated=np.arange(3))
        path.write_bytes(buffer.getvalue())
        with pytest.raises(IndexFormatError):
            DatabaseIndex.load(path)


class TestCorruptionDetection:
    def test_corrupt_payload_raises_index_corrupt(self, tmp_path):
        from repro.service import IndexCorrupt, corrupt_index_file

        path = tmp_path / "db.idx"
        DatabaseIndex.build(make_records(8), shards=4).save(path)
        corrupt_index_file(path, shard_id=2)
        with pytest.raises(IndexCorrupt, match="shard 2"):
            DatabaseIndex.load(path)

    def test_quarantine_load_marks_shard_degraded(self, tmp_path):
        from repro.service import corrupt_index_file

        path = tmp_path / "db.idx"
        index = DatabaseIndex.build(make_records(8), shards=4)
        index.save(path)
        corrupt_index_file(path, shard_id=1)
        loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        assert loaded.degraded == (1,)
        assert [s.shard_id for s in loaded.active_shards] == [0, 2, 3]
        # Record numbering is preserved: global indices are unchanged.
        assert loaded.record_count == index.record_count
        assert "degraded shards" in loaded.describe()

    def test_invalid_on_corrupt_mode(self, tmp_path):
        path = tmp_path / "db.idx"
        DatabaseIndex.build(make_records(2)).save(path)
        with pytest.raises(ValueError, match="on_corrupt"):
            DatabaseIndex.load(path, on_corrupt="ignore")

    def test_corrupt_index_file_validates_args(self, tmp_path):
        from repro.service import corrupt_index_file

        path = tmp_path / "db.idx"
        DatabaseIndex.build(make_records(2)).save(path)
        with pytest.raises(ValueError):
            corrupt_index_file(path, shard_id=99)

    def test_format_revision_mismatch(self, tmp_path, monkeypatch):
        index = DatabaseIndex.build(make_records(3))
        path = tmp_path / "db.idx"
        index.save(path)
        monkeypatch.setattr("repro.service.index.INDEX_FORMAT", INDEX_FORMAT + 1)
        with pytest.raises(IndexFormatError, match="format"):
            DatabaseIndex.load(path)

    def test_load_is_pickle_free(self, tmp_path):
        """The on-disk format must not require allow_pickle to read."""
        index = DatabaseIndex.build(make_records(3))
        path = tmp_path / "db.idx"
        index.save(path)
        with np.load(path, allow_pickle=False) as data:
            assert set(data.files) >= {"meta", "payload", "record_lengths"}


class TestQuarantineUnderDamageProperty:
    """Satellite contract: ``load(on_corrupt="quarantine")`` against a
    damaged file never crashes with anything but ``IndexFormatError``
    and never serves unverified bytes.

    The reference blob is built once; hypothesis then drives the damage
    — systematic truncation points and byte flips — over it.
    """

    _pristine: bytes | None = None

    @classmethod
    def _reference_blob(cls, tmp_path):
        # Cache the *pristine* bytes (the content is deterministic), so
        # one example's damage can never leak into the next one's blob.
        if cls._pristine is None:
            ref = tmp_path / "ref.idx"
            DatabaseIndex.build(make_records(8), shards=4).save(ref)
            cls._pristine = ref.read_bytes()
        return tmp_path / "db.idx", cls._pristine

    @given(fraction=st.floats(0.0, 1.0))
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncation_never_serves_garbage(self, tmp_path, fraction):
        path, blob = self._reference_blob(tmp_path)
        keep = int(len(blob) * fraction)
        path.write_bytes(blob[:keep])
        try:
            loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        except IndexFormatError:
            return  # refused cleanly: the structure itself was torn
        # If the load survived, every *served* shard re-verified its
        # digest: active shards are exactly the non-degraded ones and
        # iterating them cannot touch unverified payload.
        active = {s.shard_id for s in loaded.active_shards}
        assert active.isdisjoint(loaded.degraded)
        for shard in loaded.active_shards:
            assert int(shard.offsets[-1]) == shard.payload.shape[0]

    @given(
        shard_id=st.integers(0, 3),
        offset=st.integers(0, 10_000),
    )
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_byte_flip_quarantines_exactly_that_shard(
        self, tmp_path, shard_id, offset
    ):
        from repro.service import corrupt_index_file

        path, blob = self._reference_blob(tmp_path)
        path.write_bytes(blob)
        corrupt_index_file(path, shard_id=shard_id, offset=offset)
        loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        assert loaded.degraded == (shard_id,)
        assert [s.shard_id for s in loaded.active_shards] == [
            s for s in range(4) if s != shard_id
        ]
        assert loaded.record_count == 8  # numbering holds despite the loss
