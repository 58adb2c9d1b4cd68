"""Kernel-backend registry and cross-backend equivalence tests.

The :mod:`repro.kernels` contract under test:

* the registry resolves names, validates unknowns loudly, honours
  ``REPRO_KERNEL``, and lets third parties register without shadowing
  built-ins silently;
* **every** registered backend is bit-identical on ``(score, i, j)``
  under the repo-wide tie-break convention, on random DNA and protein
  inputs (Hypothesis), including empty sequences;
* batched and sequential entry points of the same backend agree;
* selection is honoured end-to-end: ``scan_database(kernel=...)``,
  ``QueryOptions.kernel`` through the engine and over TCP, and cache
  keys per kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.scoring import LinearScoring, blosum62
from repro.align.smith_waterman import LocalHit, sw_locate_best
from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna, random_protein
from repro.kernels import (
    DEFAULT_KERNEL,
    KernelBackend,
    StripedKernel,
    available_backends,
    default_kernel,
    get_backend,
    register_backend,
)
from repro.kernels import _FACTORIES, _INSTANCES
from repro.kernels.striped import PAD_CODE
from repro.scan import scan_database
from repro.service import (
    BadRequest,
    DatabaseIndex,
    QueryOptions,
    ResultCache,
    SearchClient,
    SearchEngine,
    WorkerSpec,
)
from repro.service import protocol
from repro.service.net import ServerThread

from conftest import dna_pair, dna_text, linear_schemes

#: Backends cheap enough for full-size Hypothesis sweeps; ``hw-sim``
#: (the cycle-accurate emulator) joins on smaller inputs only.
FAST_BACKENDS = ("pure", "numpy-striped")


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("hw-sim", "numpy-striped", "pure")

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-kernel")

    def test_get_backend_none_resolves_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert default_kernel() == DEFAULT_KERNEL
        assert get_backend(None).name == DEFAULT_KERNEL

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy-striped")
        assert default_kernel() == "numpy-striped"
        assert get_backend(None).name == "numpy-striped"

    def test_env_var_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy-stripd")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            default_kernel()

    def test_instances_are_shared(self):
        assert get_backend("pure") is get_backend("pure")

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError, match="lowercase token"):
            register_backend("My-Kernel", StripedKernel)
        with pytest.raises(ValueError, match="lowercase token"):
            register_backend("", StripedKernel)

    def test_register_rejects_silent_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("pure", StripedKernel)

    def test_register_and_replace_third_party(self):
        class Custom(KernelBackend):
            name = "custom-test"

            def locate(self, s, t, scheme=None):
                return sw_locate_best(s, t) if scheme is None else sw_locate_best(
                    s, t, scheme
                )

        try:
            register_backend("custom-test", Custom)
            assert "custom-test" in available_backends()
            first = get_backend("custom-test")
            assert isinstance(first, Custom)
            # replace=True swaps the factory and drops the cached instance.
            register_backend("custom-test", Custom, replace=True)
            assert get_backend("custom-test") is not first
            # A registered name is a valid WorkerSpec kind and a valid
            # QueryOptions.kernel.
            assert WorkerSpec("custom-test").resolved_kernel() == "custom-test"
            QueryOptions(kernel="custom-test").validate()
        finally:
            _FACTORIES.pop("custom-test", None)
            _INSTANCES.pop("custom-test", None)


class TestWorkerSpec:
    def test_default_resolves_process_default_at_call_time(self, monkeypatch):
        spec = WorkerSpec()
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert spec.resolved_kernel() == DEFAULT_KERNEL
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        assert spec.resolved_kernel() == "pure"

    def test_hw_sim_builds_a_device_of_elements(self):
        spec = WorkerSpec("hw-sim", elements=16)
        assert spec.resolved_kernel() == "hw-sim"
        backend = spec.make_backend(LinearScoring())
        assert backend.name == "hw-sim"
        assert backend.elements == 16

    def test_registry_name_is_a_valid_kind(self):
        assert WorkerSpec("numpy-striped").resolved_kernel() == "numpy-striped"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown worker kind"):
            WorkerSpec("fortran")


# ----------------------------------------------------------------------
# Cross-backend bit-identity
# ----------------------------------------------------------------------
def locate_one(name, s, t, scheme=None):
    """One pair through ``name``'s batched entry point.

    ``numpy-striped``'s own ``locate`` is the row sweep, so
    the single-pair identity tests reach its kernel through a one-pair
    batch instead.
    """
    backend = get_backend(name)
    if scheme is None:
        return backend.locate_batch([s], [t])[0][0]
    return backend.locate_batch([s], [t], scheme)[0][0]


class TestBitIdentity:
    @given(dna_pair(0, 28), linear_schemes())
    def test_all_fast_backends_identical_dna(self, pair, scheme):
        s, t = pair
        expected = sw_locate_best(s, t, scheme)
        for name in FAST_BACKENDS:
            assert locate_one(name, s, t, scheme) == expected, name

    @given(dna_pair(0, 12), linear_schemes())
    @settings(max_examples=12)
    def test_hw_sim_identical_dna(self, pair, scheme):
        s, t = pair
        assert get_backend("hw-sim").locate(s, t, scheme) == sw_locate_best(
            s, t, scheme
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_all_fast_backends_identical_protein(self, seed):
        scheme = blosum62()
        s = random_protein(17, seed=seed)
        t = random_protein(29, seed=seed + 1)
        expected = sw_locate_best(s, t, scheme)
        for name in FAST_BACKENDS:
            assert locate_one(name, s, t, scheme) == expected, name

    @given(dna_text(0, 20))
    @settings(max_examples=20)
    def test_empty_sequences(self, t):
        for name in FAST_BACKENDS:
            assert locate_one(name, "", t) == LocalHit(0, 0, 0), name
            assert locate_one(name, t, "") == LocalHit(0, 0, 0), name

    def test_striped_tie_breaks_match_reference(self):
        # A repeated motif forces score ties: smallest i, then
        # smallest j, must win in both kernels.
        s = "ACAC"
        t = "ACACACAC"
        assert StripedKernel().locate_batch([s], [t])[0][0] == sw_locate_best(s, t)


def byte_records(min_size, max_size):
    """Records as raw ``uint8`` arrays, including bytes 0 and 255."""
    return st.lists(
        st.sampled_from([0, 65, 67, 71, 84, 255]), min_size=min_size, max_size=max_size
    ).map(lambda codes: np.array(codes, dtype=np.uint8))


class TestPadSentinel:
    """Ragged batches pad with a sentinel byte instead of zeroing pads.

    Every record shorter than its chunk's width is padded, so ragged
    batches — 0- and 1-length records next to long ones — are where a
    pad cell could outscore a real one if the sentinel were wrong.
    Ragged DNA batches are ``TestBatchEquivalence``'s; these add raw
    byte records (a query byte 0 would match a zero pad) and BLOSUM62.
    """

    @given(
        st.lists(byte_records(0, 12), min_size=1, max_size=3),
        st.lists(byte_records(0, 30), min_size=1, max_size=5),
        linear_schemes(),
    )
    @settings(max_examples=40)
    def test_ragged_byte_batches(self, queries, targets, scheme):
        batch = StripedKernel().locate_batch(queries, targets, scheme)
        for qi, q in enumerate(queries):
            for ti, t in enumerate(targets):
                assert batch[qi][ti] == sw_locate_best(q, t, scheme)

    @given(st.integers(0, 10_000), st.lists(st.integers(0, 40), min_size=1, max_size=5))
    @settings(max_examples=20)
    def test_ragged_protein_batches(self, seed, lengths):
        scheme = blosum62()
        queries = [random_protein(11, seed=seed), random_protein(1, seed=seed + 1)]
        targets = [random_protein(n, seed=seed + 2 + n) if n else "" for n in lengths]
        batch = StripedKernel().locate_batch(queries, targets, scheme)
        for qi, q in enumerate(queries):
            for ti, t in enumerate(targets):
                assert batch[qi][ti] == sw_locate_best(q, t, scheme)

    def test_served_shape_state_stays_int16(self):
        # 2 x 96 bp queries against ~1.1 kbp records: the sentinel's
        # magnitude must not widen the state.
        from repro.align.scoring import DEFAULT_DNA, encode

        queries = [encode(random_dna(96, seed=i)) for i in range(2)]
        prof = StripedKernel._profiles(queries, DEFAULT_DNA)
        assert prof[..., PAD_CODE].max() < 0
        dtype = StripedKernel._state_dtype(prof, 96, 1200, DEFAULT_DNA.gap)
        assert dtype is np.int16


class TestBatchEquivalence:
    @given(
        st.lists(dna_text(0, 20), min_size=1, max_size=4),
        st.lists(dna_text(0, 24), min_size=1, max_size=5),
        linear_schemes(),
    )
    @settings(max_examples=30)
    def test_batch_equals_sequential(self, queries, targets, scheme):
        batch = get_backend("numpy-striped").locate_batch(queries, targets, scheme)
        for qi, q in enumerate(queries):
            for ti, t in enumerate(targets):
                assert batch[qi][ti] == sw_locate_best(q, t, scheme)

    def test_striped_chunking_preserves_results(self):
        # A one-record cell budget forces a chunk per record, including
        # the length-descending reorder/scatter path.
        queries = [random_dna(20, seed=1), random_dna(12, seed=2)]
        targets = [random_dna(n, seed=10 + n) for n in (5, 40, 17, 31, 8)]
        tiny = StripedKernel(cell_budget=1)
        assert tiny.locate_batch(queries, targets) == [
            [sw_locate_best(q, t) for t in targets] for q in queries
        ]


# ----------------------------------------------------------------------
# scan_database selection
# ----------------------------------------------------------------------
class TestScanKernelSelection:
    RECORDS = [("a", "TTACGTTT"), ("b", "ACGTACGT"), ("c", "GGGGGGGG")]

    def test_kernel_name_matches_default(self):
        base = scan_database("ACGT", self.RECORDS, retrieve=0)
        for name in FAST_BACKENDS:
            report = scan_database("ACGT", self.RECORDS, kernel=name, retrieve=0)
            assert ranking(report.hits) == ranking(base.hits), name

    def test_kernel_instance_accepted(self):
        report = scan_database(
            "ACGT", self.RECORDS, kernel=StripedKernel(), retrieve=0
        )
        base = scan_database("ACGT", self.RECORDS, retrieve=0)
        assert ranking(report.hits) == ranking(base.hits)

    def test_unknown_kernel_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            scan_database("ACGT", self.RECORDS, kernel="fortran")

    @pytest.mark.parametrize("name", available_backends())
    def test_one_call_sweep_equals_per_record_loop(self, name):
        """``kernel=`` sweeps through one ``locate_batch`` call; the
        ranking is the per-record ``locate`` loop's, ties included."""
        query = random_dna(24, seed=61)
        records = [("empty", "")]
        for i in range(7):
            seq = random_dna(40 + 9 * i, seed=70 + i)
            if i in (2, 5):  # two equal-scoring copies: a tie in rank order
                seq = seq[:10] + query + seq[10 + len(query):]
            records.append((f"r{i}", seq.lower() if i == 3 else seq))
        backend = get_backend(name)
        loop = sorted(
            (
                (backend.locate(query, seq.upper()), rec_name, len(seq))
                for rec_name, seq in records
            ),
            key=lambda item: -item[0].score,
        )
        expected = [(n, length, hit.as_tuple()) for hit, n, length in loop if hit.score >= 1]
        report = scan_database(query, records, kernel=name, top=len(records), retrieve=2)
        assert ranking(report.hits) == expected[: len(records)]
        assert report.records_scanned == len(records)
        assert report.cells == len(query) * sum(len(seq) for _, seq in records)
        base = scan_database(query, records, top=len(records), retrieve=2)
        assert ranking(report.hits) == ranking(base.hits)
        assert [h.alignment for h in report.hits] == [h.alignment for h in base.hits]


# ----------------------------------------------------------------------
# QueryOptions.kernel + wire protocol
# ----------------------------------------------------------------------
class TestQueryOptionsKernel:
    def test_default_is_none(self):
        assert QueryOptions().kernel is None
        QueryOptions().validate()

    def test_valid_name_passes(self):
        QueryOptions(kernel="numpy-striped").validate()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            QueryOptions(kernel="fortran").validate()

    def test_wire_roundtrip(self):
        options = QueryOptions(top=5, kernel="numpy-striped")
        wire = protocol.options_to_wire(options)
        assert wire["kernel"] == "numpy-striped"
        back = protocol.options_from_wire(wire)
        assert back.kernel == "numpy-striped"
        assert back.top == 5

    def test_absent_on_wire_means_server_default(self):
        wire = protocol.options_to_wire(QueryOptions())
        assert "kernel" not in wire
        assert protocol.options_from_wire(wire).kernel is None
        # The server's defaults (its --kernel flag) survive an absent field.
        defaults = QueryOptions(kernel="numpy-striped")
        assert protocol.options_from_wire(wire, defaults).kernel == "numpy-striped"

    def test_non_string_kernel_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            protocol.options_from_wire({"kernel": 3})
        with pytest.raises(ValueError, match="non-empty string"):
            protocol.options_from_wire({"kernel": ""})


# ----------------------------------------------------------------------
# Engine + cache + TCP end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def planted_index():
    query = random_dna(48, seed=7001)
    records = []
    for i in range(10):
        seq = random_dna(160, seed=7100 + i)
        if i == 4:
            copy = mutate(query, rate=0.05, seed=7200)
            seq = seq[:60] + copy + seq[60 + len(copy):]
        records.append(FastaRecord(f"rec{i}", seq))
    return query, DatabaseIndex.build(records, shards=3)


class TestEngineKernelSelection:
    def test_request_kernel_matches_default_rankings(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        base = engine.search(query, QueryOptions(top=5))
        for name in FAST_BACKENDS:
            response = engine.search(query, QueryOptions(top=5, kernel=name))
            assert ranking(response.report.hits) == ranking(base.report.hits), name

    def test_engine_spec_kernel_used_by_default(self, planted_index):
        query, index = planted_index
        striped = SearchEngine(
            index, spec=WorkerSpec("numpy-striped"), cache=ResultCache(0)
        )
        reference = SearchEngine(index, cache=ResultCache(0))
        assert striped.describe()["kernel"] == "numpy-striped"
        assert ranking(striped.search(query).report.hits) == ranking(
            reference.search(query).report.hits
        )

    def test_unknown_kernel_is_bad_request_shaped(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        with pytest.raises(ValueError, match="unknown kernel"):
            engine.search(query, QueryOptions(kernel="fortran"))

    def test_cache_keys_separate_per_kernel(self, planted_index):
        query, index = planted_index
        # Pin the engine default so the override below genuinely
        # differs even when REPRO_KERNEL=numpy-striped is exported.
        engine = SearchEngine(index, spec=WorkerSpec("pure"))
        first = engine.search(query, QueryOptions(top=5))
        assert not first.metrics.cache_hit
        hit = engine.search(query, QueryOptions(top=5))
        assert hit.metrics.cache_hit
        # A different kernel selection must not replay the entry...
        other = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert not other.metrics.cache_hit
        assert ranking(other.report.hits) == ranking(first.report.hits)
        # ...but repeats of it hit its own key.
        again = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert again.metrics.cache_hit

    def test_worker_pool_sweeps_with_requested_kernel(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, workers=2, cache=ResultCache(0))
        base = engine.search(query, QueryOptions(top=5))
        striped = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert ranking(striped.report.hits) == ranking(base.report.hits)

    def test_kernel_override_spec_is_request_scoped(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        engine.search(query, QueryOptions(kernel="numpy-striped"))
        # The engine's own spec is untouched by the per-request override.
        assert engine.spec.resolved_kernel() == engine._kernel_for(QueryOptions())[0]


class TestTcpKernelSelection:
    def test_kernel_selection_over_the_wire(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        inline = engine.search(query, QueryOptions(top=5))
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search(
                    query, QueryOptions(top=5, kernel="numpy-striped")
                )
                assert ranking(remote.report.hits) == ranking(inline.report.hits)
                with pytest.raises(ValueError, match="unknown kernel"):
                    client.search(query, QueryOptions(kernel="fortran"))
                # The connection survives the bad request.
                assert client.search(query, QueryOptions(top=5)).report.hits
