"""Tests for the section 2.3 pipeline (local alignment in linear space)."""

import pytest
from hypothesis import given, strategies as st

from repro.align.local_linear import (
    local_align_batch,
    local_align_linear,
    locate_span,
    reverse_window,
)
from repro.align.scoring import DEFAULT_DNA, PROTEIN_ALPHABET, blosum62
from repro.align.smith_waterman import LocalHit, sw_align, sw_locate_best, sw_score
from repro.core.accelerator import SWAccelerator
from repro.io.generate import adversarial_pairs, planted_pair
from repro.kernels import available_backends, get_backend

from conftest import dna_pair, linear_schemes, related_pair


@st.composite
def retrieval_batch(draw):
    """A scheme and 1-8 ``(s, t, end)`` jobs with their sweep's ``end``.

    Queries repeat across jobs; a target holds a noisy copy of a random
    slice of its query (so one query's jobs end at differing ``i``), an
    unrelated string, or nothing; sequences may be 0 or 1 long, so
    zero-score hits appear.
    """
    if draw(st.booleans()):
        scheme, alphabet = draw(linear_schemes()), "ACGT"
    else:
        scheme, alphabet = blosum62(draw(st.sampled_from([-4, -8]))), PROTEIN_ALPHABET
    text = lambda lo, hi: st.text(alphabet=alphabet, min_size=lo, max_size=hi)
    queries = draw(st.lists(text(0, 24), min_size=1, max_size=3))
    jobs = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(st.sampled_from(queries))
        kind = draw(st.sampled_from(["copy", "copy", "random", "empty"]))
        if kind == "copy" and s:
            lo = draw(st.integers(0, len(s) - 1))
            hi = draw(st.integers(lo + 1, len(s)))
            chars = list(s[lo:hi])
            for _ in range(draw(st.integers(0, max(1, len(chars) // 4)))):
                chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(alphabet))
            t = draw(text(0, 12)) + "".join(chars) + draw(text(0, 12))
        elif kind == "empty":
            t = ""
        else:
            t = draw(text(0, 30))
        jobs.append((s, t, sw_locate_best(s, t, scheme)))
    return scheme, jobs


class TestLocateSpan:
    @given(dna_pair(1, 20))
    def test_forward_hit_matches_software(self, pair):
        s, t = pair
        forward, _, _ = locate_span(s, t)
        assert forward.score == sw_score(s, t)

    @given(related_pair())
    def test_span_brackets_an_optimal_alignment(self, pair):
        s, t = pair
        forward, _, (a, e_i, b, e_j) = locate_span(s, t)
        if forward.score == 0:
            assert (a, e_i, b, e_j) == (0, 0, 0, 0)
            return
        # The span is within bounds and non-empty.
        assert 0 <= a < e_i <= len(s)
        assert 0 <= b < e_j <= len(t)
        # Globally aligning exactly the span yields the optimum.
        from repro.align.needleman_wunsch import nw_score

        assert nw_score(s[a:e_i], t[b:e_j]) == forward.score

    @given(related_pair(1, 40), linear_schemes())
    def test_end_reuse_equals_forward_pass(self, pair, scheme):
        s, t = pair
        fresh = local_align_linear(s, t, scheme)
        reused = local_align_linear(s, t, scheme, end=sw_locate_best(s, t, scheme))
        assert reused == fresh

    @given(dna_pair(1, 40), st.sampled_from([-4, -8]))
    def test_end_reuse_equals_forward_pass_blosum(self, pair, gap):
        s, t = pair
        s, t = s.replace("T", "W"), t.replace("T", "W")  # a protein alphabet
        scheme = blosum62(gap)
        fresh = local_align_linear(s, t, scheme)
        reused = local_align_linear(s, t, scheme, end=sw_locate_best(s, t, scheme))
        assert reused == fresh

    @given(related_pair(4, 40), linear_schemes())
    def test_windowed_reverse_pass_equals_whole_prefix(self, pair, scheme):
        """The windowed reverse pass finds the whole-prefix pass's hit."""
        s, t = pair
        forward = sw_locate_best(s, t, scheme)
        if forward.score <= 0:
            return
        whole = sw_locate_best(s[: forward.i][::-1], t[: forward.j][::-1], scheme)
        _, reverse, _ = locate_span(s, t, scheme)
        assert reverse == whole
        assert whole.j <= reverse_window(forward, scheme)

    def test_reverse_pass_duality_reported(self, paper_pair):
        s, t = paper_pair
        forward, reverse, _ = locate_span(s, t)
        assert forward.score == reverse.score == 3


class TestPipeline:
    @pytest.mark.parametrize("name,s,t", adversarial_pairs())
    def test_score_matches_sw_adversarial(self, name, s, t):
        res = local_align_linear(s, t)
        assert res.alignment.score == sw_score(s, t)
        res.alignment.validate(s, t)

    @given(dna_pair(1, 24), linear_schemes())
    def test_score_matches_sw_property(self, pair, scheme):
        s, t = pair
        res = local_align_linear(s, t, scheme)
        assert res.alignment.score == sw_score(s, t, scheme)
        res.alignment.validate(s, t)
        assert res.alignment.audit_score(scheme) == res.alignment.score

    def test_zero_score_yields_empty_alignment(self):
        res = local_align_linear("AAAA", "GGGG")
        assert res.alignment.score == 0
        assert len(res.alignment) == 0
        assert res.span == (0, 0, 0, 0)

    def test_alignment_coordinates_match_span(self, mutated_120):
        s, t = mutated_120
        res = local_align_linear(s, t)
        a, e_i, b, e_j = res.span
        assert (res.alignment.s_start, res.alignment.s_end) == (a, e_i)
        assert (res.alignment.t_start, res.alignment.t_end) == (b, e_j)

    def test_finds_planted_fragment(self):
        p = planted_pair(s_len=80, t_len=90, fragment_len=30, seed=4)
        res = local_align_linear(p.s, p.t)
        # The planted fragment guarantees a local alignment of at
        # least ~fragment score; the found span must overlap the plant.
        assert res.alignment.score >= 20
        a, e_i, _, _ = res.span
        assert a < p.s_pos + 30 and e_i > p.s_pos

    def test_matches_full_matrix_alignment_score(self, mutated_120):
        s, t = mutated_120
        res = local_align_linear(s, t)
        oracle = sw_align(s, t)
        assert res.alignment.score == oracle.score


class TestAcceleratorIntegration:
    """The paper's co-design: locate on the FPGA, retrieve in software."""

    @given(dna_pair(1, 20))
    def test_pipeline_with_accelerator_locate(self, pair):
        s, t = pair
        acc = SWAccelerator(elements=7)
        res = local_align_linear(s, t, locate=acc.locate)
        assert res.alignment.score == sw_score(s, t)
        res.alignment.validate(s, t)

    def test_pipeline_with_rtl_accelerator(self, paper_pair):
        s, t = paper_pair
        acc = SWAccelerator(elements=3, engine="rtl")
        res = local_align_linear(s, t, locate=acc.locate)
        assert res.alignment.score == 3

    def test_scheme_mismatch_raises(self):
        from repro.align.scoring import LinearScoring

        acc = SWAccelerator(elements=4)
        other = LinearScoring(match=2, mismatch=-1, gap=-3)
        with pytest.raises(ValueError, match="different scoring scheme"):
            acc.locate("ACG", "ACG", other)


class TestBatch:
    """``local_align_batch`` is per-job ``local_align_linear``, field for field."""

    @given(retrieval_batch(), st.sampled_from((None,) + available_backends()))
    def test_batch_equals_per_job(self, batch, backend):
        scheme, jobs = batch
        locate_batch = None if backend is None else get_backend(backend).locate_batch
        results = local_align_batch(jobs, scheme, locate_batch)
        assert len(results) == len(jobs)
        for (s, t, end), result in zip(jobs, results):
            single = local_align_linear(s, t, scheme, end=end)
            assert result.span == single.span
            assert result.reverse_hit == single.reverse_hit
            assert result.forward_hit == single.forward_hit == end
            assert result.alignment.s_aligned == single.alignment.s_aligned
            assert result.alignment.t_aligned == single.alignment.t_aligned
            assert result == single

    def test_served_shape_batch(self):
        """Two 96 bp queries x three planted copies, on the striped kernel."""
        from repro.io.generate import mutate, random_dna

        jobs = []
        for q in range(2):
            query = random_dna(96, seed=900 + q)
            for c in range(3):
                copy = mutate(query, rate=0.08, seed=1000 + 10 * q + c)
                record = random_dna(1000, seed=2000 + 10 * q + c) + copy
                jobs.append((query, record, sw_locate_best(query, record)))
        results = local_align_batch(jobs, DEFAULT_DNA, get_backend("numpy-striped").locate_batch)
        assert results == [local_align_linear(s, t, end=end) for s, t, end in jobs]

    @given(retrieval_batch())
    def test_reverse_pass_sweeps_one_pair_per_job(self, batch):
        """One ``locate_batch`` call per distinct reversed prefix, one
        target per live job: no pair beyond the jobs' own is swept."""
        scheme, jobs = batch
        calls = []

        def counting(queries, targets, scheme):
            calls.append((list(queries), list(targets)))
            return get_backend("reference").locate_batch(queries, targets, scheme)

        local_align_batch(jobs, scheme, counting)
        live = [(s.upper(), end) for s, _, end in jobs if end.score > 0]
        assert all(len(queries) == 1 for queries, _ in calls)
        assert sum(len(targets) for _, targets in calls) == len(live)
        prefixes = [queries[0] for queries, _ in calls]
        assert sorted(prefixes) == sorted({s[: end.i][::-1] for s, end in live})

    def test_empty_batch(self):
        assert local_align_batch([]) == []

    def test_wrong_end_score_is_caught(self):
        with pytest.raises(AssertionError, match="duality"):
            local_align_batch([("ACGT", "ACGT", LocalHit(3, 4, 4))])
