"""Tests for the section 2.3 pipeline (local alignment in linear space)."""

import pytest
from hypothesis import given, strategies as st

from repro.align.local_linear import (
    local_align_batch,
    local_align_linear,
    locate_span,
    reverse_window,
)
from repro.align.needleman_wunsch import nw_cells_argmax
from repro.align.scoring import DEFAULT_DNA, PROTEIN_ALPHABET, blosum62
from repro.align.smith_waterman import LocalHit, sw_align, sw_locate_best, sw_score
from repro.core.accelerator import SWAccelerator
from repro.io.generate import adversarial_pairs, planted_pair
from repro.kernels import HwSimBackend

from conftest import dna_pair, linear_schemes, related_pair


def three_phase_spans(jobs, scheme):
    """The three-phase span search: the oracle for the two-pass pipeline.

    Phase 2 is a *local* reverse sweep over the reversed prefix and
    window; phase 3 anchors the end of the alignment starting at the
    reverse hit's ``(a, b)`` with a forward end-anchored sweep over
    ``s[a:i_end]``, ``t[b:j_end]``.  Returns ``(reverse_hit, span)``
    per upper-cased ``(s, t, end)`` job.
    """
    spans = []
    for s, t, end in jobs:
        if end.score <= 0:
            spans.append((LocalHit(0, 0, 0), (0, 0, 0, 0)))
            continue
        window = t[max(0, end.j - reverse_window(end, scheme)) : end.j]
        reverse = sw_locate_best(s[: end.i][::-1], window[::-1], scheme)
        assert reverse.score == end.score
        a, b = end.i - reverse.i, end.j - reverse.j
        anchored = nw_cells_argmax(s[a : end.i], t[b : end.j], scheme)
        assert anchored.score == end.score
        spans.append((reverse, (a, a + anchored.i, b, b + anchored.j)))
    return spans


@st.composite
def retrieval_batch(draw):
    """A scheme and 1-8 ``(s, t, end)`` jobs with their sweep's ``end``.

    DNA schemes run over 4-, 2- and 1-letter alphabets (the small ones
    tie heavily), BLOSUM62 over the amino acids.  Queries repeat across
    jobs; a target holds a noisy copy of a random slice of its query
    (so one query's jobs end at differing ``i``), an unrelated string,
    or nothing; sequences may be 0 or 1 long, so zero-score hits appear.
    """
    if draw(st.booleans()):
        scheme = draw(linear_schemes())
        alphabet = draw(st.sampled_from(["ACGT", "ACGT", "AC", "A"]))
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


class TestReversePass:
    """The reverse pass is one end-anchored sweep; phase 3 is gone."""

    @given(retrieval_batch())
    def test_span_ends_at_end_and_matches_three_phases(self, batch):
        scheme, jobs = batch
        jobs = [(s.upper(), t.upper(), end) for s, t, end in jobs]
        results = local_align_batch(jobs, scheme)
        for (_, _, end), result, oracle in zip(jobs, results, three_phase_spans(jobs, scheme)):
            if end.score > 0:
                assert (result.span[1], result.span[3]) == (end.i, end.j)
            assert (result.reverse_hit, result.span) == oracle

    @given(related_pair(2, 16), linear_schemes())
    def test_array_runs_the_reverse_pass_unchanged(self, pair, scheme):
        """Section 2.3: the same array executes the reverse pass.

        On the reversed prefix and window, the simulated array's local
        hit is the end-anchored sweep's — the pass the pipeline runs.
        """
        s, t = pair
        end = sw_locate_best(s, t, scheme)
        if end.score <= 0:
            return
        window = t[max(0, end.j - reverse_window(end, scheme)) : end.j]
        prefix, window = s[: end.i][::-1], window[::-1]
        assert HwSimBackend(elements=5).locate(prefix, window, scheme) == nw_cells_argmax(
            prefix, window, scheme
        )


class TestBatch:
    """``local_align_batch`` is per-job ``local_align_linear``, field for field."""

    @given(retrieval_batch())
    def test_batch_equals_per_job(self, batch):
        scheme, jobs = batch
        results = local_align_batch(jobs, scheme)
        assert len(results) == len(jobs)
        for (s, t, end), result in zip(jobs, results):
            single = local_align_linear(s, t, scheme, end=end)
            assert result.forward_hit == end
            assert result == single

    def test_served_shape_batch(self):
        """Two 96 bp queries x three planted copies in 1 kbp records."""
        from repro.io.generate import mutate, random_dna

        jobs = []
        for q in range(2):
            query = random_dna(96, seed=900 + q)
            for c in range(3):
                copy = mutate(query, rate=0.08, seed=1000 + 10 * q + c)
                record = random_dna(1000, seed=2000 + 10 * q + c) + copy
                jobs.append((query, record, sw_locate_best(query, record)))
        results = local_align_batch(jobs, DEFAULT_DNA)
        assert results == [local_align_linear(s, t, end=end) for s, t, end in jobs]

    def test_empty_batch(self):
        assert local_align_batch([]) == []

    def test_wrong_end_score_is_caught(self):
        with pytest.raises(AssertionError, match="duality"):
            local_align_batch([("ACGT", "ACGT", LocalHit(3, 4, 4))])
