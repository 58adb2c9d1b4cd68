"""Tests for the section 2.3 pipeline (local alignment in linear space)."""

import pytest
from hypothesis import given, strategies as st

from repro.align.local_linear import local_align_linear, locate_span, reverse_window
from repro.align.scoring import DEFAULT_DNA, blosum62
from repro.align.smith_waterman import LocalHit, sw_align, sw_locate_best, sw_score
from repro.core.accelerator import SWAccelerator
from repro.io.generate import adversarial_pairs, planted_pair

from conftest import dna_pair, linear_schemes, related_pair


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
