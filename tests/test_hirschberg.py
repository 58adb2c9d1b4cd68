"""Tests for Hirschberg's linear-space global alignment."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.align.hirschberg import hirschberg_align, hirschberg_crossing
from repro.align.needleman_wunsch import nw_align, nw_score
from repro.align.scoring import (
    DEFAULT_DNA,
    PROTEIN_ALPHABET,
    LinearScoring,
    blosum62,
    decode,
    encode,
)

from conftest import dna_pair, linear_schemes


def recursive_hirschberg(s, t, scheme):
    """The textbook recursion: the oracle for the level-batched walk."""
    parts_s, parts_t = [], []

    def solve(s_codes, t_codes):
        m, n = len(s_codes), len(t_codes)
        if m <= 1 or n <= 1:
            if m or n:
                base = nw_align(decode(s_codes), decode(t_codes), scheme)
                parts_s.append(base.s_aligned)
                parts_t.append(base.t_aligned)
            return
        mid = m // 2
        k = hirschberg_crossing(s_codes, t_codes, mid, scheme)
        solve(s_codes[:mid], t_codes[:k])
        solve(s_codes[mid:], t_codes[k:])

    solve(encode(s), encode(t))
    return "".join(parts_s), "".join(parts_t)


@st.composite
def uneven_pair(draw, alphabet):
    """Two strings whose lengths differ by up to 4x either way."""
    short = draw(st.integers(0, 24))
    long = draw(st.integers(short, 4 * short + 4))
    if draw(st.booleans()):
        short, long = long, short
    s = draw(st.text(alphabet=alphabet, min_size=short, max_size=short))
    t = draw(st.text(alphabet=alphabet, min_size=long, max_size=long))
    return s, t


def assert_matches_recursion(s, t, scheme):
    aln = hirschberg_align(s, t, scheme)
    assert (aln.s_aligned, aln.t_aligned) == recursive_hirschberg(s, t, scheme)


class TestHirschberg:
    @given(dna_pair(0, 24), linear_schemes())
    def test_score_equals_needleman_wunsch(self, pair, scheme):
        s, t = pair
        aln = hirschberg_align(s, t, scheme)
        assert aln.score == nw_score(s, t, scheme)

    @given(dna_pair(0, 24))
    def test_alignment_is_valid_edit_script(self, pair):
        s, t = pair
        aln = hirschberg_align(s, t)
        aln.validate(s, t)
        assert aln.audit_score(DEFAULT_DNA) == aln.score

    def test_identical(self):
        aln = hirschberg_align("ACGTACGT", "ACGTACGT")
        assert aln.score == 8
        assert aln.cigar() == "8M"

    def test_empty_both(self):
        aln = hirschberg_align("", "")
        assert aln.score == 0
        assert len(aln) == 0

    def test_empty_one_side(self):
        aln = hirschberg_align("ACGT", "")
        assert aln.t_aligned == "----"
        assert aln.score == -8

    def test_single_characters(self):
        assert hirschberg_align("A", "A").score == 1
        assert hirschberg_align("A", "C").score == -1  # substitution beats two gaps

    def test_long_sequences_exercise_recursion(self):
        # Deep enough that several recursion levels run.
        from repro.io.generate import mutated_pair

        s, t = mutated_pair(200, rate=0.2, seed=9)
        aln = hirschberg_align(s, t)
        aln.validate(s, t)
        assert aln.score == nw_score(s, t)

    def test_case_insensitive(self):
        assert hirschberg_align("acgt", "ACGT").score == 4


class TestMatchesRecursion:
    """The level-batched walk is text-identical to the recursion."""

    @given(uneven_pair("ACGT"), linear_schemes())
    def test_dna(self, pair, scheme):
        assert_matches_recursion(*pair, scheme)

    @given(
        uneven_pair("AB"),
        st.sampled_from([LinearScoring(1, 0, -1), LinearScoring(2, -1, -1)]),
    )
    def test_two_letter_alphabet_heavy_ties(self, pair, scheme):
        assert_matches_recursion(*pair, scheme)

    @given(uneven_pair(PROTEIN_ALPHABET), st.sampled_from([-4, -8]))
    def test_blosum62(self, pair, gap):
        assert_matches_recursion(*pair, blosum62(gap))

    def test_memory_is_linear(self):
        from repro.io.generate import random_dna

        s, t = random_dna(200, seed=11), random_dna(20_000, seed=12)
        tracemalloc.start()
        try:
            aln = hirschberg_align(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        aln.validate(s, t)
        # A 200 x 20,000 score matrix alone is 32 MB of int64.
        assert peak <= 10 * 2**20


class TestCrossing:
    def test_crossing_in_range(self):
        s, t = encode("ACGTAC"), encode("ACTGAC")
        for mid in range(1, 6):
            k = hirschberg_crossing(s, t, mid)
            assert 0 <= k <= len(t)

    def test_crossing_is_optimal_split(self):
        # Splitting at the crossing must preserve the total score.
        from repro.align.needleman_wunsch import nw_score as score

        s, t = "ACGTACGT", "AGTACG"
        mid = 4
        k = hirschberg_crossing(encode(s), encode(t), mid)
        total = score(s[:mid], t[:k]) + score(s[mid:], t[k:])
        assert total == score(s, t)

    @given(dna_pair(2, 16))
    def test_crossing_split_preserves_score_property(self, pair):
        s, t = pair
        mid = len(s) // 2
        if mid == 0:
            return
        k = hirschberg_crossing(encode(s), encode(t), mid)
        total = nw_score(s[:mid], t[:k]) + nw_score(s[mid:], t[k:])
        assert total == nw_score(s, t)
