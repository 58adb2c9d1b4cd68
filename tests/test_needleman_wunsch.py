"""Tests for the global-alignment kernels (Needleman-Wunsch)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.align.matrix import SimilarityMatrix
from repro.align.needleman_wunsch import (
    nw_align,
    nw_cells_argmax,
    nw_cells_argmax_batch,
    nw_last_row,
    nw_score,
)
from repro.align.scoring import DEFAULT_DNA, PROTEIN_ALPHABET, LinearScoring, blosum62, encode
from repro.align.smith_waterman import LocalHit, sw_score

from conftest import dna_pair, linear_schemes


class TestScore:
    def test_identical(self):
        assert nw_score("ACGT", "ACGT") == 4

    def test_empty_vs_sequence_is_all_gaps(self):
        assert nw_score("", "ACG") == -6
        assert nw_score("ACG", "") == -6

    def test_both_empty(self):
        assert nw_score("", "") == 0

    def test_single_substitution(self):
        assert nw_score("ACGT", "AGGT") == 2  # 3 matches - 1 mismatch

    @given(dna_pair(0, 16), linear_schemes())
    def test_matches_oracle(self, pair, scheme):
        s, t = pair
        oracle = SimilarityMatrix(s, t, scheme, local=False).best()[0]
        assert nw_score(s, t, scheme) == oracle

    @given(dna_pair(0, 16))
    def test_symmetry(self, pair):
        s, t = pair
        assert nw_score(s, t) == nw_score(t, s)

    @given(dna_pair(0, 16))
    def test_global_lower_bounds_local(self, pair):
        # A global alignment is one particular alignment; local takes
        # the best sub-alignment, so sw >= nw always.
        s, t = pair
        assert sw_score(s, t) >= nw_score(s, t)


class TestLastRow:
    @given(dna_pair(1, 14), linear_schemes())
    def test_matches_oracle_row(self, pair, scheme):
        s, t = pair
        row = nw_last_row(encode(s), encode(t), scheme)
        oracle = SimilarityMatrix(s, t, scheme, local=False).scores[len(s), :]
        assert np.array_equal(row, oracle)

    def test_empty_s_is_gap_ramp(self):
        row = nw_last_row(encode(""), encode("ACG"))
        assert row.tolist() == [0, -2, -4, -6]


class TestCellsArgmax:
    @given(dna_pair(1, 14))
    def test_matches_oracle_interior_max(self, pair):
        s, t = pair
        hit = nw_cells_argmax(s, t)
        oracle = SimilarityMatrix(s, t, local=False).scores[1:, 1:]
        assert hit.score == oracle.max()
        # Tie-break: first interior cell in row-major order.
        flat = int(np.argmax(oracle))
        i, j = divmod(flat, oracle.shape[1])
        assert (hit.i, hit.j) == (i + 1, j + 1)

    def test_empty_inputs(self):
        assert nw_cells_argmax("", "ACG") == LocalHit(0, 0, 0)
        assert nw_cells_argmax("ACG", "") == LocalHit(0, 0, 0)

    def test_anchored_semantics(self):
        # Each prefix-pair (k, k) of equal strings aligns perfectly;
        # the interior maximum is the full-length corner.
        hit = nw_cells_argmax("TTAC", "TTAC")
        assert hit == LocalHit(4, 4, 4)
        # With a mismatch tail, the max stops before the tail: prefixes
        # ACG vs ACG score 3; extending to the T/G mismatch drops it.
        hit = nw_cells_argmax("ACGT", "ACGG")
        assert hit.score == 3
        assert (hit.i, hit.j) == (3, 3)


class TestAlign:
    @given(dna_pair(0, 14), linear_schemes())
    def test_alignment_audits_to_score(self, pair, scheme):
        s, t = pair
        aln = nw_align(s, t, scheme)
        aln.validate(s, t)
        assert aln.audit_score(scheme) == aln.score == nw_score(s, t, scheme)

    def test_spans_whole_sequences(self):
        aln = nw_align("ACGT", "AG")
        assert (aln.s_start, aln.s_end) == (0, 4)
        assert (aln.t_start, aln.t_end) == (0, 2)

    def test_empty_side(self):
        aln = nw_align("", "ACG")
        assert aln.s_aligned == "---"
        assert aln.t_aligned == "ACG"


class TestCellsArgmaxBatch:
    """The batched anchored pass equals ``nw_cells_argmax`` per pair."""

    @given(st.lists(dna_pair(0, 20), min_size=1, max_size=8), linear_schemes())
    def test_dna(self, pairs, scheme):
        assert nw_cells_argmax_batch(pairs, scheme) == [
            nw_cells_argmax(s, t, scheme) for s, t in pairs
        ]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="AB", max_size=12), st.text(alphabet="AB", max_size=12)
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([LinearScoring(1, 0, -1), LinearScoring(2, -1, -1)]),
    )
    def test_heavy_ties(self, pairs, scheme):
        assert nw_cells_argmax_batch(pairs, scheme) == [
            nw_cells_argmax(s, t, scheme) for s, t in pairs
        ]

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=PROTEIN_ALPHABET, max_size=16),
                st.text(alphabet=PROTEIN_ALPHABET, max_size=16),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([-4, -8]),
    )
    def test_blosum62(self, pairs, gap):
        scheme = blosum62(gap)
        assert nw_cells_argmax_batch(pairs, scheme) == [
            nw_cells_argmax(s, t, scheme) for s, t in pairs
        ]

    def test_empty_and_single_character_pairs(self):
        pairs = [("", "ACGT"), ("A", "A"), ("ACGT", ""), ("A", "C"), ("GGG", "G")]
        assert nw_cells_argmax_batch(pairs) == [nw_cells_argmax(s, t) for s, t in pairs]

    def test_empty_batch(self):
        assert nw_cells_argmax_batch([]) == []
