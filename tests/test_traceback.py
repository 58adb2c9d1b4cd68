"""Unit tests for repro.align.traceback (the Alignment object)."""

import pytest
from hypothesis import given, strategies as st

from repro.align.scoring import DEFAULT_DNA, AffineScoring, LinearScoring
from repro.align.smith_waterman import sw_align
from repro.align.traceback import GAP, Alignment

from conftest import dna_pair


def make(s_aligned: str, t_aligned: str, score: int = 0, **kw) -> Alignment:
    return Alignment(s_aligned, t_aligned, score, **kw)


# Character-at-a-time oracles of the rendered views: the definitions the
# Alignment methods must reproduce byte for byte.
def oracle_matches(aln: Alignment) -> int:
    return sum(1 for a, b in zip(aln.s_aligned, aln.t_aligned) if a == b and a != GAP)


def oracle_midline(aln: Alignment) -> str:
    out = []
    for a, b in zip(aln.s_aligned, aln.t_aligned):
        if a == GAP or b == GAP:
            out.append(" ")
        elif a == b:
            out.append("|")
        else:
            out.append(".")
    return "".join(out)


def oracle_cigar(aln: Alignment) -> str:
    ops = []
    for a, b in zip(aln.s_aligned, aln.t_aligned):
        ops.append("D" if a == GAP else "I" if b == GAP else "M")
    out = []
    i = 0
    while i < len(ops):
        j = i
        while j < len(ops) and ops[j] == ops[i]:
            j += 1
        out.append(f"{j - i}{ops[i]}")
        i = j
    return "".join(out)


def oracle_pretty(aln: Alignment, width: int = 60) -> str:
    mid = oracle_midline(aln)
    blocks = []
    s_pos, t_pos = aln.s_start, aln.t_start
    for off in range(0, max(len(aln), 1), width):
        sa = aln.s_aligned[off : off + width]
        ta = aln.t_aligned[off : off + width]
        blocks.append(
            f"s {s_pos + 1:>8}  {sa}\n            {mid[off : off + width]}\nt {t_pos + 1:>8}  {ta}"
        )
        s_pos += len(sa) - sa.count(GAP)
        t_pos += len(ta) - ta.count(GAP)
    identity = oracle_matches(aln) / len(aln) if len(aln) else 0.0
    header = (
        f"score={aln.score}  s[{aln.s_start + 1}..{aln.s_end}]"
        f"  t[{aln.t_start + 1}..{aln.t_end}]"
        f"  identity={identity:.1%}  cigar={oracle_cigar(aln)}"
    )
    return header + "\n" + "\n\n".join(blocks)


#: Column kinds of a random gapped pair.
_COLUMN_PAIRS = {
    "match": st.sampled_from("ACGT").map(lambda a: (a, a)),
    "mismatch": st.sampled_from([(a, b) for a in "ACGT" for b in "ACGT" if a != b]),
    "s_gap": st.sampled_from("ACGT").map(lambda b: (GAP, b)),
    "t_gap": st.sampled_from("ACGT").map(lambda a: (a, GAP)),
}


@st.composite
def gapped_pairs(draw):
    """Aligned rows of a random alignment: 0 to 130 columns (the 59, 60
    and 61 around the 60-column block edge among them), each side
    possibly all gaps, runs of every column kind."""
    length = draw(st.one_of(st.sampled_from([0, 1, 59, 60, 61]), st.integers(0, 130)))
    kinds = draw(
        st.sampled_from(
            [
                ("match", "mismatch", "s_gap", "t_gap"),
                ("match", "s_gap"),
                ("mismatch", "t_gap"),
                ("s_gap",),
                ("t_gap",),
            ]
        )
    )
    columns = []
    while len(columns) < length:
        kind = draw(st.sampled_from(kinds))
        run = draw(st.integers(1, min(8, length - len(columns))))
        columns += [draw(_COLUMN_PAIRS[kind]) for _ in range(run)]
    return "".join(a for a, _ in columns), "".join(b for _, b in columns)


class TestConstruction:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="differ in length"):
            make("AC", "A")

    def test_gap_vs_gap_raises(self):
        with pytest.raises(ValueError, match="gap against a gap"):
            make("A-C", "A-C")

    def test_end_coordinates_derived(self):
        aln = make("AC-G", "ACTG", s_start=2, t_start=5)
        assert aln.s_end == 2 + 3  # three non-gap s chars
        assert aln.t_end == 5 + 4

    def test_empty_alignment(self):
        aln = make("", "")
        assert len(aln) == 0
        assert aln.identity() == 0.0
        assert aln.cigar() == ""


class TestDerived:
    def test_slices(self):
        aln = make("AC-G", "A-TG")
        assert aln.s_slice == "ACG"
        assert aln.t_slice == "ATG"

    def test_counts(self):
        aln = make("ACGT-A", "AC-TCA")
        assert aln.matches() == 4  # A, C, T, A
        assert aln.mismatches() == 0
        assert aln.gaps() == 2

    def test_mismatches(self):
        aln = make("ACGT", "AGGT")
        assert aln.mismatches() == 1
        assert aln.matches() == 3

    def test_identity(self):
        aln = make("ACGT", "AGGT")
        assert aln.identity() == pytest.approx(0.75)

    def test_cigar_runs(self):
        aln = make("AAA--CC", "AAATTCC")
        assert aln.cigar() == "3M2D2M"

    def test_cigar_insertion(self):
        aln = make("AAT", "A-T")
        assert aln.cigar() == "1M1I1M"

    def test_columns(self):
        aln = make("A-", "AT")
        assert aln.columns() == [("A", "A"), ("-", "T")]

    def test_midline(self):
        aln = make("ACG-", "AGGT")
        assert aln.midline() == "|.| "


class TestAuditScore:
    def test_linear(self):
        aln = make("ACG-T", "AGGTT")
        # match(1) + mismatch(-1) + match(1) + gap(-2) + match(1) = 0
        assert aln.audit_score(DEFAULT_DNA) == 0

    def test_linear_custom(self):
        scheme = LinearScoring(match=3, mismatch=-2, gap=-4)
        aln = make("AC", "AC")
        assert aln.audit_score(scheme) == 6

    def test_affine_single_run(self):
        scheme = AffineScoring(match=1, mismatch=-1, gap_open=-5, gap_extend=-1)
        aln = make("A---C", "ATTTC")
        # 1 + (-5 -1 -1) + 1 = -5
        assert aln.audit_score(scheme) == -5

    def test_affine_two_runs(self):
        scheme = AffineScoring(match=1, mismatch=-1, gap_open=-5, gap_extend=-1)
        aln = make("A-C-G", "ATCTG")
        # two separate length-1 runs: 1 -5 + 1 -5 + 1 = -7
        assert aln.audit_score(scheme) == -7

    def test_affine_run_switching_sides(self):
        scheme = AffineScoring(match=1, mismatch=-1, gap_open=-5, gap_extend=-1)
        # gap in s then gap in t: separate runs, both opened.
        aln = make("A-TG", "ACT-")
        assert aln.audit_score(scheme) == 1 - 5 + 1 - 5

    @given(dna_pair(1, 16))
    def test_sw_alignments_self_audit(self, pair):
        s, t = pair
        aln = sw_align(s, t)
        assert aln.audit_score(DEFAULT_DNA) == aln.score


class TestValidate:
    def test_valid(self):
        aln = make("GAC", "GAC", score=3, s_start=4, t_start=4)
        aln.validate("TATGGAC", "TAGTGACT")

    def test_wrong_slice_raises(self):
        aln = make("GAC", "GAC", score=3, s_start=0, t_start=4)
        with pytest.raises(ValueError, match="s side"):
            aln.validate("TATGGAC", "TAGTGACT")

    def test_out_of_range_raises(self):
        aln = make("GAC", "GAC", s_start=90, t_start=0)
        with pytest.raises(ValueError, match="out of range"):
            aln.validate("TATGGAC", "TAGTGACT")

    def test_case_insensitive(self):
        aln = make("GAC", "GAC", s_start=4, t_start=4)
        aln.validate("tatggac", "tagtgact")


class TestPretty:
    def test_contains_score_and_coords(self):
        aln = make("GAC", "GAC", score=3, s_start=4, t_start=4)
        text = aln.pretty()
        assert "score=3" in text
        assert "s[5..7]" in text
        assert "cigar=3M" in text

    def test_wraps_blocks(self):
        aln = make("A" * 130, "A" * 130)
        text = aln.pretty(width=60)
        # 130 columns at width 60 -> 3 blocks, each with 3 lines.
        assert text.count("s ") >= 3

    def test_block_coordinates_advance(self):
        aln = make("A" * 70, "A" * 70)
        text = aln.pretty(width=60)
        assert "s       61" in text


class TestRenderingOracles:
    """Counts, midline, CIGAR and pretty text equal the char-loop oracles."""

    @given(gapped_pairs(), st.integers(0, 50), st.integers(0, 50))
    def test_random_gapped_pairs(self, pair, s_start, t_start):
        aln = make(*pair, score=7, s_start=s_start, t_start=t_start)
        assert aln.matches() == oracle_matches(aln)
        assert aln.mismatches() == sum(
            1 for a, b in aln.columns() if a != b and GAP not in (a, b)
        )
        assert aln.midline() == oracle_midline(aln)
        assert aln.cigar() == oracle_cigar(aln)
        assert aln.pretty() == oracle_pretty(aln)
        assert aln.pretty(width=7) == oracle_pretty(aln, width=7)

    @pytest.mark.parametrize(
        "s_aligned, t_aligned",
        [("", ""), ("----", "ACGT"), ("ACGT", "----"), ("A" * 59, "A" * 59),
         ("AC" * 30, "AG" * 30), ("A-" * 30 + "C", "-A" * 30 + "C")],
    )
    def test_edge_shapes(self, s_aligned, t_aligned):
        aln = make(s_aligned, t_aligned, score=1)
        assert aln.matches() == oracle_matches(aln)
        assert aln.midline() == oracle_midline(aln)
        assert aln.cigar() == oracle_cigar(aln)
        assert aln.pretty() == oracle_pretty(aln)

    @given(gapped_pairs(), st.data())
    def test_gap_against_gap_names_the_first_such_column(self, pair, data):
        s_aligned, t_aligned = pair
        cols = sorted(
            data.draw(st.sets(st.integers(0, len(s_aligned)), min_size=1, max_size=3))
        )
        for col in reversed(cols):
            s_aligned = s_aligned[:col] + GAP + s_aligned[col:]
            t_aligned = t_aligned[:col] + GAP + t_aligned[col:]
        first = next(
            k for k, (a, b) in enumerate(zip(s_aligned, t_aligned)) if a == b == GAP
        )
        with pytest.raises(ValueError, match=f"^column {first} aligns a gap against a gap$"):
            make(s_aligned, t_aligned)
