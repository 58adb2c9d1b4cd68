"""Alignment representation, auditing and pretty-printing.

Every algorithm in :mod:`repro.align` that retrieves an actual
alignment returns an :class:`Alignment`.  The object is deliberately
self-auditing: it stores the gapped strings *and* the claimed score and
coordinates, and :meth:`Alignment.audit_score` /
:meth:`Alignment.validate` recompute everything from first principles.
The test-suite leans on this heavily — any DP bookkeeping bug that
produces an inconsistent alignment is caught at the object boundary
rather than deep inside a kernel.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .scoring import AffineScoring, LinearScoring, SubstitutionMatrix

__all__ = ["Alignment", "GAP"]

#: Gap character used in aligned strings.
GAP = "-"

_GAP_RUN = re.compile(re.escape(GAP) + "+")
#: Midline byte of a column from its equality flag: ``.`` (0) or ``|`` (1).
_MIDLINE = bytes.maketrans(b"\x00\x01", b".|")


@dataclass(frozen=True)
class Alignment:
    """A pairwise alignment between slices of two sequences.

    Attributes
    ----------
    s_aligned, t_aligned:
        The aligned strings, equal length, with :data:`GAP` characters
        inserted.  ``s_aligned`` with gaps removed equals
        ``s[s_start:s_end]``, likewise for ``t``.
    score:
        The score claimed by the producing algorithm.
    s_start, s_end, t_start, t_end:
        0-based half-open coordinates of the aligned region in the
        *original* (ungapped) sequences.  For a global alignment these
        span the whole sequences.
    """

    s_aligned: str
    t_aligned: str
    score: int
    s_start: int = 0
    s_end: int = field(default=-1)
    t_start: int = 0
    t_end: int = field(default=-1)

    def __post_init__(self) -> None:
        if len(self.s_aligned) != len(self.t_aligned):
            raise ValueError(
                "aligned strings differ in length: "
                f"{len(self.s_aligned)} vs {len(self.t_aligned)}"
            )
        # Default end coordinates from the gapped strings themselves.
        if self.s_end == -1:
            object.__setattr__(
                self, "s_end", self.s_start + self._ungapped_len(self.s_aligned)
            )
        if self.t_end == -1:
            object.__setattr__(
                self, "t_end", self.t_start + self._ungapped_len(self.t_aligned)
            )
        for start, end in self._gap_runs[0]:
            col = self.t_aligned.find(GAP, start, end)
            if col >= 0:
                raise ValueError(f"column {col} aligns a gap against a gap")

    @staticmethod
    def _ungapped_len(aligned: str) -> int:
        return len(aligned) - aligned.count(GAP)

    # The column views below are derived once per alignment and shared
    # by the counts, the midline and the CIGAR string.
    @cached_property
    def _gap_runs(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Half-open column ranges of the maximal gap runs of ``s_aligned``
        and of ``t_aligned``."""
        s_runs, t_runs = (
            [run.span() for run in _GAP_RUN.finditer(row)]
            for row in (self.s_aligned, self.t_aligned)
        )
        return s_runs, t_runs

    @cached_property
    def _equal(self) -> bytes:
        """One byte per column: 1 where both rows hold the same character."""
        return bytes(map(operator.eq, self.s_aligned, self.t_aligned))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of alignment columns."""
        return len(self.s_aligned)

    @property
    def s_slice(self) -> str:
        """The s-side of the alignment with gaps removed."""
        return self.s_aligned.replace(GAP, "")

    @property
    def t_slice(self) -> str:
        """The t-side of the alignment with gaps removed."""
        return self.t_aligned.replace(GAP, "")

    def columns(self) -> list[tuple[str, str]]:
        """The alignment as a list of character-pair columns."""
        return list(zip(self.s_aligned, self.t_aligned))

    def matches(self) -> int:
        """Number of identical (match) columns."""
        # No column aligns a gap against a gap, so equal columns are matches.
        return self._equal.count(1)

    def mismatches(self) -> int:
        """Number of substitution (mismatch, non-gap) columns."""
        return len(self) - self.matches() - self.gaps()

    def gaps(self) -> int:
        """Number of gap characters across both rows."""
        return self.s_aligned.count(GAP) + self.t_aligned.count(GAP)

    def identity(self) -> float:
        """Fraction of columns that are matches (0.0 for empty)."""
        return self.matches() / len(self) if len(self) else 0.0

    def cigar(self) -> str:
        """Compact CIGAR string: ``M`` match/mismatch, ``I`` insertion
        in s (gap in t), ``D`` deletion from s (gap in s)."""
        # Gap runs of s are D runs and those of t are I runs; they never
        # share a column, and M fills the columns between them.
        s_runs, t_runs = self._gap_runs
        runs = sorted([(*run, "D") for run in s_runs] + [(*run, "I") for run in t_runs])
        out: list[str] = []
        col = 0
        for start, end, op in runs:
            if start > col:
                out.append(f"{start - col}M")
            out.append(f"{end - start}{op}")
            col = end
        if len(self) > col:
            out.append(f"{len(self) - col}M")
        return "".join(out)

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def audit_score(
        self, scheme: "LinearScoring | AffineScoring | SubstitutionMatrix"
    ) -> int:
        """Recompute the score of this alignment from its columns.

        Handles both linear and affine schemes: for affine schemes a
        run of ``k`` gaps costs ``gap_open + (k - 1) * gap_extend``.
        """
        from .scoring import AffineScoring  # local import avoids a cycle

        total = 0
        if isinstance(scheme, AffineScoring):
            in_gap_s = in_gap_t = False
            for a, b in zip(self.s_aligned, self.t_aligned):
                if a == GAP:
                    total += scheme.gap_extend if in_gap_s else scheme.gap_open
                    in_gap_s, in_gap_t = True, False
                elif b == GAP:
                    total += scheme.gap_extend if in_gap_t else scheme.gap_open
                    in_gap_s, in_gap_t = False, True
                else:
                    total += scheme.pair(a, b)
                    in_gap_s = in_gap_t = False
            return total
        for a, b in zip(self.s_aligned, self.t_aligned):
            if a == GAP or b == GAP:
                total += scheme.gap
            else:
                total += scheme.pair(a, b)
        return total

    def validate(self, s: str, t: str) -> None:
        """Check internal consistency against the original sequences.

        Raises ``ValueError`` on the first inconsistency: coordinates
        out of range, or gapped strings that do not reproduce the
        claimed slices of ``s`` and ``t``.
        """
        s, t = s.upper(), t.upper()
        if not (0 <= self.s_start <= self.s_end <= len(s)):
            raise ValueError(
                f"s coordinates [{self.s_start}, {self.s_end}) out of range for |s|={len(s)}"
            )
        if not (0 <= self.t_start <= self.t_end <= len(t)):
            raise ValueError(
                f"t coordinates [{self.t_start}, {self.t_end}) out of range for |t|={len(t)}"
            )
        if self.s_slice != s[self.s_start : self.s_end]:
            raise ValueError(
                "s side of alignment does not match s[%d:%d]"
                % (self.s_start, self.s_end)
            )
        if self.t_slice != t[self.t_start : self.t_end]:
            raise ValueError(
                "t side of alignment does not match t[%d:%d]"
                % (self.t_start, self.t_end)
            )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def midline(self) -> str:
        """The classic midline: ``|`` match, ``.`` mismatch, space gap."""
        out = bytearray(self._equal.translate(_MIDLINE))
        for runs in self._gap_runs:
            for start, end in runs:
                out[start:end] = b" " * (end - start)
        return out.decode("ascii")

    def pretty(self, width: int = 60) -> str:
        """Multi-line rendering in blocks of ``width`` columns.

        Mirrors figure 1 of the paper (sequences above one another with
        the score); coordinates shown are 1-based positions in the
        original sequences, the convention of the similarity matrix.
        """
        mid = self.midline()
        blocks: list[str] = []
        s_pos, t_pos = self.s_start, self.t_start
        for off in range(0, max(len(self), 1), width):
            sa = self.s_aligned[off : off + width]
            ta = self.t_aligned[off : off + width]
            ml = mid[off : off + width]
            s_adv = len(sa) - sa.count(GAP)
            t_adv = len(ta) - ta.count(GAP)
            blocks.append(
                "\n".join(
                    (
                        f"s {s_pos + 1:>8}  {sa}",
                        f"            {ml}",
                        f"t {t_pos + 1:>8}  {ta}",
                    )
                )
            )
            s_pos += s_adv
            t_pos += t_adv
        header = (
            f"score={self.score}  s[{self.s_start + 1}..{self.s_end}]"
            f"  t[{self.t_start + 1}..{self.t_end}]"
            f"  identity={self.identity():.1%}  cigar={self.cigar()}"
        )
        return header + "\n" + "\n\n".join(blocks)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()
