"""Scoring schemes for pairwise sequence alignment.

The paper (section 2.1) uses a *linear gap* model with the classic
DNA scoring of +1 for a match, -1 for a mismatch and -2 per gap
character.  The hardware datapath of figure 6 carries exactly these
three constants as the ``Co`` (coincidence), ``Su`` (substitution) and
``In/Re`` (insertion/removal) inputs of each processing element, so the
:class:`LinearScoring` scheme is the one the accelerator implements.

For the software substrate we additionally provide

* :class:`AffineScoring` — the Gotoh affine-gap model ``g(k) = open +
  (k-1) * extend`` used by several of the related-work architectures
  the paper compares against, and
* :class:`SubstitutionMatrix` — general alphabet-indexed substitution
  scores (unitary DNA matrix, BLOSUM62 for proteins), so that the
  protein workloads of Table 1 (SAMBA, PROSIDIS) can be expressed.

All schemes are immutable value objects; they can be shared freely
between the software algorithms, the NumPy emulator and the
cycle-accurate RTL simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "DNA_ALPHABET",
    "PROTEIN_ALPHABET",
    "LinearScoring",
    "AffineScoring",
    "SubstitutionMatrix",
    "DEFAULT_DNA",
    "blosum62",
    "encode",
    "decode",
]

#: Canonical nucleotide alphabet used by the generators and examples.
DNA_ALPHABET = "ACGT"

#: The 20 standard amino acids, in the conventional BLOSUM ordering.
PROTEIN_ALPHABET = "ARNDCQEGHILKMFPSTWYV"


def encode(seq: str | bytes | np.ndarray) -> np.ndarray:
    """Encode a sequence as a NumPy ``uint8`` array of ASCII codes.

    Encoding once up front lets every inner DP kernel compare raw bytes
    with vectorized ``==`` instead of Python-level character compares.
    ``str`` input is upper-cased first, so ``"acgt"`` and ``"ACGT"``
    encode identically.  NumPy arrays pass through (cast to ``uint8``).
    """
    if isinstance(seq, np.ndarray):
        return np.ascontiguousarray(seq, dtype=np.uint8)
    if isinstance(seq, str):
        seq = seq.upper().encode("ascii")
    return np.frombuffer(bytes(seq), dtype=np.uint8).copy()


def decode(arr: np.ndarray) -> str:
    """Inverse of :func:`encode`: ASCII codes back to a Python string."""
    return bytes(np.asarray(arr, dtype=np.uint8)).decode("ascii")


@dataclass(frozen=True)
class LinearScoring:
    """Match / mismatch / linear-gap scoring (paper equation (1)).

    Attributes
    ----------
    match:
        Score added when the two characters are identical (``Co`` in
        figure 6).  Must be positive for local alignment to be
        meaningful.
    mismatch:
        Score added when the characters differ (``Su``).  Normally
        negative.
    gap:
        Score added per gap character (``In/Re``).  Normally negative;
        stored as the signed value, i.e. the paper's "-2 gap penalty"
        is ``gap=-2``.
    """

    match: int = 1
    mismatch: int = -1
    gap: int = -2

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError(f"match score must be positive, got {self.match}")
        if self.mismatch >= self.match:
            raise ValueError(
                f"mismatch score ({self.mismatch}) must be below match ({self.match})"
            )
        if self.gap >= 0:
            raise ValueError(f"gap penalty must be negative, got {self.gap}")

    def pair(self, a: int | str, b: int | str) -> int:
        """Score of aligning character ``a`` against character ``b``."""
        if isinstance(a, str):
            a = ord(a.upper())
        if isinstance(b, str):
            b = ord(b.upper())
        return self.match if a == b else self.mismatch

    def pair_vector(self, a: int, t: np.ndarray) -> np.ndarray:
        """Vector of pair scores of one character against a sequence."""
        return np.where(t == a, self.match, self.mismatch).astype(np.int64)

    def substitution_rows(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Dense ``len(s) x len(t)`` substitution-score matrix.

        Used by the row-sweeping NumPy kernels; for very long ``t`` the
        kernels call :meth:`pair_vector` per row instead to stay in
        linear memory.
        """
        return np.where(
            s[:, None] == t[None, :], self.match, self.mismatch
        ).astype(np.int64)

    def pair_scores(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise pair scores of two equal-length code arrays."""
        return np.where(a == b, self.match, self.mismatch)

    def pair_range(self) -> tuple[int, int]:
        """Smallest and largest score any two characters can pair for."""
        return self.mismatch, self.match


@dataclass(frozen=True)
class AffineScoring:
    """Affine-gap scoring ``g(k) = gap_open + (k - 1) * gap_extend``.

    ``gap_open`` is the (negative) cost of the *first* gap character of
    a run and ``gap_extend`` the cost of each subsequent one.  With
    ``gap_open == gap_extend`` this degenerates to :class:`LinearScoring`
    — a property the test-suite checks against the Gotoh implementation.
    """

    match: int = 1
    mismatch: int = -1
    gap_open: int = -3
    gap_extend: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError(f"match score must be positive, got {self.match}")
        if self.gap_open >= 0 or self.gap_extend >= 0:
            raise ValueError(
                "gap_open and gap_extend must be negative, got "
                f"{self.gap_open}/{self.gap_extend}"
            )
        if self.gap_extend < self.gap_open:
            raise ValueError(
                "gap_extend must not be more costly than gap_open "
                f"(got open={self.gap_open}, extend={self.gap_extend})"
            )

    def pair(self, a: int | str, b: int | str) -> int:
        if isinstance(a, str):
            a = ord(a.upper())
        if isinstance(b, str):
            b = ord(b.upper())
        return self.match if a == b else self.mismatch

    def pair_vector(self, a: int, t: np.ndarray) -> np.ndarray:
        return np.where(t == a, self.match, self.mismatch).astype(np.int64)

    def linear_equivalent(self) -> LinearScoring:
        """The linear scheme this degenerates to when open == extend.

        Raises ``ValueError`` when the scheme is genuinely affine.
        """
        if self.gap_open != self.gap_extend:
            raise ValueError(
                "affine scheme with open != extend has no linear equivalent"
            )
        return LinearScoring(self.match, self.mismatch, self.gap_open)


class SubstitutionMatrix:
    """Alphabet-indexed substitution scores with a linear gap penalty.

    Generalizes :class:`LinearScoring` to arbitrary per-pair scores
    (e.g. BLOSUM62).  Internally stored as a dense 256x256 ``int64``
    lookup table indexed by ASCII code, so the DP kernels can gather
    scores with plain NumPy fancy indexing.
    """

    def __init__(
        self,
        alphabet: str,
        scores: Mapping[tuple[str, str], int],
        gap: int = -2,
        name: str = "custom",
    ) -> None:
        if gap >= 0:
            raise ValueError(f"gap penalty must be negative, got {gap}")
        self.alphabet = alphabet
        self.gap = gap
        self.name = name
        table = np.zeros((256, 256), dtype=np.int64)
        seen = set()
        for (a, b), v in scores.items():
            ia, ib = ord(a.upper()), ord(b.upper())
            table[ia, ib] = v
            table[ib, ia] = v
            seen.add(a.upper())
            seen.add(b.upper())
        missing = set(alphabet.upper()) - seen
        if missing:
            raise ValueError(f"no scores provided for alphabet symbols {sorted(missing)}")
        self._table = table

    def pair(self, a: int | str, b: int | str) -> int:
        if isinstance(a, str):
            a = ord(a.upper())
        if isinstance(b, str):
            b = ord(b.upper())
        return int(self._table[a, b])

    def pair_vector(self, a: int, t: np.ndarray) -> np.ndarray:
        return self._table[a, t]

    def substitution_rows(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self._table[s[:, None], t[None, :]]

    def pair_scores(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise pair scores of two equal-length code arrays."""
        return self._table[a, b]

    def pair_range(self) -> tuple[int, int]:
        """Smallest and largest score any two byte codes pair for.

        Unlike :meth:`max_score` this covers the whole table, characters
        outside the alphabet included, so it bounds every pair a
        sequence can contain.
        """
        return int(self._table.min()), int(self._table.max())

    def max_score(self) -> int:
        """Largest pair score over the declared alphabet (for bounds)."""
        codes = encode(self.alphabet)
        return int(self._table[np.ix_(codes, codes)].max())

    def with_mask_penalty(self, chars: str, penalty: int | None = None) -> "SubstitutionMatrix":
        """A copy where ``chars`` score ``penalty`` against everything.

        Used by the near-best iteration to make mask sentinels
        unalignable: the default table scores unknown characters 0,
        which would let alignments cross masked spans for free.  The
        default penalty is one below the most negative alphabet score.
        """
        if penalty is None:
            codes = encode(self.alphabet)
            penalty = int(self._table[np.ix_(codes, codes)].min()) - 1
        if penalty >= 0:
            raise ValueError(f"mask penalty must be negative, got {penalty}")
        clone = SubstitutionMatrix.__new__(SubstitutionMatrix)
        clone.alphabet = self.alphabet
        clone.gap = self.gap
        clone.name = f"{self.name}+mask"
        table = self._table.copy()
        for ch in chars:
            code = ord(ch.upper())
            table[code, :] = penalty
            table[:, code] = penalty
        clone._table = table
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SubstitutionMatrix({self.name!r}, |alphabet|={len(self.alphabet)}, gap={self.gap})"


#: The scheme used throughout the paper: +1 / -1 / -2.
DEFAULT_DNA = LinearScoring(match=1, mismatch=-1, gap=-2)


# BLOSUM62 in compact row-major upper-triangle form, standard ordering
# ARNDCQEGHILKMFPSTWYV.  Values from Henikoff & Henikoff (1992).
_BLOSUM62_ROWS = [
    # A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -2],
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -2, 4],
]


def blosum62(gap: int = -8) -> SubstitutionMatrix:
    """The BLOSUM62 substitution matrix with a linear gap penalty.

    The related-work protein architectures of Table 1 (SAMBA, PROSIDIS)
    score amino-acid comparisons; this gives the software substrate the
    same vocabulary.  ``gap=-8`` is a conventional linear penalty used
    with BLOSUM62.
    """
    scores: dict[tuple[str, str], int] = {}
    for i, a in enumerate(PROTEIN_ALPHABET):
        for j, b in enumerate(PROTEIN_ALPHABET):
            if j < i:
                continue
            scores[(a, b)] = _BLOSUM62_ROWS[i][j]
    return SubstitutionMatrix(PROTEIN_ALPHABET, scores, gap=gap, name="BLOSUM62")
