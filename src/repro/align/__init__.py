"""Software alignment substrate: exact DP algorithms the paper builds on.

Contents map to the paper's section 2:

* scoring schemes and substitution matrices (section 2.1),
* the full-matrix Smith-Waterman oracle with traceback (section 2.2),
* linear-space score + coordinate kernels (section 2.3 phase 1),
* Hirschberg's linear-space global alignment ([15]),
* the complete linear-space local-alignment pipeline (section 2.3),
* Gotoh's affine-gap variant ([11]) used by the related-work models.
"""

from .divergence import (
    banded_global_align,
    local_align_banded,
    locate_with_divergence,
)
from .generic_dp import (
    Recurrence,
    edit_distance,
    lcs_length,
    smith_waterman_recurrence,
    sweep,
)
from .gotoh import gotoh_align, gotoh_locate_best, gotoh_score
from .hirschberg import hirschberg_align, hirschberg_align_batch, hirschberg_crossing
from .local_linear import (
    LocalPipelineResult,
    local_align_batch,
    local_align_linear,
    locate_span,
)
from .matrix import PTR_DIAG, PTR_LEFT, PTR_UP, SimilarityMatrix
from .myers_miller import (
    gotoh_cells_argmax,
    local_align_affine,
    myers_miller_align,
)
from .near_best import lane_candidates, near_best_alignments
from .needleman_wunsch import (
    nw_align,
    nw_cells_argmax,
    nw_cells_argmax_batch,
    nw_last_row,
    nw_score,
)
from .scoring import (
    DEFAULT_DNA,
    DNA_ALPHABET,
    PROTEIN_ALPHABET,
    AffineScoring,
    LinearScoring,
    SubstitutionMatrix,
    blosum62,
    decode,
    encode,
)
from .semiglobal import semiglobal_align, semiglobal_locate
from .smith_waterman import LocalHit, sw_align, sw_locate_best, sw_score
from .traceback import GAP, Alignment
from .ukkonen import UkkonenResult, ukkonen_edit_distance

__all__ = [
    "GAP",
    "Alignment",
    "LocalHit",
    "LocalPipelineResult",
    "SimilarityMatrix",
    "PTR_DIAG",
    "PTR_LEFT",
    "PTR_UP",
    "LinearScoring",
    "AffineScoring",
    "SubstitutionMatrix",
    "DEFAULT_DNA",
    "DNA_ALPHABET",
    "PROTEIN_ALPHABET",
    "blosum62",
    "encode",
    "decode",
    "sw_align",
    "sw_score",
    "sw_locate_best",
    "nw_align",
    "nw_score",
    "nw_last_row",
    "nw_cells_argmax",
    "nw_cells_argmax_batch",
    "hirschberg_align",
    "hirschberg_align_batch",
    "hirschberg_crossing",
    "gotoh_align",
    "gotoh_score",
    "gotoh_locate_best",
    "local_align_linear",
    "local_align_batch",
    "locate_span",
    "near_best_alignments",
    "lane_candidates",
    "banded_global_align",
    "local_align_banded",
    "locate_with_divergence",
    "Recurrence",
    "sweep",
    "edit_distance",
    "lcs_length",
    "smith_waterman_recurrence",
    "myers_miller_align",
    "local_align_affine",
    "gotoh_cells_argmax",
    "semiglobal_align",
    "semiglobal_locate",
    "ukkonen_edit_distance",
    "UkkonenResult",
]
