"""fockdec: canonical bases of the level-1 q-Fock space and their sum-formula checks.

Exact (integer Laurent polynomial) computation of the bar involution, the
canonical basis and its q-decomposition matrix, the hook-length sum formula
with its Grothendieck-group predictions, and a desk-scale Hecke-algebra
Gram-matrix oracle.  See the README for the CLI and the verification suite.
"""

from fockdec.canonical import (
    DecompositionMatrix,
    canonical_vector,
    decomposition_matrix,
    derivative_identity_check,
    gj_identity_check,
)
from fockdec.errors import ConventionError, StepBudgetExceeded
from fockdec.fock import (
    BarMatrix,
    FockVector,
    bar_matrix,
    bar_partition,
    bar_vector,
    partition_from_wedge,
    straighten,
    wedge_from_partition,
)
from fockdec.hecke import (
    GramMatrix,
    gram_det_valuation,
    gram_matrix,
    gram_rank_at_root,
)
from fockdec.laurent import (
    LaurentPoly,
    cyclotomic,
    cyclotomic_valuation,
    nu_quantum,
)
from fockdec.partitions import (
    conjugate,
    d_symbol,
    dim_specht,
    dominated_by,
    first_column_betas,
    hook_length,
    is_regular,
    partition_from_betas,
    partitions_of,
    standard_tableaux,
)
from fockdec.schaper import (
    GrothendieckVector,
    gabber_joseph_rhs,
    jantzen_prediction,
    schaper_det_rhs,
    schaper_sum_rhs,
    specht_to_simple,
    theorem1_check,
)

__version__ = "0.1.0"

__all__ = [
    "BarMatrix",
    "ConventionError",
    "DecompositionMatrix",
    "FockVector",
    "GramMatrix",
    "GrothendieckVector",
    "LaurentPoly",
    "StepBudgetExceeded",
    "bar_matrix",
    "bar_partition",
    "bar_vector",
    "canonical_vector",
    "conjugate",
    "cyclotomic",
    "cyclotomic_valuation",
    "d_symbol",
    "decomposition_matrix",
    "derivative_identity_check",
    "dim_specht",
    "dominated_by",
    "first_column_betas",
    "gabber_joseph_rhs",
    "gj_identity_check",
    "gram_det_valuation",
    "gram_matrix",
    "gram_rank_at_root",
    "hook_length",
    "is_regular",
    "jantzen_prediction",
    "nu_quantum",
    "partition_from_betas",
    "partition_from_wedge",
    "partitions_of",
    "schaper_det_rhs",
    "schaper_sum_rhs",
    "specht_to_simple",
    "standard_tableaux",
    "straighten",
    "theorem1_check",
    "wedge_from_partition",
]
