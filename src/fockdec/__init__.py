"""fockdec: canonical bases of the level-1 q-Fock space and their sum-formula checks.

Exact (integer Laurent polynomial) computation of the bar involution, the
canonical basis and its q-decomposition matrix, the hook-length sum formula
with its Grothendieck-group predictions, and a desk-scale Hecke-algebra
Gram-matrix oracle.  See the README for the CLI and the verification suite.

A public name is imported from its defining module on first use (PEP 562),
so `import fockdec` loads no submodule and a command loads only its layers.
"""

import importlib

__version__ = "0.1.0"

_DEFINED_IN = {
    **dict.fromkeys(
        (
            "DecompositionMatrix",
            "canonical_vector",
            "decomposition_matrix",
            "derivative_identity_check",
            "gj_identity_check",
        ),
        "canonical",
    ),
    **dict.fromkeys(("ConventionError", "StepBudgetExceeded"), "errors"),
    **dict.fromkeys(
        (
            "BarMatrix",
            "FockVector",
            "bar_matrix",
            "bar_partition",
            "bar_vector",
            "partition_from_wedge",
            "straighten",
            "wedge_from_partition",
        ),
        "fock",
    ),
    **dict.fromkeys(
        ("GramMatrix", "gram_det_valuation", "gram_matrix", "gram_rank_at_root"), "hecke"
    ),
    **dict.fromkeys(("LaurentPoly", "cyclotomic", "cyclotomic_valuation", "nu_quantum"), "laurent"),
    **dict.fromkeys(
        (
            "conjugate",
            "d_symbol",
            "dim_specht",
            "dominated_by",
            "first_column_betas",
            "hook_length",
            "is_regular",
            "partition_from_betas",
            "partitions_of",
            "standard_tableaux",
        ),
        "partitions",
    ),
    **dict.fromkeys(
        (
            "GrothendieckVector",
            "gabber_joseph_rhs",
            "jantzen_prediction",
            "schaper_det_rhs",
            "schaper_sum_rhs",
            "specht_to_simple",
            "theorem1_check",
        ),
        "schaper",
    ),
}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name):
    try:
        module = _DEFINED_IN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_DEFINED_IN))
