"""Jantzen sum formula, its canonical-basis prediction, and their comparison.

The sum formula produces, from hook lengths of a partition alone, a virtual
integer combination of Specht classes.  The same combination is predicted by
the derivative of the decomposition matrix at q = 1; `theorem1_check`
verifies the two agree, both in the Specht basis and, via the q = 1
decomposition numbers, in the simple basis.

Once A and D are built, the rows a check reads come from each matrix's row
index (`PartitionMatrix.row`), so a row costs its nonzeros rather than a
scan of every column.
"""

from __future__ import annotations

from dataclasses import dataclass

from fockdec.canonical import decomposition_matrix
from fockdec.errors import ConventionError
from fockdec.fock import bar_matrix
from fockdec.laurent import Combination, add_into, nu_quantum
from fockdec.partitions import (
    Partition,
    check_modulus,
    check_partition,
    d_symbol,
    dim_specht,
    first_column_betas,
    format_partition,
    hook_length,
    is_regular,
    partition_from_betas,
)

SPECHT = "specht"
SIMPLE = "simple"


class GrothendieckVector(Combination):
    """Integer combination of module classes; its space is the basis tag."""

    __slots__ = ()

    zero_coeff = 0

    def __init__(self, basis: str, terms=None):
        if basis not in (SPECHT, SIMPLE):
            raise ValueError(f"unknown basis tag {basis!r}")
        self.space = basis
        self.terms = {}
        for lam, value in (terms or {}).items():
            lam = check_partition(lam)
            if type(value) is not int:
                raise TypeError(f"non-integer coefficient {value!r} at {lam}")
            if value:
                self.terms[lam] = value

    def __repr__(self):
        if not self.terms:
            return f"GrothendieckVector({self.space}, 0)"
        letter = "S" if self.space == SPECHT else "D"
        bits = " + ".join(
            f"{v}[{letter}({format_partition(lam)})]"
            for lam, v in sorted(self.terms.items(), reverse=True)
        ).replace("+ -", "- ")
        return f"GrothendieckVector({bits})"

    def to_json(self) -> dict:
        return {
            "basis": self.space,
            "coords": {
                format_partition(lam): v for lam, v in sorted(self.terms.items(), reverse=True)
            },
        }


def _sum_formula_terms(lam: Partition, n: int):
    """Yield (weight, beta_sequence) terms of the hook-length double sum.

    The beta-sequences have one entry per row of lam, and the sum runs over
    rows a <= b; padding lam with zero rows would add no term.
    `first_column_betas` raises ValueError unless lam is a partition.
    """
    rows = len(lam)
    betas = first_column_betas(lam, rows)
    for a in range(1, rows + 1):
        for b in range(a, rows + 1):
            for c in range(1, lam[b - 1] + 1):
                h_ac = hook_length(lam, a, c)
                h_bc = hook_length(lam, b, c)
                weight = nu_quantum(h_ac, n) - nu_quantum(h_bc, n)
                if weight == 0:
                    continue
                modified = list(betas)
                modified[a - 1] += h_bc
                modified[b - 1] -= h_bc
                yield weight, tuple(modified)


def schaper_sum_rhs(lam: Partition, n: int) -> GrothendieckVector:
    """The sum-formula right-hand side as a virtual Specht-basis vector."""
    check_modulus(n)
    coords: dict[Partition, int] = {}
    for weight, betas in _sum_formula_terms(lam, n):
        recovered = partition_from_betas(betas)
        if recovered is not None:
            sign, tau = recovered
            add_into(coords, {tau: sign}, weight)
    return GrothendieckVector._make(SPECHT, coords)


def schaper_det_rhs(lam: Partition, n: int) -> int:
    """The Gram-determinant valuation predicted by the same double sum.

    Identical to schaper_sum_rhs with each class replaced by its signed
    generic dimension.
    """
    check_modulus(n)
    return sum(weight * d_symbol(betas) for weight, betas in _sum_formula_terms(lam, n))


def dim_weighting(vector: GrothendieckVector) -> int:
    """Pair a Specht-basis vector with generic Specht dimensions."""
    if vector.space != SPECHT:
        raise ValueError("dimension weighting defined on Specht-basis vectors")
    return sum(value * dim_specht(lam) for lam, value in vector.terms.items())


def jantzen_prediction(lam: Partition, n: int) -> GrothendieckVector:
    """Row lam of the decomposition matrix, differentiated at q = 1.

    Coordinates land on n-regular labels in the simple basis; this is the
    filtration-layer sum the q-exponents encode.
    """
    lam = check_partition(lam)
    dmat = decomposition_matrix(n, sum(lam))
    coords = {}
    for mu, entry in dmat.row(lam).items():
        value = entry.derivative_at_one()
        if value and is_regular(mu, n):
            coords[mu] = value
    return GrothendieckVector._make(SIMPLE, coords)


def gabber_joseph_rhs(lam: Partition, n: int) -> GrothendieckVector:
    """Half the derivative at 1 of row lam of the bar matrix, over Specht classes."""
    lam = check_partition(lam)
    amat = bar_matrix(n, sum(lam))
    coords = {}
    for tau, entry in amat.row(lam).items():
        value = entry.derivative_at_one()
        if value == 0:
            continue
        if value % 2 != 0:
            raise ConventionError(
                f"bar matrix derivative at ({lam}, {tau}) is odd: {value}"
            )
        coords[tau] = value // 2
    return GrothendieckVector._make(SPECHT, coords)


def specht_to_simple(vector: GrothendieckVector, n: int) -> GrothendieckVector:
    """Change of basis via the q = 1 decomposition numbers."""
    check_modulus(n)
    if vector.space != SPECHT:
        raise ValueError("change of basis defined on Specht-basis vectors")
    sizes = {sum(lam) for lam in vector.terms}
    if not sizes:
        return GrothendieckVector(SIMPLE)
    if len(sizes) > 1:
        raise ValueError("mixed degrees in Specht-basis vector")
    dmat = decomposition_matrix(n, sizes.pop())
    coords: dict[Partition, int] = {}
    for tau, value in vector.terms.items():
        at_one = {mu: d.eval_at_one() for mu, d in dmat.row(tau).items() if is_regular(mu, n)}
        add_into(coords, at_one, value)
    return GrothendieckVector._make(SIMPLE, coords)


@dataclass
class Theorem1Report:
    """Comparison of the sum formula against the canonical-basis prediction."""

    lam: Partition
    n: int
    passed: bool
    sum_formula: GrothendieckVector
    derivative_side: GrothendieckVector
    prediction: GrothendieckVector
    sum_formula_simple: GrothendieckVector
    derivative_simple: GrothendieckVector

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"theorem1({format_partition(self.lam) or 'empty'}, n={self.n}): {verdict}"]
        lines.append(f"  sum formula      : {self.sum_formula!r}")
        lines.append(f"  derivative side  : {self.derivative_side!r}")
        if not self.passed:
            lines.append(f"  prediction       : {self.prediction!r}")
            lines.append(f"  sum formula @q=1 : {self.sum_formula_simple!r}")
            lines.append(f"  derivative @q=1  : {self.derivative_simple!r}")
        return "\n".join(lines)


def theorem1_check(lam: Partition, n: int) -> Theorem1Report:
    """Check sum formula == derivative side, and both == prediction at q=1."""
    lam = check_partition(lam)
    sum_formula = schaper_sum_rhs(lam, n)
    derivative_side = gabber_joseph_rhs(lam, n)
    prediction = jantzen_prediction(lam, n)
    sum_simple = specht_to_simple(sum_formula, n)
    derivative_simple = specht_to_simple(derivative_side, n)
    passed = (
        sum_formula == derivative_side
        and sum_simple == prediction
        and derivative_simple == prediction
    )
    return Theorem1Report(
        lam=lam,
        n=n,
        passed=passed,
        sum_formula=sum_formula,
        derivative_side=derivative_side,
        prediction=prediction,
        sum_formula_simple=sum_simple,
        derivative_simple=derivative_simple,
    )
