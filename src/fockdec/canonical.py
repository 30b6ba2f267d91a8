"""Bar-invariant canonical basis and the q-decomposition matrix.

Each basis vector G(lam) is the unique bar-invariant vector congruent to
|lam> modulo the q-lattice.  It is found by a triangular solve along
`partitions_of(m)`, which extends dominance: walking down from lam, the
residual at each mu is bar-antisymmetric and admits a unique lift into
q.Z[q].  `DecompositionMatrix.validate` then rejects any lattice
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from fockdec.errors import ConventionError
from fockdec.fock import BarMatrix, FockVector, bar_matrix
from fockdec.laurent import LaurentPoly, add_into, add_product, add_scaled
from fockdec.matrices import PartitionMatrix
from fockdec.partitions import (
    Partition,
    check_degree,
    check_modulus,
    check_partition,
    format_partition,
    partitions_of,
)


def _antisymmetric_lift(r: dict) -> LaurentPoly:
    """Unique x in q.Z[q] with x - bar(x) = r, for a bar-antisymmetric raw table r."""
    if any(r.get(-e) != -c for e, c in r.items()):
        raise ConventionError(
            f"residual {LaurentPoly(r)} is not antisymmetric under q -> q^-1; "
            "the bar involution convention is broken upstream"
        )
    return LaurentPoly({e: c for e, c in r.items() if e > 0})


class DecompositionMatrix(PartitionMatrix):
    """Columns are canonical basis vectors expanded in the partition basis."""

    def validate(self) -> None:
        self._check_unitriangular(
            LaurentPoly.is_q_multiple,
            "off-diagonal entry at {row}, {col} not in q.Z[q]: {entry}",
        )


def _solve_column(lam: Partition, amat: BarMatrix) -> dict[Partition, LaurentPoly]:
    """Triangular solve for the bar-invariant column congruent to |lam>.

    The walk goes down `partitions_of(m)` from lam.  Once x_tau is final,
    A[mu, tau] * bar(x_tau) goes into the residual of each mu in column tau
    of A; every such mu is dominated by tau, so it comes later in that order
    and its residual is complete when the walk reaches it.
    """
    order = partitions_of(amat.m)
    column: dict[Partition, LaurentPoly] = {}
    residuals: dict[Partition, dict] = {}
    for mu in order[order.index(lam) :]:
        if mu == lam:
            x = LaurentPoly.one()
        else:
            residual = residuals.pop(mu, None)
            if not residual:
                continue
            x = _antisymmetric_lift(residual)
        column[mu] = x
        x_bar = x.bar()
        for nu, a in amat.columns[mu].items():
            if nu != mu:
                add_product(residuals.setdefault(nu, {}), a, x_bar)
    return column


def decomposition_matrix(n: int, m: int) -> DecompositionMatrix:
    """The q-decomposition matrix on degree m at modulus n.

    The matrix depends only on (n, m), so it is built once per pair and the
    same object is returned to every caller; callers must not modify it.
    """
    return _decomposition_matrix(check_modulus(n), check_degree(m))


# Bounded like `fock._bar_matrix`, whose matrices these are solved from.
@lru_cache(maxsize=16)
def _decomposition_matrix(n: int, m: int) -> DecompositionMatrix:
    return _solve(bar_matrix(n, m))


def _solve(amat: BarMatrix) -> DecompositionMatrix:
    """Solve every column of D from A, walking `partitions_of(m)`.

    That order extends dominance with larger partitions first, which is all
    the triangular solve needs; `validate` then checks the result.
    """
    order = partitions_of(amat.m)
    columns = {lam: _solve_column(lam, amat) for lam in order}
    matrix = DecompositionMatrix(n=amat.n, m=amat.m, order=order, columns=columns)
    matrix.validate()
    return matrix


def canonical_vector(lam: Partition, n: int) -> FockVector:
    """The canonical basis vector G(lam)."""
    lam = check_partition(lam)
    dmat = decomposition_matrix(n, sum(lam))
    return FockVector._make(dmat.m, dmat.column(lam))


@dataclass
class IdentityReport:
    """Outcome of an entrywise matrix identity check."""

    name: str
    n: int
    m: int
    failures: list[tuple[Partition, Partition, str, str]]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: PASS (n={self.n}, m={self.m})"
        lines = [f"{self.name}: FAIL (n={self.n}, m={self.m})"]
        for lam, mu, lhs, rhs in self.failures:
            lines.append(
                f"  ({format_partition(lam)}, {format_partition(mu)}): "
                f"lhs={lhs} rhs={rhs}"
            )
        return "\n".join(lines)


def gj_identity_check(n: int, m: int) -> IdentityReport:
    """Entrywise check of D(q) = A(q) * D(q^-1).

    Column mu of the right side sums column tau of A times bar(D[tau, mu])
    over the nonzeros of column mu of D.
    """
    amat = bar_matrix(n, m)
    dmat = decomposition_matrix(n, m)
    failures = []
    for mu, d_column in dmat.columns.items():
        rhs: dict[Partition, dict] = {}
        for tau, d in d_column.items():
            add_scaled(rhs, amat.columns[tau], d.bar())
        for lam in d_column.keys() | rhs.keys():
            lhs = dmat.entry(lam, mu)
            right = LaurentPoly(rhs.get(lam))
            if lhs != right:
                failures.append((lam, mu, str(lhs), str(right)))
    return IdentityReport("bar-triangle identity", n, m, dmat.row_major(failures))


def derivative_identity_check(n: int, m: int) -> IdentityReport:
    """Integer check of d'(1) = (1/2) A'(1) D(1), entrywise."""
    amat = bar_matrix(n, m)
    dmat = decomposition_matrix(n, m)
    a_prime = {
        tau: {lam: a.derivative_at_one() for lam, a in column.items()}
        for tau, column in amat.columns.items()
    }
    odd = []
    failures = []
    for mu, d_column in dmat.columns.items():
        totals: dict[Partition, int] = {}
        for tau, d in d_column.items():
            add_into(totals, a_prime[tau], d.eval_at_one())
        for lam in d_column.keys() | totals.keys():
            total = totals.get(lam, 0)
            if total % 2 != 0:
                odd.append((lam, mu, total))
                continue
            lhs = dmat.entry(lam, mu).derivative_at_one()
            if lhs != total // 2:
                failures.append((lam, mu, str(lhs), str(total // 2)))
    if odd:
        lam, mu, total = dmat.row_major(odd)[0]
        raise ConventionError(f"odd derivative sum {total} at ({lam}, {mu}), n={n}")
    return IdentityReport("derivative identity", n, m, dmat.row_major(failures))
