"""Bar-invariant canonical basis and the q-decomposition matrix.

Each basis vector G(lam) is the unique bar-invariant vector congruent to
|lam> modulo the q-lattice.  It is found by a triangular solve along
`partitions_of(m)`, which extends dominance: walking down from lam, the
residual at each mu is bar-antisymmetric and admits a unique lift into
q.Z[q].  `DecompositionMatrix.validate` then rejects any lattice
violation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from fockdec.errors import ConventionError
from fockdec.fock import BarMatrix, FockVector, bar_matrix, bar_vector
from fockdec.laurent import LaurentPoly, add_into, add_product
from fockdec.matrices import PartitionMatrix
from fockdec.partitions import (
    Partition,
    check_degree,
    check_modulus,
    check_partition,
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

    @cached_property
    def gj_failures(self) -> tuple[tuple[Partition, Partition, str, str], ...]:
        """The failing cells of D(q) = A(q) * D(q^-1), row-major; see `gj_identity_check`.

        Built on first access and kept with the matrix, like
        `BarMatrix.half_derivative`; an exception is not kept.
        """
        failures = []
        for mu, d_column in self.columns.items():
            rhs = bar_vector(FockVector._make(self.m, d_column), self.n).terms
            for lam in d_column.keys() | rhs.keys():
                lhs, right = self.entry(lam, mu), rhs.get(lam, LaurentPoly.zero())
                if lhs != right:
                    failures.append((lam, mu, str(lhs), str(right)))
        return tuple(self.row_major(failures))


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


def gj_identity_check(n: int, m: int) -> list[tuple[Partition, Partition, str, str]]:
    """Entrywise check of D(q) = A(q) * D(q^-1): the failing cells, row-major.

    Each failing cell is (lambda, mu, lhs, rhs).  Column mu of the right side
    is the bar of column mu of D, so the identity says each G(mu) is
    bar-invariant.  Computed once per matrix; each call returns a new list.
    """
    return list(decomposition_matrix(n, m).gj_failures)


def derivative_identity_check(n: int, m: int) -> list[tuple[Partition, Partition, str, str]]:
    """Integer check of d'(1) = (1/2) A'(1) D(1) by rows: the failing cells, row-major."""
    half = bar_matrix(n, m).half_derivative
    dmat = decomposition_matrix(n, m)
    failures = []
    for lam, half_row in half.items():
        rhs: dict[Partition, int] = {}
        for tau, h in half_row.items():
            add_into(rhs, {mu: d.eval_at_one() for mu, d in dmat.row(tau).items()}, h)
        lhs = {mu: d.derivative_at_one() for mu, d in dmat.row(lam).items()}
        for mu in lhs.keys() | rhs.keys():
            left, right = lhs.get(mu, 0), rhs.get(mu, 0)
            if left != right:
                failures.append((lam, mu, str(left), str(right)))
    return dmat.row_major(failures)
