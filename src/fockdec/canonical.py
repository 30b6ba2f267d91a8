"""Bar-invariant canonical basis and the q-decomposition matrix.

Each basis vector G(lam) is the unique bar-invariant vector congruent to
|lam> modulo the q-lattice.  It is found by a triangular solve along any
linear extension of dominance (largest first): walking down from lam, the
residual at each mu is bar-antisymmetric and admits a unique lift into
q.Z[q].  `DecompositionMatrix.validate` then rejects any lattice
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from fockdec.errors import ConventionError
from fockdec.fock import BarMatrix, FockVector, bar_matrix
from fockdec.laurent import LaurentPoly
from fockdec.matrices import PartitionMatrix
from fockdec.partitions import (
    Partition,
    check_partition,
    dominated_by,
    format_partition,
    partitions_of,
)


def symmetric_lift(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-invariant p congruent to c modulo q.Z[q].

    Writing c = sum a_j q^j:  p = a_0 + sum_{j>0} a_{-j} (q^j + q^{-j}).
    """
    low = {e: a for e, a in c.items() if e <= 0}
    return LaurentPoly({**low, **{-e: a for e, a in low.items() if e < 0}})


def _antisymmetric_lift(r: LaurentPoly) -> LaurentPoly:
    """Unique x in q.Z[q] with x - bar(x) = r, for bar-antisymmetric r."""
    if not r.is_bar_antisymmetric():
        raise ConventionError(
            f"residual {r} is not antisymmetric under q -> q^-1; "
            "the bar involution convention is broken upstream"
        )
    return LaurentPoly({e: c for e, c in r.items() if e > 0})


class DecompositionMatrix(PartitionMatrix):
    """Columns are canonical basis vectors expanded in the partition basis."""

    kind = "decomposition"

    def validate(self) -> None:
        for mu in self.order:
            for lam in self.order:
                entry = self.entry(mu, lam)
                if mu == lam:
                    if not entry.is_one():
                        raise AssertionError(f"diagonal entry at {mu} is {entry}")
                    continue
                if entry.is_zero():
                    continue
                if not dominated_by(mu, lam):
                    raise AssertionError(
                        f"nonzero entry at non-dominated pair {mu}, {lam}"
                    )
                if not entry.is_q_multiple():
                    raise AssertionError(
                        f"off-diagonal entry at {mu}, {lam} not in q.Z[q]: {entry}"
                    )


def _solve_column(
    lam: Partition,
    amat: BarMatrix,
    order: tuple[Partition, ...],
) -> dict[Partition, LaurentPoly]:
    """Triangular solve for the bar-invariant column congruent to |lam>."""
    start = order.index(lam)
    column: dict[Partition, LaurentPoly] = {lam: LaurentPoly.one()}
    for mu in order[start + 1 :]:
        residual = LaurentPoly.zero()
        for tau, x in column.items():
            a = amat.entry(mu, tau)
            if not a.is_zero():
                residual = residual + a * x.bar()
        if residual.is_zero():
            continue
        column[mu] = _antisymmetric_lift(residual)
    return {mu: x for mu, x in column.items() if not x.is_zero()}


def decomposition_matrix(n: int, m: int) -> DecompositionMatrix:
    """The q-decomposition matrix on degree m at modulus n.

    The matrix depends only on (n, m), so it is built once per pair and the
    same object is returned to every caller; callers must not modify it.
    """
    if n < 2:
        raise ValueError("modulus n must be >= 2")
    if m < 0:
        raise ValueError("degree m must be >= 0")
    return _decomposition_matrix(n, m)


# Bounded like `fock._bar_matrix`, whose matrices these are solved from.
@lru_cache(maxsize=16)
def _decomposition_matrix(n: int, m: int) -> DecompositionMatrix:
    return _solve(bar_matrix(n, m), partitions_of(m))


def _solve(amat: BarMatrix, order: tuple[Partition, ...]) -> DecompositionMatrix:
    """Solve every column of D from A, walking the partitions in `order`.

    `order` may be any linear extension of dominance with larger partitions
    first; the resulting matrix is independent of the choice.
    """
    columns = {lam: _solve_column(lam, amat, order) for lam in order}

    canonical_order = partitions_of(amat.m)
    index = {lam: i for i, lam in enumerate(canonical_order)}
    rows = [[LaurentPoly.zero()] * len(canonical_order) for _ in canonical_order]
    for lam, column in columns.items():
        for mu, coeff in column.items():
            rows[index[mu]][index[lam]] = coeff
    matrix = DecompositionMatrix(n=amat.n, m=amat.m, order=canonical_order, rows=rows)
    matrix.validate()
    return matrix


def canonical_vector(lam: Partition, n: int) -> FockVector:
    """The canonical basis vector G(lam)."""
    lam = check_partition(lam)
    dmat = decomposition_matrix(n, sum(lam))
    return FockVector(dmat.column(lam))


@dataclass
class IdentityReport:
    """Outcome of an entrywise matrix identity check."""

    name: str
    n: int
    m: int
    passed: bool
    failures: list[tuple[Partition, Partition, str, str]] = field(default_factory=list)

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
    """Entrywise check of D(q) = A(q) * D(q^-1)."""
    amat = bar_matrix(n, m)
    dmat = decomposition_matrix(n, m)
    report = IdentityReport(name="bar-triangle identity", n=n, m=m, passed=True)
    order = dmat.order
    for lam in order:
        for mu in order:
            rhs = LaurentPoly.zero()
            for tau in order:
                a = amat.entry(lam, tau)
                if a.is_zero():
                    continue
                d = dmat.entry(tau, mu)
                if d.is_zero():
                    continue
                rhs = rhs + a * d.bar()
            lhs = dmat.entry(lam, mu)
            if lhs != rhs:
                report.passed = False
                report.failures.append((lam, mu, str(lhs), str(rhs)))
    return report


def derivative_identity_check(n: int, m: int) -> IdentityReport:
    """Integer check of d'(1) = (1/2) A'(1) D(1), entrywise."""
    amat = bar_matrix(n, m)
    dmat = decomposition_matrix(n, m)
    report = IdentityReport(name="derivative identity", n=n, m=m, passed=True)
    order = dmat.order
    for lam in order:
        for mu in order:
            total = 0
            for tau in order:
                a_prime = amat.entry(lam, tau).derivative_at_one()
                if a_prime == 0:
                    continue
                total += a_prime * dmat.entry(tau, mu).eval_at_one()
            if total % 2 != 0:
                raise ConventionError(
                    f"odd derivative sum {total} at ({lam}, {mu}), n={n}"
                )
            lhs = dmat.entry(lam, mu).derivative_at_one()
            if lhs != total // 2:
                report.passed = False
                report.failures.append((lam, mu, str(lhs), str(total // 2)))
    return report
