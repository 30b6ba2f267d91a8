"""The level-1 q-Fock space: wedge words, normal ordering, bar involution.

A wedge word is encoded by its head (i_1, ..., i_k); the implicit tail
continues with i_j = -j + 1 for j > k.  Normalized heads are strictly
decreasing with all entries exceeding -k, and correspond to partitions via
i_k = lambda_k - k + 1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from fockdec import kernel
from fockdec.errors import ConventionError
from fockdec.laurent import Combination, LaurentPoly, add_into
from fockdec.matrices import PartitionMatrix
from fockdec.partitions import (
    Partition,
    check_degree,
    check_modulus,
    check_partition,
    format_partition,
    partitions_of,
)


def wedge_from_partition(lam: Partition, k: int) -> tuple[int, ...]:
    """Length-k head of the wedge word of lam: entries lambda_j - j + 1."""
    lam = check_partition(lam)
    if type(k) is not int or k < len(lam):
        raise ValueError(f"truncation k={k!r} for {lam} is not an int at least {len(lam)}")
    return tuple((lam[j - 1] if j <= len(lam) else 0) - j + 1 for j in range(1, k + 1))


def partition_from_wedge(head: tuple[int, ...]) -> Partition:
    """Partition of a normalized head: lambda_j = i_j + j - 1, zeros dropped."""
    k = len(head)
    parts = []
    for j in range(1, k + 1):
        value = head[j - 1] + j - 1
        if value < 0 or head[j - 1] <= -k - 1:
            raise ValueError(f"head {head} is not normalized")
        if j > 1 and head[j - 2] <= head[j - 1]:
            raise ValueError(f"head {head} is not normalized")
        parts.append(value)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


class FockVector(Combination):
    """Finite Laurent-combination of partition basis vectors of one degree.

    Its space is that degree; the zero vector built from no terms has the
    degree None.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {
            check_partition(lam): coeff for lam, coeff in self._poly_terms(terms).items()
        }
        degrees = {sum(lam) for lam in self.terms}
        if len(degrees) > 1:
            raise ValueError(f"mixed degrees in Fock vector: {sorted(degrees)}")
        self.space = degrees.pop() if degrees else None

    @classmethod
    def basis(cls, lam: Partition) -> "FockVector":
        lam = check_partition(lam)
        return cls._make(sum(lam), {lam: LaurentPoly.one()})

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        bits = ", ".join(
            f"({str(c)})|{format_partition(lam) or 'empty'}>"
            for lam, c in sorted(self.terms.items(), reverse=True)
        )
        return f"FockVector({bits})"


def straighten(head, n: int) -> FockVector:
    """Normal-order an arbitrary head into a combination of partition wedges.

    Requires n >= 2 and every entry exceeding -len(head), so that rewriting
    never touches the implicit tail.  The insertions into a sorted suffix
    that this call computes are capped at `kernel.DEFAULT_STEP_BUDGET`
    (memoized insertions cost nothing); past it StepBudgetExceeded is raised.
    """
    head = tuple(head)
    check_modulus(n)
    k = len(head)
    if any(type(e) is not int for e in head):
        raise ValueError(f"head {head} holds an entry that is not an int")
    if any(e <= -k for e in head):
        raise ValueError(f"head {head} has entries reaching the implicit tail")
    raw = kernel.straighten_raw(head, n)
    terms = {partition_from_wedge(h): LaurentPoly(c) for h, c in raw.items()}
    # Straightening keeps the degree, so every term has that of the first.
    return FockVector._make(sum(next(iter(terms))) if terms else None, terms)


def _alpha_statistic(head: tuple[int, ...], n: int) -> int:
    """Number of pairs r < s with i_r - i_s not divisible by n."""
    count = 0
    for r in range(len(head)):
        for s in range(r + 1, len(head)):
            if (head[r] - head[s]) % n != 0:
                count += 1
    return count


def bar_partition(mu: Partition, n: int, k: int | None = None) -> FockVector:
    """Bar involution of the basis vector of mu.

    Reverses the first k wedge factors, multiplies by the sign (-1)^(k choose 2)
    and by q to the number of non-congruent index pairs, then normal-orders.
    The result is independent of the truncation k (k >= |mu|).
    """
    mu = check_partition(mu)
    m = sum(mu)
    k = m if k is None else k
    head = wedge_from_partition(mu, k)
    if k < m:
        raise ValueError(f"truncation k={k} too small for {mu}")
    check_modulus(n)
    alpha = _alpha_statistic(head, n)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    prefactor = LaurentPoly({alpha: sign})
    return straighten(head[::-1], n).scale(prefactor)


def bar_vector(v: FockVector, n: int) -> FockVector:
    """Semilinear extension of the bar involution: bar coefficients, bar terms.

    The bar of each basis vector is read from its column of A(n, m), m the
    degree of v, which `bar_matrix` builds if it is not cached; the zero
    vector builds nothing.
    """
    check_modulus(n)
    table: dict = {}
    if v.terms:
        columns = bar_matrix(n, v.space).columns
        for lam, coeff in v.terms.items():
            add_into(table, columns[lam], coeff.bar())
    return FockVector._make(v.space, table)


class BarMatrix(PartitionMatrix):
    """Matrix of bar-involution coefficients: column tau holds bar of |tau>."""

    def validate(self) -> None:
        """Unitriangularity and vanishing at q=1 off the diagonal."""
        self._check_unitriangular(
            lambda entry: entry.eval_at_one() == 0,
            "entry at {row}, {col} nonzero at q=1: {entry}",
        )

    @cached_property
    def half_derivative(self) -> dict[Partition, dict[Partition, int]]:
        """Rows of A'(1)/2 as {row: {column: nonzero int}}, for every row label.

        Built on first access and kept with the matrix, like the row index;
        read-only.  ConventionError names the first odd entry of A'(1) in
        row-major order.
        """
        half = {lam: {} for lam in self.order}
        odd = []
        for tau, column in self.columns.items():
            for lam, entry in column.items():
                value = entry.derivative_at_one()
                if value % 2:
                    odd.append((lam, tau, value))
                elif value:
                    half[lam][tau] = value // 2
        if odd:
            lam, tau, value = self.row_major(odd)[0]
            raise ConventionError(f"odd entry {value} of A'(1) at ({lam}, {tau}), n={self.n}")
        return half


def bar_matrix(n: int, m: int) -> BarMatrix:
    """Bar-involution transition matrix on degree m, columns indexed by tau.

    The matrix depends only on (n, m), so it is built once per pair and the
    same object is returned to every caller; callers must not modify it.
    """
    return _bar_matrix(check_modulus(n), check_degree(m))


# Bounded so that a long-lived process keeps a few degrees at a time: a
# Theorem-1 sweep holds one pair per n, and `verify` walks the pairs in turn.
@lru_cache(maxsize=16)
def _bar_matrix(n: int, m: int) -> BarMatrix:
    order = partitions_of(m)
    columns = {tau: bar_partition(tau, n).terms for tau in order}
    return BarMatrix(n=n, m=m, order=order, columns=columns)
