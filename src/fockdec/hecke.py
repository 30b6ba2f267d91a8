"""Iwahori-Hecke algebra of type A over exact Laurent arithmetic.

First-principles oracle for the Gram-determinant valuations: the algebra is
built on the quadratic relation T_i^2 = (q-1) T_i + q (so T_w T_i = T_{w s_i}
when the length goes up, and (q-1) T_w + q T_{w s_i} otherwise), cell modules
come from the cellular basis m_{st} = T_{d(s)*} x_shape T_{d(t)} with x the
sum of T_w over a row stabilizer, and Gram matrices are extracted by exact
elimination against that basis; their ranks at a primitive n-th root come
from a fraction-free elimination on the entries' residues modulo Phi_n.

The arithmetic runs on raw tables {perm: {exponent: int}} that never hold an
empty coefficient, merged with `laurent.add_product` and `laurent.add_scaled`,
as in the straightening kernel: multiplication by T_i, by T_w along a reduced
word of w, by a row sum, and the anti-automorphism *.  Coefficients become
`LaurentPoly` only in the rows of a `GramMatrix`, the one result the layer
hands out.  Elimination takes as its lead the term latest in (length,
one-line word) order, read from a rank table built once per m.

The row sum x is never enumerated: products with it are formed one row block
at a time through the distinguished coset factorisation
x_{S_k} = x_{S_{k-1}} (1 + T_{k-1} + T_{k-1} T_{k-2} + ... + T_{k-1}...T_1),
which costs about sum(k^2) generator steps instead of |S_lam| * length.

A Gram entry m_{top,s} m_{t,top} = x T_{d(s)} T_{d(t)}* x is expanded as
sum_v r_v x T_v x from the product of two T's alone.  Since x T_a = q^{l(a)} x
for a in the row stabilizer, x T_v x = q^{l(v) - l(d)} x T_d x with d the
minimal element of the double coset S_mu v S_mu (Dipper-James), so one
reduction of x T_d x against the Murphy table per double coset gives every
entry of the matrix.

Under this quadratic convention the unsigned row-sum cell module of a shape
is the module labelled by the conjugate shape in the hook-length sum formula
(the one-row cell module is the index representation), so Gram matrices are
computed from the conjugate shape; determinant valuations and residue ranks
are insensitive to the remaining unit and q-power normalization choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import gcd

from fockdec.errors import ConventionError
from fockdec.laurent import (
    LaurentPoly,
    add_product,
    add_scaled,
    cyclotomic_residue,
    cyclotomic_valuation,
)
from fockdec.partitions import (
    Partition,
    Tableau,
    check_modulus,
    check_partition,
    conjugate,
    conjugate_tableau,
    dominated_by,
    partitions_of,
    standard_tableaux,
)

DEFAULT_SIZE_CAP = 5

Perm = tuple  # one-line notation, 0-based: w[i] is the image of i


@lru_cache(maxsize=None)
def perm_length(w: Perm) -> int:
    """Coxeter length: the number of inversions."""
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def perm_inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v] = i
    return tuple(inv)


def right_gen(w: Perm, i: int) -> Perm:
    """w s_i: swap the entries at positions i, i+1."""
    out = list(w)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word for w, as generator indices applied left to right."""
    word = []
    current = list(w)
    while True:
        descent = -1
        for i in range(len(current) - 1):
            if current[i] > current[i + 1]:
                descent = i
                break
        if descent < 0:
            break
        current[descent], current[descent + 1] = current[descent + 1], current[descent]
        word.append(descent)
    return tuple(reversed(word))


def _term_order(w: Perm):
    return (perm_length(w), w)


# -- raw tables {perm: {exponent: int}} ---------------------------------------

_ONE = {0: 1}
_Q = {1: 1}
_Q_MINUS_1 = {1: 1, 0: -1}


def _right_generator(terms: dict, i: int) -> dict:
    """terms * T_{s_i}, by the quadratic relation."""
    out: dict = {}
    for w, c in terms.items():
        ws = right_gen(w, i)
        if w[i] < w[i + 1]:
            add_product(out.setdefault(ws, {}), c, _ONE)
        else:
            add_product(out.setdefault(w, {}), c, _Q_MINUS_1)
            add_product(out.setdefault(ws, {}), c, _Q)
    return {w: c for w, c in out.items() if c}


def _times_t(terms: dict, v: Perm) -> dict:
    """terms * T_v, one generator at a time along a reduced word of v."""
    for i in reduced_word(v):
        terms = _right_generator(terms, i)
    return terms


def _times_row_sum(terms: dict, lam: Partition) -> dict:
    """terms * x_lam, the row sum of the row-reading tableau.

    Each row block, and each step k within it, multiplies by the sum of
    T_d over the distinguished coset representatives d = s_{k-1}...s_j of
    S_{k-1} in S_k; the row blocks commute.
    """
    result = terms
    start = 0
    for part in lam:
        for top in range(start + 1, start + part):
            total = add_scaled({}, result, _ONE)
            step = result
            for i in range(top - 1, start - 1, -1):
                step = _right_generator(step, i)
                add_scaled(total, step, _ONE)
            result = total
        start += part
    return result


def _star(terms: dict) -> dict:
    """The anti-automorphism sending T_w to T at the inverse of w."""
    return {perm_inverse(w): c for w, c in terms.items()}


# -- cellular basis ----------------------------------------------------------


def row_reading_tableau(lam: Partition) -> Tableau:
    """The superstandard tableau: 1..m filled along rows."""
    lam = check_partition(lam)
    out = []
    next_value = 1
    for part in lam:
        out.append(tuple(range(next_value, next_value + part)))
        next_value += part
    return tuple(out)


def tableau_perm(t: Tableau) -> Perm:
    """Distinguished coset representative attached to a row-standard tableau.

    Sends each entry of t to the entry of the row-reading tableau in the same
    cell; rows of t being increasing, this maps every row order-preservingly
    onto its block, which makes it the minimal-length element of its row
    stabilizer coset and keeps row-sum products multiplicity free.
    """
    shape = tuple(len(row) for row in t)
    base = row_reading_tableau(shape)
    m = sum(shape)
    word = [0] * m
    for r, row in enumerate(t):
        for c, entry in enumerate(row):
            word[entry - 1] = base[r][c] - 1
    return tuple(word)


def _left_factor(s: Tableau) -> dict:
    """T_{d(s)*} x_shape, the part of m_{st} that does not depend on t."""
    shape = tuple(len(row) for row in s)
    return _times_row_sum({perm_inverse(tableau_perm(s)): {0: 1}}, shape)


class MurphyTable:
    """Change of basis between the natural and cellular bases of one rank.

    Cellular elements are processed shape-graded (dominance-descending) and
    echelonized against the natural basis ordered by (length, one-line word),
    held as `rank`: each reduced row keeps a distinct pivot permutation
    carrying a unit-monomial coefficient, and remembers its own expansion in
    the original cellular elements.  Every pivot being a unit makes all later
    divisions exact; a non-unit pivot raises ConventionError since it would
    mean the documented order is not triangular after all.
    """

    def __init__(self, m: int):
        self.m = m
        self.rank = {
            w: r for r, w in enumerate(sorted(permutations(range(m)), key=_term_order))
        }
        # pivot perm -> (exponent, sign) of its unit coefficient, reduced terms,
        # cellular expansion; the last two are raw tables
        self.records: dict[Perm, tuple[int, int, dict, dict]] = {}
        for lam in partitions_of(m):
            tableaux = standard_tableaux(lam)
            for si, s in enumerate(tableaux):
                left = _left_factor(s)
                for ti, t in enumerate(tableaux):
                    key = (lam, si, ti)
                    residual, used = self._reduce(_times_t(left, tableau_perm(t)))
                    if not residual:
                        raise ConventionError(
                            f"cellular element {key} is not independent"
                        )
                    pivot = self._lead(residual)
                    (exp, unit), *rest = residual[pivot].items()
                    if rest or abs(unit) != 1:
                        raise ConventionError(
                            f"reduced cellular element {key} has non-unit "
                            f"pivot coefficient {LaurentPoly(residual[pivot])} at {pivot}"
                        )
                    combo = add_scaled({key: {0: 1}}, used, {0: -1})
                    self.records[pivot] = (exp, unit, residual, combo)

    def _lead(self, terms: dict) -> Perm:
        return max(terms, key=self.rank.__getitem__)

    def _reduce(self, terms: dict) -> tuple[dict, dict]:
        """Eliminate leading terms against existing records, in place on one table.

        Returns the raw terms of the reduced element together with the record
        combination that was subtracted, expanded in the original cellular
        elements.
        """
        residual = add_scaled({}, terms, _ONE)
        used: dict = {}
        while residual:
            lead = self._lead(residual)
            if not residual[lead]:
                # Eliminating an empty coefficient would change nothing.
                raise ConventionError(f"empty coefficient at lead {lead}")
            record = self.records.get(lead)
            if record is None:
                break
            exp, unit, pivot_terms, combo = record
            factor = add_product({}, residual[lead], {-exp: unit})
            add_scaled(used, combo, factor)
            add_scaled(residual, pivot_terms, add_product({}, factor, {0: -1}))
        return residual, used

    def _coords(self, terms: dict) -> dict:
        """Raw cellular coordinates of a raw table."""
        residual, coords = self._reduce(terms)
        if residual:
            raise ConventionError(f"no cellular pivot at {self._lead(residual)}")
        return coords


@lru_cache(maxsize=None)
def murphy_table(m: int) -> MurphyTable:
    return MurphyTable(m)


# -- Gram matrices -----------------------------------------------------------


@dataclass
class GramMatrix:
    """Cell-module bilinear form of a shape, indexed by its standard tableaux."""

    shape: Partition
    tableaux: tuple[Tableau, ...]
    rows: list[list[LaurentPoly]]
    _determinant: LaurentPoly | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def determinant(self) -> LaurentPoly:
        """The exact determinant, computed on the first call and kept.

        The form is nondegenerate over Q(q), so a zero determinant raises
        ConventionError.
        """
        if self._determinant is None:
            det = bareiss_determinant(self.rows)
            if det.is_zero():
                raise ConventionError(f"Gram determinant of {self.shape} vanished identically")
            self._determinant = det
        return self._determinant


def gram_matrix(lam: Partition, size_cap: int = DEFAULT_SIZE_CAP) -> GramMatrix:
    """Exact Gram matrix of the cell-module form attached to lam.

    Computed on the conjugate shape (see the module docstring), so the
    determinant valuations line up with the hook-length sum formula for lam
    itself.  Capped by default at |lam| <= 5: the rank-6 algebra has
    dimension 720; its Murphy table takes about 2-2.5 s of CPU and its
    eleven Gram matrices about 0.2 s, against about 0.08 s for the tables
    and Gram matrices of all ranks up to 5 together (one core of a 2-core
    shared x86-64 host, CPython 3.11.7).

    The matrix does not depend on n, so it is built once per lam and the
    same object is returned to every caller; callers must not modify it.
    The size cap is checked before anything is built or cached.
    """
    lam = check_partition(lam)
    m = sum(lam)
    if type(size_cap) is not int or size_cap < 0:
        raise ValueError(f"size_cap must be an integer at least 0, got {size_cap!r}")
    if m > size_cap:
        raise ValueError(
            f"|{lam}| = {m} exceeds the size cap {size_cap}; raise size_cap "
            "explicitly if you accept the cost"
        )
    return _gram_matrix(lam)


def _double_coset_min(v: Perm, mu: Partition) -> Perm:
    """The minimal-length element of the double coset S_mu v S_mu.

    S_mu permutes positions (on the right) and values (on the left) within
    the consecutive row blocks of mu.  The result keeps how many positions
    of each block carry values of each block, and hands each block of
    positions, in order, the least unused values of block 0, then block 1,
    ...; it thus increases on every position block and its inverse on every
    value block.
    """
    block = [j for j, part in enumerate(mu) for _ in range(part)]
    counts = [[0] * len(mu) for _ in mu]
    for position, value in enumerate(v):
        counts[block[position]][block[value]] += 1
    next_value = [sum(mu[:k]) for k in range(len(mu))]
    out: list = []
    for row in counts:
        for k, count in enumerate(row):
            out.extend(range(next_value[k], next_value[k] + count))
            next_value[k] += count
    return tuple(out)


@lru_cache(maxsize=None)
def _gram_matrix(lam: Partition) -> GramMatrix:
    m = sum(lam)
    mu = conjugate(lam)
    table = murphy_table(m)
    # `standard_tableaux` sorts by reading word, so the row-reading tableau is first.
    top_key = (mu, 0, 0)
    lam_tableaux = standard_tableaux(lam)
    perms = [tableau_perm(conjugate_tableau(t)) for t in lam_tableaux]
    # d -> top coefficient of x T_d x, one reduction per double coset.
    reduced: dict = {}

    def top_coefficient(d: Perm) -> dict:
        # x T_d x = (T_{d*} x)* x, since x* = x.
        product = _times_row_sum(_star(_times_row_sum({perm_inverse(d): {0: 1}}, mu)), mu)
        coords = table._coords(product)
        for key in coords:
            shape = key[0]
            if key == top_key:
                continue
            if shape == mu:
                raise ConventionError(
                    f"product for {lam} has a stray same-shape component {key}"
                )
            if not dominated_by(mu, shape):
                raise ConventionError(
                    f"product for {lam} leaks into non-dominating shape {shape}"
                )
        return coords.get(top_key, {})

    def entry(s: Perm, t: Perm) -> dict:
        # m_{top,s} m_{t,top} = x T_{d(s)} T_{d(t)}* x = sum_v r_v x T_v x,
        # and x T_v x = q^{l(v) - l(d)} x T_d x for d minimal in S_mu v S_mu.
        value: dict = {}
        for v, r in _times_t({s: {0: 1}}, perm_inverse(t)).items():
            d = _double_coset_min(v, mu)
            if d not in reduced:
                reduced[d] = top_coefficient(d)
            shifted = add_product({}, r, {perm_length(v) - perm_length(d): 1})
            add_product(value, shifted, reduced[d])
        return value

    size = len(perms)
    rows = [[LaurentPoly.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = entry(perms[i], perms[j])
            if i != j and entry(perms[j], perms[i]) != value:
                raise ConventionError(
                    f"Gram matrix for {lam} is not symmetric at ({i},{j})"
                )
            rows[i][j] = rows[j][i] = LaurentPoly(value)
    return GramMatrix(shape=lam, tableaux=lam_tableaux, rows=rows)


def bareiss_determinant(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant; every division is exact in the Laurent ring."""
    size = len(matrix)
    if size == 0:
        return LaurentPoly.one()
    a = [list(row) for row in matrix]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(size - 1):
        if a[k][k].is_zero():
            pivot_row = next(
                (r for r in range(k + 1, size) if not a[r][k].is_zero()), None
            )
            if pivot_row is None:
                return LaurentPoly.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                numerator = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = numerator.exact_div(prev)
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    det = a[size - 1][size - 1]
    return det if sign > 0 else -det


def gram_det_valuation(lam: Partition, n: int) -> int:
    """Multiplicity of Phi_n in the exact Gram determinant."""
    return cyclotomic_valuation(gram_matrix(lam).determinant(), n)


# -- rank over the residue field ----------------------------------------------


def gram_rank_at_root(lam: Partition, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Rank of the Gram matrix with q specialized to a primitive n-th root.

    Phi_n is monic, so Z[q]/(Phi_n) is the domain Z[zeta_n], and the rank
    over Q(zeta_n) is the number of pivots of a fraction-free elimination on
    the residues of the entries: each later row r becomes p * r - r[col] * top
    for the pivot p of row top, reduced modulo Phi_n and divided by the gcd
    of its integer coefficients, which keeps them small.
    """
    check_modulus(n)
    rows = [[cyclotomic_residue(f, n) for f in row] for row in gram_matrix(lam, size_cap).rows]
    rank = 0
    for col in range(len(rows)):
        index = next((i for i, row in enumerate(rows) if row[col]), None)
        if index is None:
            continue
        top = rows.pop(index)
        rank += 1
        for i, row in enumerate(rows):
            if row[col]:
                lead = {e: -c for e, c in row[col].items()}
                row = [
                    cyclotomic_residue(add_product(add_product({}, top[col], x), lead, y), n)
                    for x, y in zip(row, top)
                ]
                content = gcd(*(c for f in row for c in f.values())) or 1
                rows[i] = [{e: c // content for e, c in f.items()} for f in row]
    return rank
