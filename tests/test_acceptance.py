"""Acceptance suite: the exit criteria for the whole artifact.

Each test prints exactly one PASS/FAIL line (run pytest with -s or -rA to
see them).  Every comparison is exact; the few runtime targets are asserted
as stated.  Ranges:

  full range      n in {2,3,4,5}, all partitions of m <= 8
  k-stability     m <= 6, same n set
  oracle          m <= 5 at n in {2,3}; m <= 4 at n = 4
  Ariki           m <= 4 at n in {2,3}
  semisimple      every n > m for m <= 6 (three moduli past m each)
"""

import time

import pytest

from fockdec.canonical import (
    decomposition_matrix,
    derivative_identity_check,
    gj_identity_check,
)
from fockdec.fock import FockVector, bar_matrix, bar_partition, bar_vector
from fockdec.hecke import gram_det_valuation, gram_rank_at_root
from fockdec.laurent import LaurentPoly
from fockdec.partitions import (
    dim_specht,
    dominated_by,
    is_regular,
    partitions_of,
)
from fockdec.schaper import (
    dim_weighting,
    schaper_det_rhs,
    schaper_sum_rhs,
    theorem1_check,
)

N_SET = (2, 3, 4, 5)
MAX_M = 8


def report(number, passed, text):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {verdict} - {text}")
    assert passed, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def matrices():
    """Bar and decomposition matrices for the full range, computed once."""
    out = {}
    for n in N_SET:
        for m in range(MAX_M + 1):
            out[(n, m)] = (bar_matrix(n, m), decomposition_matrix(n, m))
    return out


def test_criterion_01_involution():
    start = time.perf_counter()
    cases = 0
    for n in N_SET:
        for m in range(MAX_M + 1):
            for lam in partitions_of(m):
                assert bar_vector(bar_partition(lam, n), n) == FockVector.basis(lam)
                cases += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 30.0,
        f"bar involution squares to identity ({cases} cases, {elapsed:.2f}s < 30s)",
    )


def test_criterion_02_k_stability():
    cases = 0
    ok = True
    for n in N_SET:
        for m in range(7):
            for lam in partitions_of(m):
                k = max(m, len(lam))
                ok = ok and bar_partition(lam, n, k) == bar_partition(lam, n, k + 3)
                cases += 1
    report(2, ok, f"bar truncation stable under k -> k+3 ({cases} cases)")


def test_criterion_03_bar_matrix_structure(matrices):
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            amat, _ = matrices[(n, m)]
            for lam in amat.order:
                for tau in amat.order:
                    entry = amat.entry(lam, tau)
                    if lam == tau:
                        ok = ok and entry.is_one()
                    else:
                        ok = ok and (entry.is_zero() or dominated_by(lam, tau))
                        ok = ok and entry.eval_at_one() == 0
                    ok = ok and entry.derivative_at_one() % 2 == 0
    report(3, ok, "bar matrix unitriangular, zero at q=1 off-diagonal, even derivative")


def test_criterion_04_canonical_basis(matrices):
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            _, dmat = matrices[(n, m)]
            for lam in dmat.order:
                column = FockVector(dmat.column(lam))
                ok = ok and bar_vector(column, n) == column
                for mu in dmat.order:
                    entry = dmat.entry(mu, lam)
                    ok = ok and all(e >= 0 for e, _ in entry.items())
                    ok = ok and entry.coeff(0) == (1 if mu == lam else 0)
                    ok = ok and (entry.is_zero() or mu == lam or dominated_by(mu, lam))
                    ok = ok and all(c >= 0 for _, c in entry.items())
    report(4, ok, "canonical basis bar-invariant, unitriangular over Z[q], nonneg")


def test_criterion_05_bar_triangle_identity():
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            ok = ok and gj_identity_check(n, m).passed
    report(5, ok, "D(q) = A(q) D(q^-1) entrywise, n <= 5, m <= 8")


def test_criterion_06_derivative_identity():
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            ok = ok and derivative_identity_check(n, m).passed
    report(6, ok, "d'(1) = (1/2) A'(1) D(1) entrywise, n <= 5, m <= 8")


def test_criterion_07_theorem1():
    start = time.perf_counter()
    cases = 0
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            for lam in partitions_of(m):
                ok = ok and theorem1_check(lam, n).passed
                cases += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and elapsed < 120.0,
        f"sum formula equals derivative side ({cases} cases, {elapsed:.2f}s < 120s)",
    )


def test_criterion_08_pinned_value(matrices):
    _, dmat = matrices[(2, 2)]
    report(8, dmat.entry((1, 1), (2,)) == LaurentPoly({1: 1}), "d_(1,1),(2) = q at n=2")


def test_criterion_09_determinant_bridge():
    ok = True
    for n in N_SET:
        for m in range(MAX_M + 1):
            for lam in partitions_of(m):
                det = schaper_det_rhs(lam, n)
                ok = ok and det == dim_weighting(schaper_sum_rhs(lam, n))
                ok = ok and det >= 0
    report(9, ok, "determinant sum equals dim-weighted sum vector and is >= 0")


def test_criterion_10_oracle_equality():
    start = time.perf_counter()
    cases = 0
    ok = True
    for n, top in ((2, 5), (3, 5), (4, 4)):
        for m in range(top + 1):
            for lam in partitions_of(m):
                ok = ok and gram_det_valuation(lam, n) == schaper_det_rhs(lam, n)
                cases += 1
    elapsed = time.perf_counter() - start
    report(
        10,
        ok and elapsed < 300.0,
        f"Gram determinant valuations match the sum formula "
        f"({cases} cases, {elapsed:.2f}s < 300s)",
    )


def test_criterion_11_ariki_consistency():
    ok = True
    for n in (2, 3):
        for m in range(5):
            dmat = decomposition_matrix(n, m)
            ranks = {mu: gram_rank_at_root(mu, n) for mu in partitions_of(m)}
            for mu in partitions_of(m):
                ok = ok and (ranks[mu] > 0) == is_regular(mu, n)
            for lam in partitions_of(m):
                total = sum(
                    dmat.entry(lam, mu).eval_at_one() * ranks[mu]
                    for mu in partitions_of(m)
                )
                ok = ok and total == dim_specht(lam)
    report(11, ok, "q=1 decomposition rows pair with Gram ranks to Specht dims")


def test_criterion_12_semisimple_degeneration():
    ok = True
    for m in range(7):
        for n in range(max(m + 1, 2), m + 4):
            amat = bar_matrix(n, m)
            dmat = decomposition_matrix(n, m)
            for a in amat.order:
                for b in amat.order:
                    expected = LaurentPoly.one() if a == b else LaurentPoly.zero()
                    ok = ok and amat.entry(a, b) == expected
                    ok = ok and dmat.entry(a, b) == expected
            for lam in partitions_of(m):
                ok = ok and schaper_sum_rhs(lam, n).is_zero()
    report(12, ok, "A and D are identities and sum vectors vanish for n > m <= 6")
