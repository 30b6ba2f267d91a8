"""Acceptance suite: the exit criteria for the whole artifact.

Each test prints exactly one PASS/FAIL line (run pytest with -s or -rA to
see them).  Every comparison is exact.  Every `verify` suite runs once, at
m <= 8 and n in {2,3,4,5}; the suites with a tighter range (k-stability,
semisimple, oracle, ariki) keep their own, as `verify.SUITES` states.
Criteria 03 and 04 read A and D entry by entry, without `validate()` or
any suite, over the full range.
"""

import time

import pytest

from fockdec.canonical import decomposition_matrix
from fockdec.fock import FockVector, bar_matrix, bar_vector
from fockdec.laurent import LaurentPoly
from fockdec.partitions import dominated_by
from fockdec.verify import ALL_SUITES, run_verification

N_SET = (2, 3, 4, 5)
MAX_M = 8

# Cases each suite yields at MAX_M and N_SET.
SUITE_CASES = {
    "involution": 268,
    "k-stability": 120,
    "bar-structure": 72,
    "canonical-structure": 304,
    "bar-triangle": 36,
    "derivative": 36,
    "theorem1": 268,
    "det-bridge": 268,
    "semisimple": 20,
    "oracle": 50,
    "ariki": 24,
}


def report(label, passed, text):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {label:>2} {verdict} - {text}")
    assert passed, f"criterion {label}: {text}"


@pytest.fixture(scope="module")
def matrices():
    """Bar and decomposition matrices for the full range, computed once."""
    out = {}
    for n in N_SET:
        for m in range(MAX_M + 1):
            out[(n, m)] = (bar_matrix(n, m), decomposition_matrix(n, m))
    return out


@pytest.fixture(scope="module")
def verification():
    """Every suite's results over the full range, and the seconds the run took."""
    start = time.perf_counter()
    results = run_verification(MAX_M, N_SET)
    return results, time.perf_counter() - start


def check_suite(verification, label, suite):
    results = [r for r in verification[0] if r.check == suite]
    failed = [r for r in results if not r.passed]
    report(
        label,
        not failed and len(results) == SUITE_CASES[suite],
        f"{suite}: {len(results)} cases (pinned {SUITE_CASES[suite]}), "
        f"{len(failed)} failures",
    )


def test_criterion_01_involution(verification):
    check_suite(verification, 1, "involution")


def test_criterion_02_k_stability(verification):
    check_suite(verification, 2, "k-stability")


def test_criterion_05_bar_triangle_identity(verification):
    check_suite(verification, 5, "bar-triangle")


def test_criterion_06_derivative_identity(verification):
    check_suite(verification, 6, "derivative")


def test_criterion_07_theorem1(verification):
    check_suite(verification, 7, "theorem1")


def test_criterion_09_determinant_bridge(verification):
    check_suite(verification, 9, "det-bridge")


def test_criterion_10_oracle_equality(verification):
    check_suite(verification, 10, "oracle")


def test_criterion_11_ariki_consistency(verification):
    check_suite(verification, 11, "ariki")


def test_criterion_12_semisimple_degeneration(verification):
    check_suite(verification, 12, "semisimple")


# The suites no numbered criterion names; criteria 03 and 04 check the same
# matrices entry by entry, without the suites.
@pytest.mark.parametrize("suite", ["bar-structure", "canonical-structure"])
def test_suite(verification, suite):
    check_suite(verification, suite, suite)


def test_every_suite_is_asserted():
    assert set(SUITE_CASES) == set(ALL_SUITES)


def test_suites_run_time(verification):
    elapsed = verification[1]
    report("time", elapsed < 30.0, f"every suite at m <= {MAX_M} in {elapsed:.2f}s < 30s")


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
                    ok = ok and dict(entry.items()).get(0, 0) == (1 if mu == lam else 0)
                    ok = ok and (entry.is_zero() or mu == lam or dominated_by(mu, lam))
                    ok = ok and all(c >= 0 for _, c in entry.items())
    report(4, ok, "canonical basis bar-invariant, unitriangular over Z[q], nonneg")


def test_criterion_08_pinned_value(matrices):
    _, dmat = matrices[(2, 2)]
    report(8, dmat.entry((1, 1), (2,)) == LaurentPoly({1: 1}), "d_(1,1),(2) = q at n=2")
