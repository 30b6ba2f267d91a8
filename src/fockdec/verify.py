"""Driver for the full verification suite.

Each suite produces CheckResult records, one per (check, lambda, n) case;
the CLI turns them into a human table, a JSON report, and an exit status.
Aggregation is order-independent: results are sorted by (check, n, m,
lambda) before rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from fockdec import canonical, schaper
from fockdec.fock import FockVector, bar_matrix, bar_partition, bar_vector
from fockdec.hecke import gram_det_valuation, gram_rank_at_root
from fockdec.laurent import LaurentPoly
from fockdec.partitions import (
    dim_specht,
    format_partition,
    partitions_of,
)

ALL_SUITES = (
    "involution",
    "k-stability",
    "bar-structure",
    "canonical-structure",
    "bar-triangle",
    "derivative",
    "theorem1",
    "det-bridge",
    "semisimple",
    "oracle",
    "ariki",
)

# Desk-scale Hecke computations get their own, tighter default ranges.
ORACLE_MAX_M = 5
ORACLE_N4_MAX_M = 4
ARIKI_MAX_M = 4
K_STABILITY_MAX_M = 6
SEMISIMPLE_MAX_M = 6


@dataclass
class CheckResult:
    check: str
    n: int
    lam: tuple | None
    passed: bool
    lhs: str = ""
    rhs: str = ""

    def to_json(self) -> dict:
        return {
            "lambda": format_partition(self.lam) if self.lam is not None else None,
            "n": self.n,
            "check": self.check,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def run_verification(
    max_m: int,
    n_set: tuple[int, ...],
    suites: tuple[str, ...] = ALL_SUITES,
) -> list[CheckResult]:
    if not suites:
        raise ValueError("suites is empty; name at least one suite")
    if not n_set:
        raise ValueError("n_set is empty; name at least one modulus")
    if any(n < 2 for n in n_set):
        raise ValueError(f"every modulus in n_set must be at least 2, got {n_set}")
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    for suite in suites:
        if suite not in ALL_SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {ALL_SUITES}")
    results: list[CheckResult] = []
    run = {suite: suite in suites for suite in ALL_SUITES}

    for n in n_set:
        for m in range(max_m + 1):
            if run["involution"]:
                results.extend(_involution(n, m))
            if run["k-stability"] and m <= K_STABILITY_MAX_M:
                results.extend(_k_stability(n, m))
            if run["bar-structure"]:
                results.extend(_bar_structure(n, m))
            if run["canonical-structure"]:
                results.extend(_canonical_structure(n, m))
            if run["bar-triangle"]:
                results.append(_identity(n, m, "bar-triangle"))
            if run["derivative"]:
                results.append(_identity(n, m, "derivative"))
            if run["theorem1"]:
                results.extend(_theorem1(n, m))
            if run["det-bridge"]:
                results.extend(_det_bridge(n, m))
            if run["oracle"] and _oracle_in_range(n, m):
                results.extend(_oracle(n, m))
            if run["ariki"] and n in (2, 3) and m <= ARIKI_MAX_M:
                results.extend(_ariki(n, m))
    if run["semisimple"]:
        for m in range(min(max_m, SEMISIMPLE_MAX_M) + 1):
            for n in range(max(m + 1, 2), m + 4):
                results.extend(_semisimple(n, m))
    results.sort(key=lambda r: (r.check, r.n, r.lam if r.lam is not None else ()))
    return results


def _involution(n, m):
    for lam in partitions_of(m):
        twice = bar_vector(bar_partition(lam, n), n)
        expected = FockVector.basis(lam)
        yield CheckResult(
            check="involution",
            n=n,
            lam=lam,
            passed=twice == expected,
            lhs=repr(twice),
            rhs=repr(expected),
        )


def _k_stability(n, m):
    for lam in partitions_of(m):
        k = max(m, len(lam))
        small = bar_partition(lam, n, k)
        large = bar_partition(lam, n, k + 3)
        yield CheckResult(
            check="k-stability",
            n=n,
            lam=lam,
            passed=small == large,
            lhs=repr(small),
            rhs=repr(large),
        )


def _bar_structure(n, m):
    amat = bar_matrix(n, m)
    try:
        amat.validate()
        structure_ok = True
        detail = "unitriangular, zero at q=1 off-diagonal"
    except AssertionError as exc:
        structure_ok = False
        detail = str(exc)
    yield CheckResult(
        check="bar-structure", n=n, lam=None, passed=structure_ok, lhs=detail
    )
    odd = amat.row_major(
        (lam, tau)
        for tau, column in amat.columns.items()
        for lam, entry in column.items()
        if entry.derivative_at_one() % 2
    )
    yield CheckResult(
        check="bar-structure",
        n=n,
        lam=(m,) if m else (),
        passed=not odd,
        lhs=f"odd derivative entries: {odd!r}" if odd else "all derivatives even",
        rhs=f"m={m}",
    )


def _canonical_structure(n, m):
    dmat = canonical.decomposition_matrix(n, m)
    try:
        dmat.validate()
        ok = True
        detail = "unitriangular over Z[q], constant term delta"
    except AssertionError as exc:
        ok = False
        detail = str(exc)
    yield CheckResult(check="canonical-structure", n=n, lam=None, passed=ok, lhs=detail)
    for lam in dmat.order:
        column = FockVector._make(m, dmat.column(lam))
        invariant = bar_vector(column, n) == column
        negative = any(
            c < 0 for coeff in column.terms.values() for _, c in coeff.items()
        )
        yield CheckResult(
            check="canonical-structure",
            n=n,
            lam=lam,
            passed=invariant and not negative,
            lhs="bar-invariant" if invariant else "not bar-invariant",
            rhs="coefficients >= 0" if not negative else "negative coefficient",
        )


def _identity(n, m, which):
    if which == "bar-triangle":
        report = canonical.gj_identity_check(n, m)
    else:
        report = canonical.derivative_identity_check(n, m)
    return CheckResult(
        check=which,
        n=n,
        lam=(m,) if m else (),
        passed=report.passed,
        lhs="entrywise equal" if report.passed else repr(report.failures[:3]),
        rhs=f"m={m}",
    )


def _theorem1(n, m):
    for lam in partitions_of(m):
        report = schaper.theorem1_check(lam, n)
        yield CheckResult(
            check="theorem1",
            n=n,
            lam=lam,
            passed=report.passed,
            lhs=repr(report.sum_formula),
            rhs=repr(report.derivative_side),
        )


def _det_bridge(n, m):
    for lam in partitions_of(m):
        det = schaper.schaper_det_rhs(lam, n)
        weighted = schaper.dim_weighting(schaper.schaper_sum_rhs(lam, n))
        yield CheckResult(
            check="det-bridge",
            n=n,
            lam=lam,
            passed=det == weighted and det >= 0,
            lhs=str(det),
            rhs=str(weighted),
        )


def _semisimple(n, m):
    amat = bar_matrix(n, m)
    dmat = canonical.decomposition_matrix(n, m)
    one = LaurentPoly.one()
    identity = all(
        matrix.columns[lam] == {lam: one}
        for matrix in (amat, dmat)
        for lam in matrix.order
    )
    vanishing = all(
        schaper.schaper_sum_rhs(lam, n).is_zero() for lam in partitions_of(m)
    )
    yield CheckResult(
        check="semisimple",
        n=n,
        lam=(m,) if m else (),
        passed=identity and vanishing,
        lhs="identity matrices" if identity else "non-identity matrix",
        rhs="zero sum-formula vectors" if vanishing else "nonzero vector",
    )


def _oracle_in_range(n, m):
    if n in (2, 3) and m <= ORACLE_MAX_M:
        return True
    return n == 4 and m <= ORACLE_N4_MAX_M


def _oracle(n, m):
    for lam in partitions_of(m):
        left = gram_det_valuation(lam, n)
        right = schaper.schaper_det_rhs(lam, n)
        yield CheckResult(
            check="oracle",
            n=n,
            lam=lam,
            passed=left == right,
            lhs=str(left),
            rhs=str(right),
        )


def _ariki(n, m):
    dmat = canonical.decomposition_matrix(n, m)
    ranks = {mu: gram_rank_at_root(mu, n) for mu in partitions_of(m)}
    for lam in partitions_of(m):
        total = sum(d.eval_at_one() * ranks[mu] for mu, d in dmat.row(lam).items())
        expected = dim_specht(lam)
        yield CheckResult(
            check="ariki",
            n=n,
            lam=lam,
            passed=total == expected,
            lhs=str(total),
            rhs=str(expected),
        )


def render_table(results: list[CheckResult]) -> str:
    lines = []
    by_check: dict[str, list[CheckResult]] = {}
    for result in results:
        by_check.setdefault(result.check, []).append(result)
    width = max((len(check) for check in by_check), default=10)
    for check in sorted(by_check):
        group = by_check[check]
        failures = [r for r in group if not r.passed]
        status = "PASS" if not failures else "FAIL"
        lines.append(f"{check.ljust(width)}  {status}  ({len(group)} cases)")
        for failure in failures:
            lam = format_partition(failure.lam) if failure.lam is not None else "-"
            lines.append(
                f"  FAIL {check} lambda=({lam}) n={failure.n}: "
                f"lhs={failure.lhs} rhs={failure.rhs}"
            )
    total = len(results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{total} checks, {failed} failures")
    return "\n".join(lines)
