"""Driver for the full verification suite.

Each suite yields one (lambda, passed, lhs, rhs) case at a time for one
(n, m); the driver turns the cases into CheckResult records and the CLI turns
those into a human table, a JSON report, and an exit status.  A suite is one
entry of `SUITES`: its case function and the rule for which (n, m) it runs
at.  Aggregation is order-independent: results are sorted by (check, n,
lambda) before rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from fockdec import canonical, schaper
from fockdec.fock import FockVector, bar_matrix, bar_partition, bar_vector
from fockdec.hecke import gram_det_valuation, gram_rank_at_root
from fockdec.laurent import LaurentPoly
from fockdec.partitions import (
    check_modulus,
    dim_specht,
    format_partition,
    partitions_of,
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
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {
            "lambda": format_partition(self.lam) if self.lam is not None else None,
            "n": self.n,
            "check": self.check,
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _involution(n, m):
    for lam in partitions_of(m):
        twice = bar_vector(bar_partition(lam, n), n)
        expected = FockVector.basis(lam)
        yield lam, twice == expected, repr(twice), repr(expected)


def _k_stability(n, m):
    for lam in partitions_of(m):
        k = max(m, len(lam))
        small = bar_partition(lam, n, k)
        large = bar_partition(lam, n, k + 3)
        yield lam, small == large, repr(small), repr(large)


def _validated(matrix, detail):
    """The lambda-free case for `matrix.validate()`: `detail`, or the failure."""
    try:
        matrix.validate()
    except AssertionError as exc:
        return None, False, str(exc), ""
    return None, True, detail, ""


def _bar_structure(n, m):
    amat = bar_matrix(n, m)
    yield _validated(amat, "unitriangular, zero at q=1 off-diagonal")
    odd = amat.row_major(
        (lam, tau)
        for tau, column in amat.columns.items()
        for lam, entry in column.items()
        if entry.derivative_at_one() % 2
    )
    yield (
        (m,) if m else (),
        not odd,
        f"odd derivative entries: {odd!r}" if odd else "all derivatives even",
        f"m={m}",
    )


def _canonical_structure(n, m):
    dmat = canonical.decomposition_matrix(n, m)
    yield _validated(dmat, "unitriangular over Z[q], constant term delta")
    for lam in dmat.order:
        column = FockVector._make(m, dmat.column(lam))
        invariant = bar_vector(column, n) == column
        negative = any(
            c < 0 for coeff in column.terms.values() for _, c in coeff.items()
        )
        yield (
            lam,
            invariant and not negative,
            "bar-invariant" if invariant else "not bar-invariant",
            "coefficients >= 0" if not negative else "negative coefficient",
        )


def _identity(report, m):
    yield (
        (m,) if m else (),
        report.passed,
        "entrywise equal" if report.passed else repr(report.failures[:3]),
        f"m={m}",
    )


def _theorem1(n, m):
    for lam in partitions_of(m):
        report = schaper.theorem1_check(lam, n)
        yield lam, report.passed, repr(report.sum_formula), repr(report.derivative_side)


def _det_bridge(n, m):
    for lam in partitions_of(m):
        det = schaper.schaper_det_rhs(lam, n)
        weighted = schaper.dim_weighting(schaper.schaper_sum_rhs(lam, n))
        yield lam, det == weighted and det >= 0, str(det), str(weighted)


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
    yield (
        (m,) if m else (),
        identity and vanishing,
        "identity matrices" if identity else "non-identity matrix",
        "zero sum-formula vectors" if vanishing else "nonzero vector",
    )


def _oracle(n, m):
    for lam in partitions_of(m):
        left = gram_det_valuation(lam, n)
        right = schaper.schaper_det_rhs(lam, n)
        yield lam, left == right, str(left), str(right)


def _ariki(n, m):
    dmat = canonical.decomposition_matrix(n, m)
    ranks = {mu: gram_rank_at_root(mu, n) for mu in partitions_of(m)}
    for lam in partitions_of(m):
        total = sum(d.eval_at_one() * ranks[mu] for mu, d in dmat.row(lam).items())
        expected = dim_specht(lam)
        yield lam, total == expected, str(total), str(expected)


def _always(n, m):
    return True


# Suite name -> (cases(n, m), runs_at(n, m)), in walk order.  A case function
# yields (lambda, passed, lhs, rhs); lambda is None for a whole-matrix case.
# Library functions are looked up when a suite runs, so that a tracer or a
# test that replaces a module attribute sees every call.
SUITES = {
    "involution": (_involution, _always),
    "k-stability": (_k_stability, lambda n, m: m <= K_STABILITY_MAX_M),
    "bar-structure": (_bar_structure, _always),
    "canonical-structure": (_canonical_structure, _always),
    "bar-triangle": (
        lambda n, m: _identity(canonical.gj_identity_check(n, m), m),
        _always,
    ),
    "derivative": (
        lambda n, m: _identity(canonical.derivative_identity_check(n, m), m),
        _always,
    ),
    "theorem1": (_theorem1, _always),
    "det-bridge": (_det_bridge, _always),
    "semisimple": (
        _semisimple,
        lambda n, m: m < n <= m + 3 and m <= SEMISIMPLE_MAX_M,
    ),
    "oracle": (
        _oracle,
        lambda n, m: (n in (2, 3) and m <= ORACLE_MAX_M)
        or (n == 4 and m <= ORACLE_N4_MAX_M),
    ),
    "ariki": (_ariki, lambda n, m: n in (2, 3) and m <= ARIKI_MAX_M),
}

ALL_SUITES = tuple(SUITES)


def check_arguments(max_m: int, n_set: tuple[int, ...], suites: tuple[str, ...]) -> None:
    """Raise ValueError unless `run_verification` accepts these arguments."""
    if not suites:
        raise ValueError("suites is empty; name at least one suite")
    if not n_set:
        raise ValueError("n_set is empty; name at least one modulus")
    for n in n_set:
        check_modulus(n)
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {ALL_SUITES}")


def run_verification(
    max_m: int,
    n_set: tuple[int, ...],
    suites: tuple[str, ...] = ALL_SUITES,
) -> list[CheckResult]:
    check_arguments(max_m, n_set, suites)
    chosen = [name for name in SUITES if name in suites and name != "semisimple"]
    # Each modulus once, in first-seen order, as a repeated suite runs once.
    results = _walk([(n, m) for n in dict.fromkeys(n_set) for m in range(max_m + 1)], chosen)
    if "semisimple" in suites:
        # The one suite whose moduli do not come from n_set: its rule picks
        # n = m+1..m+3 out of every modulus up to max_m + 3.
        pairs = [(n, m) for m in range(max_m + 1) for n in range(2, max_m + 4)]
        results += _walk(pairs, ["semisimple"])
    results.sort(key=lambda r: (r.check, r.n, r.lam if r.lam is not None else ()))
    return results


def _walk(pairs, names) -> list[CheckResult]:
    # (n, m) outermost: the matrix caches of fock and canonical hold the
    # matrices of the current (n, m) for every suite that reads them.
    results = []
    for n, m in pairs:
        for name in names:
            cases, runs_at = SUITES[name]
            if runs_at(n, m):
                results.extend(CheckResult(name, n, *case) for case in cases(n, m))
    return results


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
