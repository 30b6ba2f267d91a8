"""Driver for the full verification suite.

Each suite yields one (lambda, passed, lhs, rhs) case at a time for one
(n, m); the driver turns the cases, and a failure a suite raises, into
CheckResult records and the CLI turns those into a human table, a JSON
report, and an exit status.  A suite is one row of `SUITES`: its case
function and the rule for the moduli it runs at in each degree.  One walk
runs every chosen suite, each (n, m) once.  Aggregation is order-independent:
results are sorted by (check, n, lambda) before rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from fockdec import canonical, schaper
from fockdec.errors import ConventionError, StepBudgetExceeded
from fockdec.fock import FockVector, bar_matrix, bar_partition, bar_vector
from fockdec.hecke import gram_det_valuation, gram_rank_at_root
from fockdec.laurent import LaurentPoly
from fockdec.partitions import (
    check_degree,
    check_modulus,
    dim_specht,
    format_partition,
    partitions_of,
)

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
        expected = FockVector.basis(lam)
        twice = bar_vector(bar_vector(expected, n), n)
        yield lam, twice == expected, repr(twice), repr(expected)


def _k_stability(n, m):
    # A's column lam is the bar of lam at k = |lam|.
    for lam in partitions_of(m):
        small = bar_vector(FockVector.basis(lam), n)
        large = bar_partition(lam, n, m + 3)
        yield lam, small == large, repr(small), repr(large)


def _bar_structure(n, m):
    amat = bar_matrix(n, m)
    amat.validate()
    yield None, True, "unitriangular, zero at q=1 off-diagonal", ""
    amat.half_derivative  # raises ConventionError at the first odd entry
    yield (m,) if m else (), True, "all derivatives even", f"m={m}"


def _canonical_structure(n, m):
    # D comes validated; column mu is bar-invariant iff D = A * bar(D) on it.
    dmat = canonical.decomposition_matrix(n, m)
    yield None, True, "unitriangular over Z[q], constant term delta", ""
    broken = {mu for _, mu, _, _ in canonical.gj_identity_check(n, m)}
    for lam, column in dmat.columns.items():
        invariant = lam not in broken
        negative = any(c < 0 for coeff in column.values() for _, c in coeff.items())
        yield (
            lam,
            invariant and not negative,
            "bar-invariant" if invariant else "not bar-invariant",
            "coefficients >= 0" if not negative else "negative coefficient",
        )


def _identity(failures, m):
    yield (
        (m,) if m else (),
        not failures,
        "entrywise equal" if not failures else repr(failures[:3]),
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


# Suite name -> (cases(n, m), moduli(m, n_set)), in run order.  A case function
# yields (lambda, passed, lhs, rhs); lambda is None for a whole-matrix case.
# The moduli rule names the n a suite runs at in degree m.  Library functions
# are looked up when a suite runs, so that a tracer or a test that replaces a
# module attribute sees every call.
SUITES = {
    "involution": (_involution, lambda m, n_set: n_set),
    "k-stability": (_k_stability, lambda m, n_set: n_set if m <= 6 else ()),
    "bar-structure": (_bar_structure, lambda m, n_set: n_set),
    "canonical-structure": (_canonical_structure, lambda m, n_set: n_set),
    "bar-triangle": (
        lambda n, m: _identity(canonical.gj_identity_check(n, m), m),
        lambda m, n_set: n_set,
    ),
    "derivative": (
        lambda n, m: _identity(canonical.derivative_identity_check(n, m), m),
        lambda m, n_set: n_set,
    ),
    "theorem1": (_theorem1, lambda m, n_set: n_set),
    "det-bridge": (_det_bridge, lambda m, n_set: n_set),
    "semisimple": (
        _semisimple,
        lambda m, n_set: range(max(2, m + 1), m + 4) if m <= 6 else (),
    ),
    "oracle": (
        _oracle,
        lambda m, n_set: [n for n in n_set if n in (2, 3) and m <= 5 or n == 4 and m <= 4],
    ),
    "ariki": (_ariki, lambda m, n_set: [n for n in n_set if n in (2, 3) and m <= 4]),
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
    check_degree(max_m)
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from {ALL_SUITES}")


def run_verification(
    max_m: int,
    n_set: tuple[int, ...],
    suites: tuple[str, ...] = ALL_SUITES,
) -> list[CheckResult]:
    """Run the chosen suites, walking each (n, m) once in sorted order.

    Every suite at one (n, m) runs before the next pair, so the matrix caches
    build A and D once per pair.  A suite raising AssertionError (a failed
    `validate()`), ConventionError or StepBudgetExceeded keeps its cases and
    ends in one failing case: lambda None, lhs the error, rhs "m=<m>".  Other
    exceptions propagate.  A failed build is not cached, so later suites at
    that (n, m) repeat it; only a broken run pays.
    """
    check_arguments(max_m, n_set, suites)
    walk: dict[tuple[int, int], list[str]] = {}
    for name, (_, moduli) in SUITES.items():
        if name in suites:
            for m in range(max_m + 1):
                for n in set(moduli(m, n_set)):
                    walk.setdefault((n, m), []).append(name)
    results = []
    for (n, m), names in sorted(walk.items()):
        for name in names:
            try:
                for case in SUITES[name][0](n, m):
                    results.append(CheckResult(name, n, *case))
            except (AssertionError, ConventionError, StepBudgetExceeded) as exc:
                results.append(CheckResult(name, n, None, False, str(exc), f"m={m}"))
    results.sort(key=lambda r: (r.check, r.n, r.lam if r.lam is not None else ()))
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
