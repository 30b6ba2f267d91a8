"""Mutation gate for the `verify` suites, and the one failure boundary in `run_verification`.

Each mutant is a one-line fault of the source, applied in process by
monkeypatch wherever the package binds the function it replaces; the matrix
caches and the kernel memo are cleared around it.  Each mutant pins the
suites that must catch it in `run_verification(6, (2, 3, 4, 5))`, the
default report: at least these, so that a new suite never breaks the gate.
`beta-move` must end the run with ValueError, a program fault, and
`regular` is caught by no suite yet.  `series-strict` (`>` for `>=` in the
series loop of `kernel._pair`) is left out: it is equivalent, since the
extra term has a repeated index and the insertion zeroes it.
"""

import json
import sys

import pytest

from fockdec import canonical, cli, fock, hecke, kernel, laurent, partitions, schaper, verify
from fockdec.errors import ConventionError
from fockdec.laurent import LaurentPoly
from fockdec.partitions import check_partition, first_column_betas, hook_length

MAX_M = 6
N_SET = (2, 3, 4, 5)


@pytest.fixture
def fresh_caches():
    """Empty the kernel memo and the matrix caches, Gram matrices too, before and after a test."""

    def clear():
        kernel.clear_cache()
        fock._bar_matrix.cache_clear()
        canonical._decomposition_matrix.cache_clear()
        hecke._gram_matrix.cache_clear()

    clear()
    yield
    clear()


def everywhere(module, name, replacement):
    """A mutant that replaces `module.name` wherever the package binds it, as an edit would."""

    def apply(monkeypatch):
        original = getattr(module, name)
        for loaded in list(sys.modules.values()):
            if loaded and loaded.__name__.split(".")[0] == "fockdec":
                if getattr(loaded, name, None) is original:
                    monkeypatch.setattr(loaded, name, replacement)

    return apply


# kernel: the q-wedge relations.

_PAIR = kernel._pair


def _series_sign(a, b, n):
    """Each series term with its sign flipped."""
    swap, *series = _PAIR(a, b, n)
    return [swap] + [({e: -c for e, c in coeff.items()}, x, y) for coeff, x, y in series]


def _swap_coeff(a, b, n):
    """-q (b, a) for -q^{-1} (b, a) when i != 0."""
    children = _PAIR(a, b, n)
    if (b - a) % n:
        children[0] = ({1: -1}, b, a)
    return children


def _i0_sign(a, b, n):
    """+(b, a) for -(b, a) when i == 0."""
    return [({0: 1}, b, a)] if (b - a) % n == 0 else _PAIR(a, b, n)


def _delta_order(a, b, n):
    """d_t alternates by i first, then n - i: i, 2i, n + i, ..."""
    i = (b - a) % n
    if i == 0:
        return _PAIR(a, b, n)
    children = [({-1: -1}, b, a)]
    t, delta = 0, i
    while b - delta > a + delta:
        sign = -1 if t % 2 else 1
        children.append(({-t - 2: sign, -t: -sign}, b - delta, a + delta))
        t += 1
        delta += i if t % 2 else n - i
    return children


# fock: the bar involution of a basis vector.

_ALPHA = fock._alpha_statistic
_BAR_PARTITION = fock.bar_partition
_HALF_DERIVATIVE = fock.BarMatrix.half_derivative.func


def _alpha(head, n):
    """Counts the congruent index pairs, not the non-congruent ones."""
    k = len(head)
    return k * (k - 1) // 2 - _ALPHA(head, n)


def _k_sign(mu, n, k=None):
    """Sign (-1)^k for (-1)^(k choose 2)."""
    if k is None:
        k = sum(mu)
    vector = _BAR_PARTITION(mu, n, k)
    return vector.scale(LaurentPoly({0: -1})) if k * (k + 1) // 2 % 2 else vector


def _half_deriv(self):
    """-A'(1)/2 for A'(1)/2."""
    half = _HALF_DERIVATIVE(self)
    return {lam: {tau: -h for tau, h in row.items()} for lam, row in half.items()}


# canonical: the triangular solve.

_LIFT = canonical._antisymmetric_lift


def _lift_side(r):
    """The q^-1 side of the residual for the q side."""
    _LIFT(r)
    return LaurentPoly({e: c for e, c in r.items() if e < 0})


# schaper and laurent: the sum formula and its prediction.

_TERMS = schaper._sum_formula_terms
_IS_REGULAR = partitions.is_regular


def _weight_sign(lam, n):
    """nu(h_bc) - nu(h_ac) for nu(h_ac) - nu(h_bc)."""
    for weight, betas in _TERMS(lam, n):
        yield -weight, betas


def _beta_move(lam, n):
    """Adds h_ac, not h_bc, to the beta-number of row a."""
    rows = len(lam)
    betas = first_column_betas(lam, rows)
    for a in range(1, rows + 1):
        for b in range(a, rows + 1):
            for c in range(1, lam[b - 1] + 1):
                h_ac = hook_length(lam, a, c)
                h_bc = hook_length(lam, b, c)
                weight = laurent.nu_quantum(h_ac, n) - laurent.nu_quantum(h_bc, n)
                if weight == 0:
                    continue
                modified = list(betas)
                modified[a - 1] += h_ac
                modified[b - 1] -= h_bc
                yield weight, tuple(modified)


def _nu_quantum(h, n):
    """h // n, the valuation of [h]!, for that of [h]."""
    return h // n


def _pred_filter(lam, n):
    """`jantzen_prediction` without its `is_regular` filter."""
    lam = check_partition(lam)
    dmat = schaper.decomposition_matrix(n, sum(lam))
    coords = {mu: entry.derivative_at_one() for mu, entry in dmat.row(lam).items()}
    return schaper.GrothendieckVector(schaper.SIMPLE, coords)


def _regular(lam, n):
    """A run of n equal parts counts as regular: `run > n` for `run >= n`."""
    return _IS_REGULAR(lam, n + 1)


# hecke: the Specht generator z = x T_w y T_{w^-1}.

# y summed with weight +q^-1 per step, not -q^-1: (+q)^{-l(v)} for (-q)^{-l(v)}.
_Y_WEIGHT = {-1: 1}


# Mutant -> how to apply it to the package.
MUTANTS = {
    "series-sign": everywhere(kernel, "_pair", _series_sign),
    "swap-coeff": everywhere(kernel, "_pair", _swap_coeff),
    "i0-sign": everywhere(kernel, "_pair", _i0_sign),
    "delta-order": everywhere(kernel, "_pair", _delta_order),
    "alpha": everywhere(fock, "_alpha_statistic", _alpha),
    "k-sign": everywhere(fock, "bar_partition", _k_sign),
    "lift-side": everywhere(canonical, "_antisymmetric_lift", _lift_side),
    "weight-sign": everywhere(schaper, "_sum_formula_terms", _weight_sign),
    "nu-quantum": everywhere(laurent, "nu_quantum", _nu_quantum),
    "half-deriv": lambda monkeypatch: monkeypatch.setattr(
        fock.BarMatrix, "half_derivative", property(_half_deriv)
    ),
    "pred-filter": everywhere(schaper, "jantzen_prediction", _pred_filter),
    "regular": everywhere(partitions, "is_regular", _regular),
    "y-weight": everywhere(hecke, "_MINUS_Q_INVERSE", _Y_WEIGHT),
}

# Mutant -> the suites that catch it at MAX_M and N_SET.
CAUGHT_BY = {
    "series-sign": "involution canonical-structure bar-triangle derivative theorem1 ariki",
    "swap-coeff": "involution k-stability bar-structure canonical-structure bar-triangle "
    "derivative theorem1 semisimple ariki",
    "i0-sign": "involution k-stability bar-structure canonical-structure bar-triangle "
    "derivative theorem1 semisimple ariki",
    "delta-order": "involution k-stability canonical-structure bar-triangle derivative "
    "theorem1 semisimple ariki",
    "alpha": "k-stability bar-structure canonical-structure bar-triangle derivative "
    "theorem1 semisimple ariki",
    "k-sign": "k-stability bar-structure canonical-structure bar-triangle derivative "
    "theorem1 semisimple ariki",
    "lift-side": "canonical-structure bar-triangle derivative theorem1 ariki",
    "weight-sign": "theorem1 det-bridge oracle",
    "nu-quantum": "theorem1 oracle",
    "half-deriv": "derivative theorem1",
    "pred-filter": "theorem1",
    "regular": "",
    "y-weight": "oracle ariki",
}


@pytest.mark.parametrize(
    "name",
    [
        *(name for name in MUTANTS if name != "regular"),
        pytest.param(
            "regular",
            marks=pytest.mark.xfail(
                strict=True,
                reason="no suite reads regularity from an independent source (ROADMAP item 9(b))",
            ),
        ),
    ],
)
def test_mutant_is_caught(monkeypatch, fresh_caches, name):
    MUTANTS[name](monkeypatch)
    caught = {r.check for r in verify.run_verification(MAX_M, N_SET) if not r.passed}
    assert caught, f"{name}: every suite passes"
    assert set(CAUGHT_BY[name].split()) <= caught


def test_beta_move_is_a_program_fault(monkeypatch, fresh_caches):
    # Its ValueError is not a failure a suite reports: it ends the run.
    everywhere(schaper, "_sum_formula_terms", _beta_move)(monkeypatch)
    with pytest.raises(ValueError, match="mixed degrees"):
        verify.run_verification(MAX_M, N_SET)


class TestFailureBoundary:
    """A raised failure becomes one failing case of its suite; the run goes on."""

    @staticmethod
    def boundary_cases(results, suite):
        return [r for r in results if r.check == suite and r.lam is None and not r.passed]

    def test_broken_convention_keeps_the_report(self, monkeypatch, fresh_caches):
        MUTANTS["series-sign"](monkeypatch)
        results = verify.run_verification(4, (2, 3))
        assert any(r.lam is not None for r in results if r.check == "involution" and not r.passed)
        assert {r.check for r in results} == set(verify.ALL_SUITES)
        for suite in ("theorem1", "derivative"):
            cases = self.boundary_cases(results, suite)
            assert cases
            for case in cases:
                assert "not antisymmetric" in case.lhs
                assert case.rhs.startswith("m=")

    def test_cli_prints_the_report_and_fails(self, monkeypatch, fresh_caches, capsys):
        MUTANTS["series-sign"](monkeypatch)
        code = cli.main(["verify", "--format", "json", "--max-m", "4", "--n-set", "2,3"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        broken = [r for r in report if r["check"] == "theorem1" and r["lambda"] is None]
        assert broken and not any(r["pass"] for r in broken)
        assert all("not antisymmetric" in r["lhs"] and r["rhs"].startswith("m=") for r in broken)
        assert any(r["check"] == "involution" and not r["pass"] for r in report)

    def test_failed_validate_is_a_case(self, monkeypatch, fresh_caches):
        MUTANTS["lift-side"](monkeypatch)
        results = verify.run_verification(4, (2, 3))
        cases = self.boundary_cases(results, "canonical-structure")
        assert cases and all("not in q.Z[q]" in case.lhs for case in cases)

    def test_exhausted_step_budget_is_a_case(self, monkeypatch, fresh_caches):
        monkeypatch.setattr(kernel, "DEFAULT_STEP_BUDGET", 50)
        results = verify.run_verification(MAX_M, N_SET)
        cases = self.boundary_cases(results, "k-stability")
        assert cases and all("exceeded 50 insertions" in case.lhs for case in cases)

    def test_cases_before_the_failure_are_kept(self, monkeypatch):
        def cases(n, m):
            yield (1,), True, "kept", ""
            raise ConventionError("broken")

        _, moduli = verify.SUITES["involution"]
        monkeypatch.setitem(verify.SUITES, "involution", (cases, moduli))
        results = verify.run_verification(1, (2,), ("involution",))
        assert [(r.lam, r.passed, r.lhs, r.rhs) for r in results] == [
            (None, False, "broken", "m=0"),
            (None, False, "broken", "m=1"),
            ((1,), True, "kept", ""),
            ((1,), True, "kept", ""),
        ]

    def test_value_error_still_raises(self, monkeypatch):
        def cases(n, m):
            raise ValueError("a program fault")
            yield

        _, moduli = verify.SUITES["involution"]
        monkeypatch.setitem(verify.SUITES, "involution", (cases, moduli))
        with pytest.raises(ValueError, match="a program fault"):
            verify.run_verification(1, (2,), ("involution",))
