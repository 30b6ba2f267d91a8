"""Canonical basis, decomposition matrix, and the two matrix identities."""

import re

import pytest

from fockdec import canonical, fock, schaper, verify
from fockdec.canonical import (
    canonical_vector,
    decomposition_matrix,
    derivative_identity_check,
    gj_identity_check,
)
from fockdec.errors import ConventionError
from fockdec.fock import BarMatrix, FockVector, bar_matrix, bar_vector
from fockdec.laurent import LaurentPoly
from fockdec.partitions import dominated_by, partitions_of
from fockdec.schaper import gabber_joseph_rhs

one = LaurentPoly.one()


class TestCanonicalVector:
    def test_dominance_minimal_is_bare(self):
        for n in (2, 3):
            for m in (2, 3, 4):
                lam = (1,) * m
                assert canonical_vector(lam, n) == FockVector.basis(lam)

    def test_row_two(self):
        expected = FockVector({(2,): one, (1, 1): LaurentPoly({1: 1})})
        assert canonical_vector((2,), 2) == expected

    def test_semisimple_range(self):
        for m in (1, 2, 3):
            for lam in partitions_of(m):
                assert canonical_vector(lam, 5) == FockVector.basis(lam)

    def test_bar_invariance(self):
        for n in (2, 3):
            for m in range(6):
                for lam in partitions_of(m):
                    g = canonical_vector(lam, n)
                    assert bar_vector(g, n) == g


class TestDecompositionMatrix:
    def test_n2_m2(self):
        dmat = decomposition_matrix(2, 2)
        assert dmat.entry((1, 1), (2,)) == LaurentPoly({1: 1})
        assert dmat.entry((2,), (2,)) == one
        assert dmat.entry((1, 1), (1, 1)) == one
        assert dmat.entry((2,), (1, 1)).is_zero()

    def test_semisimple_identity(self):
        dmat = decomposition_matrix(5, 3)
        for a in dmat.order:
            for b in dmat.order:
                assert dmat.entry(a, b) == (one if a == b else LaurentPoly.zero())

    def test_structure(self):
        for n in (2, 3):
            for m in range(7):
                dmat = decomposition_matrix(n, m)
                dmat.validate()
                for mu in dmat.order:
                    for lam in dmat.order:
                        entry = dmat.entry(mu, lam)
                        assert all(e >= 0 for e, _ in entry.items())
                        assert dict(entry.items()).get(0, 0) == (1 if mu == lam else 0)
                        if not entry.is_zero() and mu != lam:
                            assert dominated_by(mu, lam)
                        assert all(c >= 0 for _, c in entry.items())

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            decomposition_matrix(1, 2)


class TestIdentities:
    def test_gj_hand_entry(self):
        amat = bar_matrix(2, 2)
        dmat = decomposition_matrix(2, 2)
        lam, mu = (1, 1), (2,)
        rhs = LaurentPoly.zero()
        for tau in dmat.order:
            rhs = rhs + amat.entry(lam, tau) * dmat.entry(tau, mu).bar()
        assert rhs == LaurentPoly({1: 1})
        assert dmat.entry(lam, mu) == rhs

    def test_gj_full_small_range(self):
        for n in (2, 3, 4, 5):
            for m in range(6):
                assert gj_identity_check(n, m) == []

    def test_derivative_hand_entry(self):
        amat = bar_matrix(2, 2)
        dmat = decomposition_matrix(2, 2)
        assert dmat.entry((1, 1), (2,)).derivative_at_one() == 1
        assert amat.entry((1, 1), (2,)).derivative_at_one() == 2

    def test_derivative_full_small_range(self):
        for n in (2, 3, 4, 5):
            for m in range(6):
                assert derivative_identity_check(n, m) == []


# The first odd entry of A'(1) in row-major order for
# `TestRowMajorFailures.perturbed_bar`: its diagonal 1 + q at (2, 1).
FIRST_ODD = "odd entry 1 of A'(1) at ((2, 1), (2, 1)), n=2"


class TestRowMajorFailures:
    """Checks walk the sparse columns but report failures row by row."""

    @staticmethod
    def perturbed_bar():
        # A at (2, 3), order (3), (2,1), (1,1,1): q is added at ((1,1,1), (3))
        # and at the diagonal ((2,1), (2,1)).  Column-major, the first failure
        # is in column (3); row-major, it is the diagonal in row (2,1).
        amat = bar_matrix(2, 3)
        q = LaurentPoly({1: 1})
        columns = dict(amat.columns)
        columns[(3,)] = {**amat.columns[(3,)], (1, 1, 1): amat.entry((1, 1, 1), (3,)) + q}
        columns[(2, 1)] = {**amat.columns[(2, 1)], (2, 1): one + q}
        return BarMatrix(n=2, m=3, order=amat.order, columns=columns)

    def test_validate_reports_first_failure_in_row_major_order(self):
        with pytest.raises(AssertionError, match=r"^diagonal entry at \(2, 1\)"):
            self.perturbed_bar().validate()

    def test_identity_failures_in_row_major_order(self, monkeypatch):
        # Solve D from the true A first: were D(2, 3) not cached, the patched
        # bar_matrix would hand the perturbed A to the triangular solve.  The
        # GJ check reads A through `fock.bar_vector`, so fock is patched too.
        decomposition_matrix(2, 3)
        for module in (canonical, fock):
            monkeypatch.setattr(module, "bar_matrix", lambda n, m: self.perturbed_bar())
        position = {lam: i for i, lam in enumerate(partitions_of(3))}
        cells = [(lam, mu) for lam, mu, _, _ in gj_identity_check(2, 3)]
        assert len(cells) >= 2
        assert cells == sorted(cells, key=lambda c: (position[c[0]], position[c[1]]))
        with pytest.raises(ConventionError, match=re.escape(FIRST_ODD)):
            derivative_identity_check(2, 3)

    def test_half_derivative_names_first_odd_entry_in_row_major_order(self):
        # Column-major, the first odd entry of A'(1) is at ((1,1,1), (3)).
        with pytest.raises(ConventionError) as raised:
            self.perturbed_bar().half_derivative
        assert str(raised.value) == FIRST_ODD

    def test_readers_report_the_half_derivative_message(self, monkeypatch):
        decomposition_matrix(2, 3)
        perturbed = self.perturbed_bar()
        with pytest.raises(AssertionError) as invalid:
            perturbed.validate()

        def patched(n, m):
            return perturbed if (n, m) == (2, 3) else bar_matrix(n, m)

        for module in (canonical, schaper, verify):
            monkeypatch.setattr(module, "bar_matrix", patched)
        for reader in (lambda: gabber_joseph_rhs((3,), 2), lambda: derivative_identity_check(2, 3)):
            with pytest.raises(ConventionError) as raised:
                reader()
            assert str(raised.value) == FIRST_ODD
        # verify reports each suite's first error as one failing case at m = 3.
        results = verify.run_verification(3, (2,), ("bar-structure", "derivative"))
        assert [(r.check, r.lam, r.lhs, r.rhs) for r in results if not r.passed] == [
            ("bar-structure", None, str(invalid.value), "m=3"),
            ("derivative", None, FIRST_ODD, "m=3"),
        ]
