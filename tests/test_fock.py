"""Wedge words, straightening, and the bar involution.

The straightening expansions asserted here were computed by hand from the
two rewrite rules; everything else is property-based (involution,
truncation stability, triangularity, closure of generated indices).
"""

import pytest

from fockdec import kernel
from fockdec.errors import StepBudgetExceeded
from fockdec.fock import (
    FockVector,
    bar_matrix,
    bar_partition,
    bar_vector,
    partition_from_wedge,
    straighten,
    wedge_from_partition,
)
from fockdec.laurent import LaurentPoly, parse_poly
from fockdec.partitions import dominated_by, partition_from_betas, partitions_of

one = LaurentPoly.one()


def wedge_degree(head: tuple[int, ...]) -> int:
    """Sum of i_j + j - 1 over the head (tail terms contribute zero)."""
    return sum(value + j for j, value in enumerate(head))


def betas_from_wedge(head: tuple[int, ...]) -> tuple[int, ...]:
    """The (m+1)-entry beta-sequence (i_1 + m, ..., i_m + m, 0) of a degree-m word."""
    m = wedge_degree(head)
    full = list(head) + [-j + 1 for j in range(len(head) + 1, m + 1)]
    return tuple(full[j] + m for j in range(m)) + (0,)


def vec(*pairs):
    return FockVector({lam: parse_poly(text) for text, lam in pairs})


class TestWedgeWords:
    def test_from_partition_examples(self):
        assert wedge_from_partition((2, 1), 3) == (2, 0, -2)
        assert wedge_from_partition((), 2) == (0, -1)
        assert wedge_from_partition((2,), 2) == (2, -1)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            wedge_from_partition((2, 1), 1)

    def test_bool_k_rejected(self):
        with pytest.raises(ValueError, match="truncation k=True"):
            wedge_from_partition((1,), True)

    def test_round_trip(self):
        for m in range(8):
            for lam in partitions_of(m):
                for k in range(len(lam), m + 3):
                    if k == 0:
                        continue
                    head = wedge_from_partition(lam, k)
                    assert partition_from_wedge(head) == lam
                    assert wedge_degree(head) == m

    def test_partition_from_bad_wedge(self):
        with pytest.raises(ValueError):
            partition_from_wedge((0, 1))
        with pytest.raises(ValueError):
            partition_from_wedge((0, -3))

    def test_betas_from_wedge_examples(self):
        assert betas_from_wedge((2, -1)) == (4, 1, 0)
        assert betas_from_wedge((1, 0)) == (3, 2, 0)
        assert betas_from_wedge(()) == (0,)

    def test_betas_recover_partition(self):
        for m in range(7):
            for lam in partitions_of(m):
                head = wedge_from_partition(lam, max(len(lam), 1))
                assert partition_from_betas(betas_from_wedge(head)) == (1, lam)


class TestStraighten:
    def test_already_normal(self):
        assert straighten((1, 0), 2) == vec(("1", (1, 1)))

    def test_pure_anticommutation(self):
        assert straighten((0, 2), 2) == vec(("-1", (2, 1)))

    def test_empty_series(self):
        assert straighten((0, 1), 2) == vec(("-q^-1", (1, 1)))

    def test_one_series_term(self):
        assert straighten((-1, 2), 2) == vec(("-q^-1", (2,)), ("q^-2 - 1", (1, 1)))

    def test_repeated_index_vanishes(self):
        assert straighten((1, 1), 2).is_zero()
        assert straighten((2, 1, 1), 3).is_zero()

    def test_degree_preserved(self):
        for head in [(-1, 3), (0, 1, 2), (-2, 4, 1), (1, 3, -1)]:
            for n in (2, 3):
                m = wedge_degree(head)
                result = straighten(head, n)
                for lam in result.terms:
                    assert sum(lam) == m

    def test_head_touching_tail_rejected(self):
        with pytest.raises(ValueError):
            straighten((0, -2), 2)

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            straighten((1, 0), 1)

    def test_float_entry_rejected(self):
        # Unchecked, this head straightens to a vector keyed by (0.5,).
        with pytest.raises(ValueError, match="not an int"):
            straighten((0.5, -1), 2)

    def test_bool_entry_rejected(self):
        # Unchecked, True is read as 1.
        with pytest.raises(ValueError, match="not an int"):
            straighten((True, 0), 2)

    def test_budget_exhaustion(self, monkeypatch):
        # A memoized insertion costs nothing, so start from an empty memo.
        for budget in (2, 0):
            monkeypatch.setattr(kernel, "DEFAULT_STEP_BUDGET", budget)
            kernel.clear_cache()
            with pytest.raises(StepBudgetExceeded, match=f"exceeded {budget} insertions"):
                straighten(tuple(range(8)), 2)


class TestBarInvolution:
    def test_vacuum_fixed(self):
        for n in (2, 3, 5):
            assert bar_partition((), n) == vec(("1", ()))

    def test_minimal_partition_fixed(self):
        assert bar_partition((1, 1), 2) == vec(("1", (1, 1)))

    def test_row_two(self):
        assert bar_partition((2,), 2) == vec(("1", (2,)), ("-q^-1 + q", (1, 1)))

    def test_involution(self):
        for n in (2, 3, 4, 5):
            for m in range(7):
                for lam in partitions_of(m):
                    assert bar_vector(bar_partition(lam, n), n) == FockVector.basis(lam)

    def test_k_stability(self):
        for n in (2, 3, 4, 5):
            for m in range(6):
                for lam in partitions_of(m):
                    k = max(m, len(lam))
                    assert bar_partition(lam, n, k) == bar_partition(lam, n, k + 3)

    def test_semilinearity(self):
        q = LaurentPoly({1: 1})
        v = FockVector({(): q})
        assert bar_vector(v, 2) == FockVector({(): q.bar()})
        assert bar_vector(FockVector(), 3).is_zero()

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            bar_partition((2, 2), 2, k=1)

    def test_bool_k_rejected(self):
        with pytest.raises(ValueError, match="truncation k=True"):
            bar_partition((1,), 2, True)

    def test_float_k_rejected(self):
        # Unchecked, range() raises TypeError on it.
        with pytest.raises(ValueError, match="truncation k=2.5"):
            bar_partition((1,), 2, 2.5)


class TestBarMatrix:
    def test_n2_m2(self):
        amat = bar_matrix(2, 2)
        assert amat.entry((2,), (2,)) == one
        assert amat.entry((1, 1), (1, 1)) == one
        assert amat.entry((1, 1), (2,)) == parse_poly("-q^-1 + q")
        assert amat.entry((2,), (1, 1)).is_zero()

    def test_semisimple_range_identity(self):
        for m in range(5):
            amat = bar_matrix(5, m)
            for lam in amat.order:
                for tau in amat.order:
                    expected = one if lam == tau else LaurentPoly.zero()
                    assert amat.entry(lam, tau) == expected

    def test_m0_scalar(self):
        amat = bar_matrix(3, 0)
        assert amat.order == ((),)
        assert amat.entry((), ()) == one

    def test_structure_m_up_to_6(self):
        for n in (2, 3, 4, 5):
            for m in range(7):
                amat = bar_matrix(n, m)
                amat.validate()
                for lam in amat.order:
                    for tau in amat.order:
                        entry = amat.entry(lam, tau)
                        assert entry.derivative_at_one() % 2 == 0
                        if not entry.is_zero() and lam != tau:
                            assert dominated_by(lam, tau)

    @pytest.mark.parametrize("n,m", [(2, 7), (3, 8), (4, 8), (5, 9)])
    def test_half_derivative_is_half_of_a_prime(self, n, m):
        # A convention slip can pass at n = 2 and show only from n = 3 on.
        amat = bar_matrix(n, m)
        half = amat.half_derivative
        assert tuple(half) == amat.order
        for lam, row in half.items():
            assert 0 not in row.values()
            assert list(row) == [tau for tau in amat.order if tau in row]
            for tau in amat.order:
                assert row.get(tau, 0) == amat.entry(lam, tau).derivative_at_one() // 2
        assert amat.half_derivative is half

    def test_columns_match_bar_partition(self):
        for n in (2, 3):
            for m in (3, 4):
                amat = bar_matrix(n, m)
                for tau in amat.order:
                    assert FockVector(amat.column(tau)) == bar_partition(tau, n)


class TestFockVectorJson:
    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError):
            FockVector({(1,): one, (2,): one})

    @pytest.mark.parametrize("bad", [(1, 2), (2, 0), (0,)])
    def test_non_partition_rejected(self, bad):
        with pytest.raises(ValueError):
            FockVector({bad: one})

    def test_internal_results_carry_their_degree(self):
        assert straighten((1, 1), 2) == FockVector()
        assert straighten((0, 1), 2).space == 2
        assert FockVector.basis([2, 1]) == FockVector({(2, 1): one})
