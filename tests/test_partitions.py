"""Partition combinatorics tests.

Enumeration is checked against an independent brute-force oracle (filtering
weakly decreasing compositions), dimensions against explicit tableau
enumeration, and the signed beta-symbol against its alternating property.
"""

from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from fockdec.partitions import (
    check_partition,
    conjugate,
    conjugate_tableau,
    d_symbol,
    dim_specht,
    dominated_by,
    first_column_betas,
    format_partition,
    hook_length,
    is_regular,
    parse_partition,
    partition_from_betas,
    partitions_of,
    standard_tableaux,
)


def brute_force_partitions(m):
    """Oracle: all weakly decreasing positive tuples summing to m.

    Enumerates every composition of m (2^(m-1) of them) and filters; entirely
    independent of the production recursion.
    """
    if m == 0:
        return {()}
    found = set()
    for cuts in product((0, 1), repeat=m - 1):
        parts = []
        current = 1
        for cut in cuts:
            if cut:
                parts.append(current)
                current = 1
            else:
                current += 1
        parts.append(current)
        if all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
            found.add(tuple(parts))
    return found


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == ((),)

    def test_two(self):
        assert partitions_of(2) == ((2,), (1, 1))

    @pytest.mark.parametrize("m", range(9))
    def test_against_brute_force(self, m):
        produced = partitions_of(m)
        assert len(set(produced)) == len(produced)
        assert set(produced) == brute_force_partitions(m)

    def test_eight_has_22(self):
        assert len(partitions_of(8)) == 22

    def test_reverse_lex_order(self):
        for m in range(9):
            order = partitions_of(m)
            assert list(order) == sorted(order, reverse=True)

    def test_order_refines_dominance_larger_first(self):
        for m in range(9):
            order = partitions_of(m)
            for i, lam in enumerate(order):
                for mu in order[i + 1 :]:
                    assert not dominated_by(lam, mu) or lam == mu

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestDominance:
    def test_examples(self):
        assert dominated_by((1, 1), (2,))
        assert dominated_by((3, 1), (3, 1))
        assert not dominated_by((3, 1), (2, 2))

    def test_unequal_sizes_error(self):
        with pytest.raises(ValueError):
            dominated_by((2,), (2, 1))

    @pytest.mark.parametrize("m", range(9))
    def test_partial_order(self, m):
        parts = partitions_of(m)
        for lam in parts:
            assert dominated_by(lam, lam)
        for lam in parts:
            for mu in parts:
                if dominated_by(lam, mu) and dominated_by(mu, lam):
                    assert lam == mu
        for lam in parts:
            for mu in parts:
                if not dominated_by(lam, mu):
                    continue
                for nu in parts:
                    if dominated_by(mu, nu):
                        assert dominated_by(lam, nu)


class TestHooks:
    def test_examples(self):
        assert hook_length((3, 2), 1, 1) == 4
        assert hook_length((3, 2), 2, 1) == 2
        assert hook_length((1,), 1, 1) == 1

    def test_outside_cell(self):
        with pytest.raises(ValueError):
            hook_length((3, 2), 2, 3)
        with pytest.raises(ValueError):
            hook_length((3, 2), 3, 1)


class TestBetas:
    def test_first_column_examples(self):
        assert first_column_betas((3, 2), 2) == (4, 2)
        assert first_column_betas((3, 2), 3) == (5, 3, 0)
        assert first_column_betas((), 1) == (0,)

    def test_first_column_is_hooks(self):
        for m in range(1, 8):
            for lam in partitions_of(m):
                s = len(lam)
                hooks = tuple(hook_length(lam, b, 1) for b in range(1, s + 1))
                assert first_column_betas(lam, s) == hooks

    def test_s_too_small(self):
        with pytest.raises(ValueError):
            first_column_betas((3, 2), 1)

    def test_recover_examples(self):
        assert partition_from_betas((3, 0)) == (1, (2,))
        assert partition_from_betas((0, 3)) == (-1, (2,))
        assert partition_from_betas((2, 2)) is None
        assert partition_from_betas((3, -1)) is None

    def test_round_trip(self):
        for m in range(9):
            for lam in partitions_of(m):
                for s in range(len(lam), m + 3):
                    if s == 0:
                        continue
                    assert partition_from_betas(first_column_betas(lam, s)) == (1, lam)


class TestDimensions:
    def test_one_row_and_one_column(self):
        assert dim_specht((5,)) == 1
        assert dim_specht((1, 1, 1)) == 1

    def test_three_two(self):
        assert dim_specht((3, 2)) == 5
        assert len(standard_tableaux((3, 2))) == 5

    @pytest.mark.parametrize("m", range(8))
    def test_matches_enumeration(self, m):
        for lam in partitions_of(m):
            assert dim_specht(lam) == len(standard_tableaux(lam))

    @pytest.mark.parametrize("m", range(8))
    def test_sum_of_squares(self, m):
        assert sum(dim_specht(lam) ** 2 for lam in partitions_of(m)) == factorial(m)

    def test_closed_form_hooks_match_hook_length(self):
        for m in range(11):
            for lam in partitions_of(m):
                product = 1
                for row in range(1, len(lam) + 1):
                    for col in range(1, lam[row - 1] + 1):
                        product *= hook_length(lam, row, col)
                assert dim_specht(lam) == factorial(m) // product

    @pytest.mark.parametrize("bad", [(2, 0), (0,), (1, 2)])
    def test_rejects_non_partitions(self, bad):
        with pytest.raises(ValueError):
            dim_specht(bad)


@pytest.mark.parametrize("bad", [(1, 2), (2, 0), (0,), (True,)])
@pytest.mark.parametrize(
    "helper",
    [conjugate, lambda lam: first_column_betas(lam, 2), standard_tableaux],
    ids=["conjugate", "first_column_betas", "standard_tableaux"],
)
def test_helpers_reject_non_partitions(helper, bad):
    with pytest.raises(ValueError):
        helper(bad)


class TestStandardTableaux:
    def test_counts(self):
        assert len(standard_tableaux((2,))) == 1
        assert len(standard_tableaux((2, 1))) == 2

    def test_row_reading_order(self):
        for lam in [(2, 1), (3, 2), (2, 2, 1)]:
            tableaux = standard_tableaux(lam)
            words = [tuple(x for row in t for x in row) for t in tableaux]
            assert words == sorted(words)

    def test_entries_increase(self):
        for t in standard_tableaux((3, 2)):
            for row in t:
                assert list(row) == sorted(row)
            for c in range(2):
                assert t[0][c] < t[1][c]

    def test_conjugate_tableau(self):
        for t in standard_tableaux((3, 2)):
            tt = conjugate_tableau(t)
            assert tuple(len(r) for r in tt) == (2, 2, 1)
            assert conjugate_tableau(tt) == t


class TestDSymbol:
    def test_examples(self):
        assert d_symbol((4, 2)) == 5
        assert d_symbol((2, 4)) == -5
        assert d_symbol((3, 3)) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5),
        st.data(),
    )
    def test_alternating(self, entries, data):
        i = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
        if i == j:
            return
        swapped = list(entries)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert d_symbol(tuple(swapped)) == -d_symbol(tuple(entries))

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5))
    def test_repeats_vanish(self, entries):
        entries = entries + [entries[0]]
        assert d_symbol(tuple(entries)) == 0

    def test_negative_entry_is_zero(self):
        assert d_symbol((5, -1, 2)) == 0


class TestRegularity:
    def test_examples(self):
        assert not is_regular((2, 1, 1), 2)
        assert is_regular((3, 2), 2)
        assert not is_regular((2, 2, 2), 3)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            is_regular((2, 1), 1)


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 2)) == (2, 2, 1)
        assert conjugate(()) == ()
        assert conjugate((1, 1, 1)) == (3,)

    def test_involution(self):
        for m in range(9):
            for lam in partitions_of(m):
                assert conjugate(conjugate(lam)) == lam


class TestSerialization:
    def test_round_trip(self):
        for m in range(7):
            for lam in partitions_of(m):
                assert parse_partition(format_partition(lam)) == lam

    def test_empty(self):
        assert format_partition(()) == ""
        assert parse_partition("") == ()

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_partition("2,x")
        with pytest.raises(ValueError):
            parse_partition("1,2")
        for parts in [(0, 1), (True, True), (2, True), (True,)]:
            with pytest.raises(ValueError, match="positive integers"):
                check_partition(parts)
