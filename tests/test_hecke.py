"""Hecke algebra, cellular basis, Gram matrices, residue-field ranks."""

import random
import re
from functools import lru_cache

import pytest

from fockdec import hecke
from fockdec.errors import ConventionError
from fockdec.hecke import (
    _double_coset_min,
    _left_factor,
    _right_generator,
    _star,
    _times_row_sum,
    _times_t,
    bareiss_determinant,
    gram_det_valuation,
    gram_matrix,
    gram_rank_at_root,
    murphy_table,
    perm_inverse,
    perm_length,
    reduced_word,
    right_gen,
    row_reading_tableau,
    tableau_perm,
)
from fockdec.laurent import LaurentPoly, add_product, add_scaled, parse_poly
from fockdec.partitions import (
    conjugate,
    conjugate_tableau,
    dim_specht,
    partitions_of,
    standard_tableaux,
)
from fockdec.schaper import schaper_det_rhs
from fockdec.canonical import decomposition_matrix

from itertools import permutations as iter_permutations

one = LaurentPoly.one()
q = LaurentPoly({1: 1})


def element(terms):
    """A raw table {perm: {exponent: int}} from int or LaurentPoly coefficients.

    Zero coefficients are dropped, so the table is one the raw primitives
    could have produced.
    """
    table = {}
    for w, coeff in terms.items():
        coeff = LaurentPoly({0: coeff}) if isinstance(coeff, int) else coeff
        if coeff:
            table[tuple(w)] = dict(coeff.items())
    return table


def T(w):
    """The natural basis element T_w."""
    return {tuple(w): {0: 1}}


def unit(m):
    return T(range(m))


def mul(x, y):
    """x * y: x times T_v, scaled by the coefficient of v in y, summed over v."""
    table = {}
    for v, coeff in y.items():
        add_scaled(table, _times_t(x, v), coeff)
    return table


def murphy(s, t):
    """The cellular basis element m_st = T_{d(s)*} x T_{d(t)}."""
    return _times_t(_left_factor(s), tableau_perm(t))


class TestPermutations:
    def test_length_is_inversions(self):
        assert perm_length((0, 1, 2)) == 0
        assert perm_length((2, 1, 0)) == 3

    def test_reduced_word(self):
        for w in iter_permutations(range(4)):
            word = reduced_word(tuple(w))
            assert len(word) == perm_length(tuple(w))
            rebuilt = (0, 1, 2, 3)
            for i in word:
                rebuilt = right_gen(rebuilt, i)
            assert rebuilt == tuple(w)

    def test_inverse(self):
        w = (2, 0, 3, 1)
        assert perm_inverse(perm_inverse(w)) == w
        assert perm_length(perm_inverse(w)) == perm_length(w)


class TestHeckeAlgebra:
    def test_identity(self):
        t_w = T((1, 2, 0))
        assert mul(unit(3), t_w) == t_w
        assert mul(t_w, unit(3)) == t_w

    def test_quadratic_relation(self):
        t_s = T((1, 0))
        expected = element({(1, 0): q - 1, (0, 1): q})
        assert _right_generator(t_s, 0) == expected
        assert mul(t_s, t_s) == expected

    def test_associativity_generators_exhaustive(self):
        for m in (3, 4):
            gens = [T(right_gen(tuple(range(m)), i)) for i in range(m - 1)]
            for a in gens:
                for b in gens:
                    for c in gens:
                        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_associativity_random_triples(self):
        rng = random.Random(7)
        m = 4
        perms = list(iter_permutations(range(m)))
        for _ in range(12):
            x = element({tuple(rng.choice(perms)): LaurentPoly({rng.randint(-2, 2): rng.randint(1, 3)})})
            y = T(rng.choice(perms))
            z = T(rng.choice(perms))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_length_additive_products(self):
        # s1 followed on the right by s2: lengths add, single term.
        assert _times_t(T((1, 0, 2)), (0, 2, 1)) == T((1, 2, 0))

    def test_star_antiautomorphism(self):
        x = element({(1, 2, 0): one, (1, 0, 2): q})
        y = T((2, 1, 0))
        assert _star(mul(x, y)) == mul(_star(y), _star(x))
        assert _star(_star(x)) == x


def row_sum_reference(lam):
    """x_lam summed over the enumerated row stabilizer of the row-reading tableau."""
    m = sum(lam)
    perms = [tuple(range(m))]
    for row in row_reading_tableau(lam):
        values = [v - 1 for v in row]
        extended = []
        for w in perms:
            for images in iter_permutations(values):
                new = list(w)
                for v, image in zip(values, images):
                    new[v] = image
                extended.append(tuple(new))
        perms = extended
    return element({w: 1 for w in perms})


class TestRowSum:
    def test_factorised_product_matches_enumeration(self):
        rng = random.Random(5)
        for m in range(6):
            perms = list(iter_permutations(range(m)))
            samples = [T(rng.choice(perms))]
            for _ in range(3):
                samples.append(
                    element(
                        {
                            rng.choice(perms): LaurentPoly(
                                {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)}
                            )
                            for _ in range(3)
                        }
                    )
                )
            for lam in partitions_of(m):
                x = row_sum_reference(lam)
                for sample in samples:
                    assert _times_row_sum(sample, lam) == mul(sample, x)


def row_stabilizer(mu):
    """Every permutation that maps each consecutive row block of mu to itself."""
    perms = [()]
    start = 0
    for part in mu:
        block = range(start, start + part)
        perms = [w + images for w in perms for images in iter_permutations(block)]
        start += part
    return perms


def compose(a, b):
    """a after b, in one-line notation."""
    return tuple(a[i] for i in b)


def coset_minimum(v, mu):
    """The elements of least length in S_mu v S_mu, by enumeration."""
    stabilizer = row_stabilizer(mu)
    coset = {compose(a, compose(v, b)) for a in stabilizer for b in stabilizer}
    least = min(map(perm_length, coset))
    return sorted(w for w in coset if perm_length(w) == least)


def sandwich(v, mu):
    """x T_v x for the row sum x of mu."""
    return _times_row_sum(_star(_times_row_sum(T(perm_inverse(v)), mu)), mu)


class TestDoubleCosets:
    """x T_v x = q^(l(v) - l(d)) x T_d x, d minimal in S_mu v S_mu."""

    def test_representative_is_unique_minimum(self):
        for m in range(5):
            for mu in partitions_of(m):
                for v in iter_permutations(range(m)):
                    assert coset_minimum(v, mu) == [_double_coset_min(v, mu)], (mu, v)

    def test_sandwich_depends_on_double_coset(self):
        for m in range(5):
            for mu in partitions_of(m):
                for v in iter_permutations(range(m)):
                    d = _double_coset_min(v, mu)
                    shift = {perm_length(v) - perm_length(d): 1}
                    assert sandwich(v, mu) == add_scaled({}, sandwich(d, mu), shift), (mu, v)


class TestMurphyBasis:
    def test_one_row_is_full_sum(self):
        for m in (2, 3):
            t = standard_tableaux((m,))[0]
            element = murphy(t, t)
            assert set(element) == set(iter_permutations(range(m)))
            assert all(coeff == {0: 1} for coeff in element.values())

    def test_one_column_is_unit(self):
        for m in (2, 3, 4):
            t = standard_tableaux((1,) * m)[0]
            assert murphy(t, t) == unit(m)

    def test_m2_change_of_basis(self):
        table = murphy_table(2)
        coords_e = table._coords(unit(2))
        coords_s = table._coords(T((1, 0)))
        assert coords_e == {((1, 1), 0, 0): {0: 1}}
        assert coords_s == {((2,), 0, 0): {0: 1}, ((1, 1), 0, 0): {0: -1}}

    def test_express_round_trip(self):
        rng = random.Random(3)
        for m in (3, 4):
            table = murphy_table(m)
            perms = list(iter_permutations(range(m)))
            for _ in range(5):
                sample = element(
                    {
                        tuple(rng.choice(perms)): LaurentPoly(
                            {rng.randint(-2, 2): rng.randint(-3, 3)}
                        )
                        for _ in range(3)
                    }
                )
                coords = table._coords(sample)
                rebuilt = {}
                for (shape, si, ti), coeff in coords.items():
                    tabs = standard_tableaux(shape)
                    add_scaled(rebuilt, murphy(tabs[si], tabs[ti]), coeff)
                assert rebuilt == sample

    def test_records_hold_no_empty_table(self):
        # add_scaled drops a perm or key whose coefficient cancels; an empty
        # table left behind would be taken as a lead by the elimination.
        for _exp, _unit, residual, combo in murphy_table(4).records.values():
            assert residual and all(residual.values())
            assert all(combo.values())

    def test_tableau_perm_distinguished(self):
        base = row_reading_tableau((3, 1))
        assert tableau_perm(base) == (0, 1, 2, 3)
        t = ((1, 3, 4), (2,))
        d = tableau_perm(t)
        assert d == (0, 3, 1, 2)


class TestGramMatrices:
    def test_m2(self):
        assert gram_matrix((2,)).rows == [[one]]
        assert gram_matrix((1, 1)).rows == [[one + q]]

    def test_m2_valuations(self):
        for n in (2, 3, 4):
            assert gram_det_valuation((2,), n) == 0
        assert gram_det_valuation((1, 1), 2) == 1
        assert gram_det_valuation((1, 1), 3) == 0

    def test_two_one(self):
        gram = gram_matrix((2, 1))
        assert len(gram.rows) == 2
        assert gram.rows[0][1] == gram.rows[1][0]
        for n in (2, 3):
            assert gram_det_valuation((2, 1), n) == schaper_det_rhs((2, 1), n)

    def test_oracle_equality_m4(self):
        for m in range(5):
            for lam in partitions_of(m):
                for n in (2, 3, 4):
                    assert gram_det_valuation(lam, n) == schaper_det_rhs(lam, n)

    def test_determinant_nonzero_m4(self):
        for m in range(5):
            for lam in partitions_of(m):
                assert not gram_matrix(lam).determinant().is_zero()

    def test_size_cap(self):
        builds = hecke._gram_matrix.cache_info()
        tables = murphy_table.cache_info()
        with pytest.raises(ValueError):
            gram_matrix((4, 2))
        assert hecke._gram_matrix.cache_info() == builds
        assert murphy_table.cache_info() == tables
        gram_matrix((2, 1), size_cap=3)

    def test_shared_matrix_unchanged_by_readers(self):
        for lam in [(2, 1), (2, 2), (2, 1, 1), (3, 2)]:
            gram = gram_matrix(lam)
            rows = [list(row) for row in gram.rows]
            gram.determinant()
            assert gram.rows == rows
            for n in (2, 3):
                gram_rank_at_root(lam, n)
                assert gram.rows == rows
            assert gram_matrix(lam) is gram

    def test_determinant_computed_once(self, monkeypatch):
        monkeypatch.setattr(
            hecke, "_gram_matrix", lru_cache(maxsize=None)(hecke._gram_matrix.__wrapped__)
        )
        bareiss = hecke.bareiss_determinant
        calls = []

        def counting(matrix):
            calls.append(len(matrix))
            return bareiss(matrix)

        monkeypatch.setattr(hecke, "bareiss_determinant", counting)
        assert gram_det_valuation((2, 2, 1), 2) == schaper_det_rhs((2, 2, 1), 2)
        assert gram_det_valuation((2, 2, 1), 3) == schaper_det_rhs((2, 2, 1), 3)
        assert gram_matrix((2, 2, 1)).determinant() == bareiss(gram_matrix((2, 2, 1)).rows)
        assert calls == [5]


def paired_perms(lam):
    """d(s) for each tableau s of the conjugate shape, in the order of the Gram rows."""
    return [tableau_perm(conjugate_tableau(t)) for t in standard_tableaux(lam)]


def reference_gram_rows(lam):
    """Gram rows with one row-sum product and one elimination per ordered pair."""
    mu = conjugate(lam)
    table = murphy_table(sum(lam))
    top = standard_tableaux(mu).index(row_reading_tableau(mu))
    paired = [conjugate_tableau(t) for t in standard_tableaux(lam)]
    rows = []
    for s in paired:
        # x T_{d(s)}, then m_{top,s} m_{t,top} = x T_{d(s)} T_{d(t)}* x.
        left = _star(_left_factor(s))
        row = []
        for t in paired:
            product = _times_row_sum(_times_t(left, perm_inverse(tableau_perm(t))), mu)
            row.append(LaurentPoly(table._coords(product).get((mu, top, top), {})))
        rows.append(row)
    return rows


class TestDoubleCosetPairing:
    def test_matches_per_pair_reference(self):
        for m in range(6):
            for lam in partitions_of(m):
                assert gram_matrix(lam).rows == reference_gram_rows(lam), lam

    def test_one_reduction_per_double_coset(self, monkeypatch):
        murphy_table(5)
        coords = hecke.MurphyTable._coords
        calls = []

        def counting(table, terms):
            calls.append(None)
            return coords(table, terms)

        monkeypatch.setattr(hecke.MurphyTable, "_coords", counting)
        counts = []
        for lam in [(2, 2, 1), (3, 1, 1)]:
            mu = conjugate(lam)
            perms = paired_perms(lam)
            reached = {
                coset_minimum(v, mu)[0]
                for s in perms
                for t in perms
                for v in _times_t(T(s), perm_inverse(t))
            }
            calls.clear()
            hecke._gram_matrix.__wrapped__(lam)
            assert len(calls) == len(reached) < len(perms) ** 2
            counts.append(len(calls))
        assert counts == [3, 6]


class TestOracleChecks:
    """Each consistency check of the oracle, reached by corrupting one input."""

    def test_dependent_cellular_element(self, monkeypatch):
        # Both cellular elements of rank 2 become T_e.
        monkeypatch.setattr(hecke, "_left_factor", lambda s: {(0, 1): {0: 1}})
        with pytest.raises(ConventionError, match="is not independent"):
            hecke.MurphyTable(2)

    def test_non_unit_pivot(self, monkeypatch):
        left_factor = hecke._left_factor

        def doubled(s):
            return add_scaled({}, left_factor(s), {0: 2})

        monkeypatch.setattr(hecke, "_left_factor", doubled)
        with pytest.raises(ConventionError, match="non-unit pivot coefficient 2 at"):
            hecke.MurphyTable(2)

    def test_no_cellular_pivot(self):
        table = hecke.MurphyTable(3)
        del table.records[(2, 1, 0)]
        with pytest.raises(ConventionError, match=r"no cellular pivot at \(2, 1, 0\)"):
            table._coords(T((2, 1, 0)))

    def corrupt_coords(self, monkeypatch, corrupt):
        """Pass every cellular expansion of the Gram products through `corrupt`."""
        coords = hecke.MurphyTable._coords
        monkeypatch.setattr(
            hecke.MurphyTable, "_coords", lambda table, terms: corrupt(coords(table, terms))
        )

    def test_stray_same_shape_component(self, monkeypatch):
        stray = ((2, 1), 0, 1)
        self.corrupt_coords(monkeypatch, lambda coords: {**coords, stray: {0: 1}})
        message = f"stray same-shape component {stray}"
        with pytest.raises(ConventionError, match=re.escape(message)):
            hecke._gram_matrix.__wrapped__((2, 1))

    def test_leak_into_non_dominating_shape(self, monkeypatch):
        leak = ((1, 1, 1), 0, 0)
        self.corrupt_coords(monkeypatch, lambda coords: {**coords, leak: {0: 1}})
        with pytest.raises(ConventionError, match=r"non-dominating shape \(1, 1, 1\)"):
            hecke._gram_matrix.__wrapped__((2, 1))

    def test_asymmetric_gram_matrix(self, monkeypatch):
        # (2, 1) pairs its two tableaux through one double coset; skewing the
        # expansion of T_{d(s)} T_{d(t)}* for the pair (1, 0) alone breaks
        # the symmetry without touching any reduction.
        murphy_table(3)
        s, t = paired_perms((2, 1))[::-1]
        times_t = hecke._times_t

        def skew(terms, v):
            product = times_t(terms, v)
            if terms == T(s) and v == perm_inverse(t):
                add_scaled(product, T(s), {0: 1})
            return product

        monkeypatch.setattr(hecke, "_times_t", skew)
        with pytest.raises(ConventionError, match=r"not symmetric at \(0,1\)"):
            hecke._gram_matrix.__wrapped__((2, 1))

    def test_empty_lead_coefficient(self):
        table = murphy_table(3)
        lead = max(table.records, key=table.rank.__getitem__)
        message = f"empty coefficient at lead {lead}"
        with pytest.raises(ConventionError, match=re.escape(message)):
            table._reduce({lead: {}})

    def test_merge_keeping_cancelled_keys(self, monkeypatch):
        # A merge that keeps cancelled keys leaves empty tables behind; the
        # elimination must stop on them, not loop without progress.
        calls = []

        def keeping(acc, terms, factor):
            calls.append(None)
            assert len(calls) < 10_000, "elimination made no progress"
            for key, c in terms.items():
                add_product(acc.setdefault(key, {}), c, factor)
            return acc

        monkeypatch.setattr(hecke, "add_scaled", keeping)
        with pytest.raises(ConventionError, match="empty coefficient at lead"):
            hecke.MurphyTable(3)


class TestBareiss:
    def test_empty(self):
        assert bareiss_determinant([]) == one

    def test_two_by_two(self):
        matrix = [[q, one], [one, q]]
        assert bareiss_determinant(matrix) == q * q - 1

    def test_singular(self):
        matrix = [[q, q], [q, q]]
        assert bareiss_determinant(matrix).is_zero()

    def test_swap_sign(self):
        matrix = [[LaurentPoly.zero(), one], [one, LaurentPoly.zero()]]
        assert bareiss_determinant(matrix) == -one

    def test_matches_cofactor_3x3(self):
        rng = random.Random(11)
        for _ in range(5):
            matrix = [
                [LaurentPoly({rng.randint(-1, 2): rng.randint(-2, 2)}) for _ in range(3)]
                for _ in range(3)
            ]
            a, b, c = matrix[0]
            d, e, f = matrix[1]
            g, h, i = matrix[2]
            cofactor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            assert bareiss_determinant(matrix) == cofactor


class TestResidueField:
    """Ranks of Gram matrices over Q[q]/(Phi_n), the field at the n-th root."""

    # The rank of every partition of m <= 5 (partitions_of order, m = 0..5) at
    # n = 2..7, as an independent elimination inside Q(zeta_n), with an
    # extended-Euclid inverse, computed it.
    PINNED_RANKS = {
        2: [1, 1, 1, 0, 1, 2, 0, 1, 2, 0, 0, 0, 1, 4, 5, 0, 0, 0, 0],
        3: [1, 1, 1, 1, 1, 1, 0, 1, 3, 1, 3, 0, 1, 4, 1, 6, 4, 0, 0],
        4: [1, 1, 1, 1, 1, 2, 1, 1, 2, 2, 1, 0, 1, 4, 4, 6, 1, 4, 0],
        5: [1, 1, 1, 1, 1, 2, 1, 1, 3, 2, 3, 1, 1, 3, 5, 3, 5, 1, 0],
        6: [1, 1, 1, 1, 1, 2, 1, 1, 3, 2, 3, 1, 1, 4, 5, 6, 5, 4, 1],
        7: [1, 1, 1, 1, 1, 2, 1, 1, 3, 2, 3, 1, 1, 4, 5, 6, 5, 4, 1],
    }

    def test_pinned_ranks(self):
        shapes = [lam for m in range(6) for lam in partitions_of(m)]
        for n, expected in self.PINNED_RANKS.items():
            assert [gram_rank_at_root(lam, n) for lam in shapes] == expected, n

    # Every partition of 6 (partitions_of order) at n = 2..7, as the
    # companion-block elimination over Q computed them.  Gram sizes reach 16,
    # so rows are divided by their content at many steps.
    PINNED_RANKS_6 = {
        2: [1, 4, 5, 0, 0, 16, 0, 0, 0, 0, 0],
        3: [1, 4, 9, 6, 1, 4, 0, 0, 9, 0, 0],
        4: [1, 5, 4, 10, 4, 16, 10, 1, 5, 0, 0],
        5: [1, 5, 8, 10, 5, 8, 10, 5, 1, 5, 0],
        6: [1, 4, 9, 6, 5, 16, 4, 5, 9, 1, 0],
        7: [1, 5, 9, 10, 5, 16, 10, 5, 9, 5, 1],
    }

    def test_pinned_ranks_of_six(self):
        for n, expected in self.PINNED_RANKS_6.items():
            ranks = [gram_rank_at_root(lam, n, size_cap=6) for lam in partitions_of(6)]
            assert ranks == expected, n

    def test_rank_examples(self):
        assert gram_rank_at_root((1, 1), 2) == 0
        assert gram_rank_at_root((2,), 2) == 1

    @pytest.mark.parametrize("n", [1, 0, -2, 2.0])
    def test_modulus_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            gram_rank_at_root((2, 1), n)

    def test_rank_zero_iff_singular(self):
        for m in range(1, 5):
            for lam in partitions_of(m):
                for n in (2, 3):
                    rank = gram_rank_at_root(lam, n)
                    from fockdec.partitions import is_regular

                    if is_regular(lam, n):
                        assert rank > 0
                    else:
                        assert rank == 0

    def test_ariki_consistency(self):
        for n in (2, 3):
            for m in range(5):
                dmat = decomposition_matrix(n, m)
                ranks = {mu: gram_rank_at_root(mu, n) for mu in partitions_of(m)}
                for lam in partitions_of(m):
                    total = sum(
                        dmat.entry(lam, mu).eval_at_one() * ranks[mu]
                        for mu in partitions_of(m)
                    )
                    assert total == dim_specht(lam)

