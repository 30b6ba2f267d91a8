"""Laurent arithmetic tests: ring axioms, cyclotomics, valuations, rendering."""

import pytest
from hypothesis import given, strategies as st

from fockdec.schaper import SIMPLE, SPECHT, GrothendieckVector

from fockdec.fock import FockVector
from fockdec.laurent import (
    LaurentPoly,
    add_into,
    add_product,
    add_scaled,
    cyclotomic,
    cyclotomic_valuation,
    nu_quantum,
    parse_poly,
)

q = LaurentPoly({1: 1})
qi = LaurentPoly({-1: 1})
one = LaurentPoly.one()


def quantum_integer(h: int) -> LaurentPoly:
    """[h] = 1 + q + ... + q^{h-1}, the reference for `nu_quantum`."""
    if h <= 0:
        raise ValueError("quantum integer defined for h >= 1")
    return LaurentPoly({e: 1 for e in range(h)})


def poly_strategy(max_terms=5, max_exp=6, max_coeff=9):
    return st.dictionaries(
        st.integers(min_value=-max_exp, max_value=max_exp),
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        max_size=max_terms,
    ).map(LaurentPoly)


class TestRing:
    def test_examples(self):
        assert q * qi == LaurentPoly.one()
        assert (q - qi) + (qi - q) == LaurentPoly.zero()
        assert (qi * qi - 1) * (qi * qi - 1) == LaurentPoly({-4: 1, -2: -2, 0: 1})

    def test_int_coercion(self):
        assert q + 1 == LaurentPoly({1: 1, 0: 1})
        assert 2 * q == LaurentPoly({1: 2})
        assert 1 - q == LaurentPoly({0: 1, 1: -1})

    @pytest.mark.parametrize("coeffs", [{0: 1.5}, {1.7: 1}, {"2": 1}, {True: 1}, {0: True}])
    def test_inexact_terms_rejected(self, coeffs):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)


class TestBar:
    def test_examples(self):
        assert (q - qi).bar() == qi - q
        assert LaurentPoly.one().bar() == LaurentPoly.one()
        sym = q * q + qi * qi
        assert sym.bar() == sym

    @given(poly_strategy())
    def test_involution(self, f):
        assert f.bar().bar() == f

    @given(poly_strategy(), poly_strategy())
    def test_ring_homomorphism(self, f, g):
        assert (f + g).bar() == f.bar() + g.bar()
        assert (f * g).bar() == f.bar() * g.bar()


class TestEvaluations:
    def test_derivative_examples(self):
        assert (q - qi).derivative_at_one() == 2
        assert LaurentPoly({0: 7}).derivative_at_one() == 0
        assert (q * q).derivative_at_one() == 2

    def test_eval_examples(self):
        assert (q - qi).eval_at_one() == 0
        assert LaurentPoly({0: 1, 1: 1, 2: 1}).eval_at_one() == 3
        assert LaurentPoly.zero().eval_at_one() == 0

    @given(poly_strategy(), poly_strategy())
    def test_product_rule(self, f, g):
        lhs = (f * g).derivative_at_one()
        rhs = f.derivative_at_one() * g.eval_at_one() + f.eval_at_one() * g.derivative_at_one()
        assert lhs == rhs


class TestQuantumInteger:
    def test_examples(self):
        assert quantum_integer(1) == LaurentPoly.one()
        assert quantum_integer(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
        assert quantum_integer(4) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_invalid(self):
        with pytest.raises(ValueError):
            quantum_integer(0)


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic(1) == q - 1
        assert cyclotomic(2) == q + 1
        assert cyclotomic(6) == LaurentPoly({2: 1, 1: -1, 0: 1})

    @pytest.mark.parametrize("n", [0, True, 2.0])
    def test_bad_index_rejected(self, n):
        cyclotomic(2)  # a cached 2 must not be served for 2.0 or True
        with pytest.raises(ValueError, match=f"index n must be an integer at least 1, got {n!r}"):
            cyclotomic(n)

    def test_product_over_divisors(self):
        for h in range(1, 41):
            product = LaurentPoly.one()
            for d in range(1, h + 1):
                if h % d == 0:
                    product = product * cyclotomic(d)
            assert product == LaurentPoly({h: 1, 0: -1})


class TestValuation:
    def test_examples(self):
        assert cyclotomic_valuation(quantum_integer(4), 2) == 1
        assert cyclotomic_valuation(quantum_integer(3), 2) == 0
        assert cyclotomic_valuation((q + 1) * (q + 1), 2) == 2

    def test_unit_clearing(self):
        assert cyclotomic_valuation(LaurentPoly({-5: 1, -4: 1}), 2) == 1
        assert cyclotomic_valuation(LaurentPoly({-7: 3}), 2) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_valuation(LaurentPoly.zero(), 2)

    @pytest.mark.parametrize(
        "h,n,message",
        [
            (0, 2, "index h must be an integer at least 1, got 0"),
            (True, 2, "index h must be an integer at least 1, got True"),
            (2.0, 2, "index h must be an integer at least 1, got 2.0"),
            (2, 2.0, "modulus n must be an integer at least 2, got 2.0"),
            (2, True, "modulus n must be an integer at least 2, got True"),
        ],
        ids=["zero-h", "bool-h", "float-h", "float-n", "bool-n"],
    )
    def test_nu_quantum_rejects_bad_arguments(self, h, n, message):
        with pytest.raises(ValueError, match=message):
            nu_quantum(h, n)

    def test_matches_nu_quantum(self):
        for h in range(1, 41):
            for n in range(2, 13):
                assert cyclotomic_valuation(quantum_integer(h), n) == nu_quantum(h, n)


class TestExactDiv:
    def test_exact(self):
        f = (q - qi) * (q + 3)
        assert f.exact_div(q + 3) == q - qi

    def test_not_divisible(self):
        with pytest.raises(ValueError):
            (q + 1).exact_div(q - 1)

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q.exact_div(LaurentPoly.zero())


class TestRendering:
    def test_canonical_string(self):
        assert str(LaurentPoly({-1: 1, 1: -1, 3: 2})) == "q^-1 - q + 2*q^3"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly({0: -3})) == "-3"
        assert str(q - qi) == "-q^-1 + q"
        assert str(LaurentPoly({0: 1, 1: 1})) == "1 + q"

    @given(poly_strategy())
    def test_string_round_trip(self, f):
        assert parse_poly(str(f)) == f

    def test_parse_examples(self):
        assert parse_poly("q^-1 - q + 2*q^3") == LaurentPoly({-1: 1, 1: -1, 3: 2})
        assert parse_poly("-q^-1 + q") == q - qi
        assert parse_poly("0") == LaurentPoly.zero()
        assert parse_poly("5") == LaurentPoly({0: 5})
        with pytest.raises(ValueError):
            parse_poly("")
        with pytest.raises(ValueError):
            parse_poly("q+*2")

    @pytest.mark.parametrize("text", ["q + q", "1q", " 1 ", "q^1", "- q", "q + 1"])
    def test_parse_rejects_non_canonical_text(self, text):
        # Each names a polynomial, but not in the form str() writes.
        with pytest.raises(ValueError):
            parse_poly(text)


class TestSparsePrimitives:
    def test_add_into_int_cancels_and_scales(self):
        acc = {"a": 2, "b": 1}
        assert add_into(acc, {"a": -2, "c": 5}) is acc
        assert acc == {"b": 1, "c": 5}
        add_into(acc, {"b": 1, "c": 1}, -5)
        assert acc == {"b": -4}
        add_into(acc, {"d": 7}, 0)
        assert acc == {"b": -4}

    def test_add_into_laurent_cancels_and_scales(self):
        acc = {"a": q, "b": one}
        add_into(acc, {"a": -q, "c": qi}, q)
        assert acc == {"a": q - q * q, "b": one, "c": one}
        add_into(acc, {"b": one, "c": one}, LaurentPoly({0: -1}))
        assert acc == {"a": q - q * q}
        assert all(value for value in acc.values())

    def test_add_product_cancels(self):
        acc = {0: 1, 2: 3}
        # (1 - q) * (1 + q) = 1 - q^2
        assert add_product(acc, {0: 1, 1: -1}, {0: 1, 1: 1}) is acc
        assert acc == {0: 2, 2: 2}
        add_product(acc, {1: -2}, {1: 1, -1: 1})
        assert acc == {}

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_add_product_matches_ring(self, f, g, h):
        table = add_product(dict(f.items()), dict(g.items()), dict(h.items()))
        assert LaurentPoly(table) == f + g * h
        assert all(table.values())

    def test_add_scaled_cancels_and_scales(self):
        acc = {"a": {0: 1}, "b": {1: 2}}
        assert add_scaled(acc, {"a": {0: 1, 1: 1}, "b": {1: 1}}, {0: -1}) is acc
        # a: 1 - (1 + q) = -q; b: 2q - q = q
        assert acc == {"a": {1: -1}, "b": {1: 1}}
        add_scaled(acc, {"a": {0: -1}, "b": {-1: 1}}, {1: -1})
        assert acc == {"b": {1: 1, 0: -1}}
        add_scaled(acc, {"b": {0: -1, -1: 1}}, q)
        assert acc == {}

    def test_add_scaled_new_key_gets_fresh_table(self):
        terms = {"a": {0: 1}}
        factor = {0: 1}
        acc = add_scaled({}, terms, factor)
        assert acc == terms
        assert acc["a"] is not terms["a"] and acc["a"] is not factor
        add_scaled(acc, {"a": {0: 1}}, factor)
        assert terms == {"a": {0: 1}} and factor == {0: 1}
        assert acc == {"a": {0: 2}}


class TestCombination:
    def test_mixed_spaces_rejected(self):
        pairs = [
            (FockVector({(2,): one}), FockVector({(1, 1, 1): one})),
            (FockVector({(1,): q}), FockVector({(2, 1): q, (1, 1, 1): one})),
            (GrothendieckVector(SPECHT, {(2,): 1}), GrothendieckVector(SIMPLE, {(2,): 1})),
        ]
        for a, b in pairs:
            assert a != b

    def test_scale_and_coeff(self):
        v = FockVector({(2,): q, (1, 1): one})
        scaled = v.scale(qi)
        assert scaled.terms == {(2,): one, (1, 1): qi}
        assert scaled.space == v.space
        assert v.scale(LaurentPoly.zero()).is_zero()
        assert GrothendieckVector(SPECHT, {(2,): 1, (1, 1): -1}).scale(-2).terms == {
            (2,): -2,
            (1, 1): 2,
        }
