"""Exact arithmetic in the ring of integer Laurent polynomials in q.

Coefficients are arbitrary-precision Python integers; exponents may be
negative.  The module also provides cyclotomic polynomials, the
multiplicity-of-Phi_n valuation used throughout, and residues modulo Phi_n.

It is also the one home of sparse arithmetic: `add_into` merges
{key: coefficient} tables, `add_product` raw {exponent: int} tables, and
`add_scaled` {key: raw table} tables; `Combination` is the base of the
package's two kinds of vector (Fock-space vectors, Grothendieck vectors).
"""

from __future__ import annotations

import re
from functools import lru_cache

from fockdec.partitions import check_modulus


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Stored as a mapping exponent -> nonzero coefficient; the empty mapping is
    the zero polynomial.  Exponents and coefficients must be ints (not bools).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        table = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(e) is not int or type(c) is not int:
                    raise TypeError(f"non-integer term {e!r}: {c!r} in LaurentPoly")
                if c:
                    table[e] = c
        self._c = table

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    # -- basic structure ----------------------------------------------------

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def is_q_multiple(self) -> bool:
        """True iff the polynomial lies in q.Z[q] (all exponents >= 1)."""
        return all(e >= 1 for e in self._c)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return _wrap(add_into(dict(self._c), _coerce(other)._c))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        return _wrap(add_product({}, self._c, _coerce(other)._c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        return NotImplemented

    def __bool__(self):
        return bool(self._c)

    # -- the operations the verification suite is built from ----------------

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1}: negate every exponent."""
        return _wrap({-e: c for e, c in self._c.items()})

    def eval_at_one(self) -> int:
        """Value at q = 1: the sum of the coefficients."""
        return sum(self._c.values())

    def derivative_at_one(self) -> int:
        """Value of the formal derivative at q = 1: sum of coeff * exponent."""
        return sum(c * e for e, c in self._c.items())

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; raises if not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        num, num_shift = self._as_poly()
        den, den_shift = other._as_poly()
        quo, rem = _poly_divmod(num, den)
        if any(rem):
            raise ValueError(f"{self} is not divisible by {other}")
        shift = num_shift - den_shift
        return _wrap({i + shift: c for i, c in enumerate(quo) if c})

    def _as_poly(self) -> tuple[list[int], int]:
        """Dense coefficient list after clearing the q-power unit, plus the shift.

        The polynomial must be nonzero.
        """
        shift = min(self._c)
        degree = max(self._c) - shift
        dense = [0] * (degree + 1)
        for e, c in self._c.items():
            dense[e - shift] = c
        return dense, shift

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return self.render()

    def render(self, power: str = "q^{}", times: str = "*") -> str:
        """Terms in ascending exponent order, e.g. '3*q^-2 - 1 + q'.

        `power` formats q^e for e other than 0 and 1, and `times` joins a
        coefficient other than +-1 to its power of q; the defaults give the
        canonical form that parse_poly reads back.
        """
        if not self._c:
            return "0"
        pieces = []
        for e in sorted(self._c):
            c = self._c[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else power.format(e)
                body = qpart if mag == 1 else f"{mag}{times}{qpart}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def _wrap(table: dict) -> LaurentPoly:
    """A polynomial on `table` as it stands: it must hold no zero coefficient."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._c = table
    return poly


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    raise TypeError(f"cannot coerce {value!r} to LaurentPoly")


# -- sparse combinations -----------------------------------------------------


def add_into(acc: dict, terms, factor=None) -> dict:
    """Add factor * terms into the sparse table `acc` in place; return `acc`.

    `terms` maps keys to coefficients, ints or LaurentPoly alike, and
    `factor` (default 1) multiplies each of them on the right.  A key whose
    sum comes out zero leaves `acc`, so a table kept this way never holds a
    zero coefficient.
    """
    items = terms.items()
    if factor is not None:
        items = ((key, c * factor) for key, c in items)
    for key, c in items:
        old = acc.get(key)
        if old is not None:
            c = old + c
        if c:
            acc[key] = c
        elif old is not None:
            del acc[key]
    return acc


def add_product(acc: dict, f: dict, g: dict) -> dict:
    """Add f * g into the raw {exponent: int} table `acc` in place.

    f and g are raw tables or LaurentPoly and must hold no zero coefficient;
    exponents whose sum comes out zero leave `acc`.  Returns `acc`.
    """
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]
    return acc


def add_scaled(acc: dict, terms: dict, factor) -> dict:
    """Add factor * terms into the keyed table `acc` in place; return `acc`.

    `acc` maps keys to raw {exponent: int} tables.  The coefficients of
    `terms` and the nonzero `factor` are raw tables or LaurentPoly; each is
    merged with `add_product`.  A key whose coefficient cancels leaves `acc`,
    and a new key gets a fresh table, so `acc` never holds an empty table nor
    one that `terms` or `factor` holds.
    """
    for key, c in terms.items():
        coeff = acc.get(key)
        if coeff is None:
            acc[key] = add_product({}, c, factor)
        elif not add_product(coeff, c, factor):
            del acc[key]
    return acc


class Combination:
    """A finite combination of basis keys with nonzero coefficients.

    `terms` maps each key to its coefficient and `space` names where the
    keys live: the degree of a FockVector, the basis tag of a
    GrothendieckVector.  Only combinations of one class over one space are
    equal.  Subclasses check outside input in `__init__`; `scale` builds its
    result with `_make`, unchecked, the way `_wrap` builds a LaurentPoly.
    Sums of vectors are formed on their `terms` with `add_into`.
    """

    __slots__ = ("space", "terms")

    @classmethod
    def _make(cls, space, terms: dict):
        """A combination on `terms` as it stands: no key may map to zero."""
        out = cls.__new__(cls)
        out.space = space
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, factor):
        return self._make(self.space, add_into({}, self.terms, factor))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.terms == other.terms
        )

    @staticmethod
    def _poly_terms(terms) -> dict:
        """Outside input as {tuple key: nonzero LaurentPoly}; ints are promoted."""
        table = {}
        for key, coeff in (terms or {}).items():
            coeff = _coerce(coeff)
            if coeff:
                table[tuple(key)] = coeff
        return table


# The render joins terms with " + " and " - "; "^-" inside a term is no joiner.
_JOINER_RE = re.compile(r" ([+-]) ")
_TERM_RE = re.compile(r"(-?)(\d*)\*?(q(?:\^(-?\d+))?)?")


def parse_poly(text: str) -> LaurentPoly:
    """Parse exactly what `str(LaurentPoly)` writes, e.g. 'q^-1 - q + 2*q^3'.

    Terms are read leniently, but any text other than the rendering of the
    result raises ValueError, so a damaged cache entry is never served.
    """
    pieces = _JOINER_RE.split(text)
    table: dict[int, int] = {}
    for joiner, body in zip(["+", *pieces[1::2]], pieces[::2]):
        match = _TERM_RE.fullmatch(body)
        if match is None:
            raise ValueError(f"cannot parse polynomial term {body!r} in {text!r}")
        sign, digits, q, exp = match.groups()
        exp = int(exp) if exp else 1 if q else 0
        coeff = int(sign + (digits or "1"))
        table[exp] = table.get(exp, 0) + (-coeff if joiner == "-" else coeff)
    poly = LaurentPoly(table)
    if str(poly) != text:
        raise ValueError(f"{text!r} is not in canonical form, which is {str(poly)!r}")
    return poly


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division of dense integer coefficient lists (ascending order).

    Coefficient divisions must be exact at every step; raises otherwise.
    """
    num = list(num)
    dn = len(den) - 1
    while den[dn] == 0:
        dn -= 1
    lead = den[dn]
    quo = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        factor, rem = divmod(c, lead)
        if rem:
            raise ValueError("non-exact coefficient division")
        quo[i - dn] = factor
        for j in range(dn + 1):
            num[i - dn + j] -= factor * den[j]
    return quo, num


@lru_cache(maxsize=None, typed=True)
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, via exact division of q^n - 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"cyclotomic index n must be an integer at least 1, got {n!r}")
    poly = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(cyclotomic(d))
    return poly


def cyclotomic_valuation(f: LaurentPoly, n: int) -> int:
    """Largest k with Phi_n^k dividing f, after clearing the q-power unit.

    Undefined (raises) for f = 0.
    """
    check_modulus(n)
    if f.is_zero():
        raise ValueError("the zero polynomial has infinite valuation")
    phi = cyclotomic(n)
    count = 0
    current = f
    while True:
        try:
            current = current.exact_div(phi)
        except ValueError:
            return count
        count += 1


def cyclotomic_residue(f, n: int) -> dict:
    """The raw table of f (raw or LaurentPoly) modulo Phi_n, empty iff f(zeta_n) = 0.

    Exponents, negative ones too, fold mod n first, as Phi_n divides q^n - 1.
    """
    phi, _shift = cyclotomic(n)._as_poly()
    dense = [0] * n
    for e, c in f.items():
        dense[e % n] += c
    _quo, rem = _poly_divmod(dense, phi)
    return {e: c for e, c in enumerate(rem) if c}


def nu_quantum(h: int, n: int) -> int:
    """Multiplicity of Phi_n in the quantum integer [h]: 1 if n | h else 0."""
    if type(h) is not int or h < 1:
        raise ValueError(f"quantum integer index h must be an integer at least 1, got {h!r}")
    check_modulus(n)
    return 1 if h % n == 0 else 0
