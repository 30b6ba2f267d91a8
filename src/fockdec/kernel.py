"""Wedge normal-ordering kernel: q-wedge straightening by sorted insertion.

Heads are tuples of integers; a head of length k stands for the wedge word
whose implicit tail continues with -k, -k-1, ...  Coefficients are raw
exponent->coefficient dicts, turned into `LaurentPoly` by `fock.straighten`.

Rewriting an adjacent out-of-order pair (a, b) with a < b and i = (b-a) mod n
(Leclerc-Thibon's q-wedge relations):

  i == 0:  -> -(b, a)
  i != 0:  -> -q^{-1} (b, a)
            + (q^{-2}-1) * sum over t >= 0 of (-1)^t q^{-t} (b-d_t, a+d_t)
  where d_t alternates i, n, n+i, 2n, 2n+i, ... and the series keeps a term
  only while its first index strictly exceeds its second.

The normal form is a right-to-left fold of one operation.  With NF(w) =
sum of c_T * T over strictly decreasing T,

  NF(x . w) = sum of c_T * insert(x, T),

where insert(x, S) normal-orders x placed in front of a strictly decreasing
S.  If x > S[0] nothing moves, and if x == S[0] the wedge is zero.
Otherwise the pair (x, S[0]) is rewritten, and each child (y, z) of it
becomes the fold of insert(y, .) over insert(z, S[1:]).  The rewriting system
is confluent (Leclerc-Thibon, IMRN 1996), so this order of rewrites reaches
the same normal form as any other.

Every index a rewrite generates lies strictly inside the interval spanned by
the pair it replaces, so an insertion never reaches the implicit tail: a head
whose entries exceed -len(head) stays that way, and insert(x, S) depends
only on (n, x, S), never on what stands before x or after S.  The memo maps
(x, S) to insert(x, S) per n for the life of the process, so every head and
every bar matrix at the same n share it.

Insertions nest about as deep as the head is long (15 levels for the bar
matrix at m = 16, whose heads have length 16), with two Python frames per
level.  A head too long for the interpreter's recursion limit raises
StepBudgetExceeded, naming its length, instead of RecursionError.
"""

from __future__ import annotations

from fockdec.errors import StepBudgetExceeded
from fockdec.laurent import add_product, add_scaled

KERNEL_NAME = "pure"

DEFAULT_STEP_BUDGET = 1_000_000

# n -> {(x, suffix): {normalized_head: {exponent: coefficient}}}
_CACHE: dict[int, dict] = {}

_ONE = {0: 1}


def clear_cache() -> None:
    _CACHE.clear()


def cache_size() -> int:
    return sum(len(memo) for memo in _CACHE.values())


def _pair(a: int, b: int, n: int) -> list:
    """Rewrite the ascending pair (a, b), a < b: a list of (coeff, first, second)."""
    i = (b - a) % n
    if i == 0:
        return [({0: -1}, b, a)]
    children = [({-1: -1}, b, a)]
    t, delta = 0, i
    while b - delta > a + delta:
        sign = -1 if t % 2 else 1
        # (q^{-2} - 1) * (+-q^{-t})
        children.append(({-t - 2: sign, -t: -sign}, b - delta, a + delta))
        t += 1
        delta += n - i if t % 2 else i
    return children


def straighten_raw(head: tuple, n: int) -> dict:
    """Expand a head into normalized wedges: {head: {exponent: coefficient}}.

    Insertions are memoized per (n, x, suffix); callers must treat the
    returned mapping and its values as read-only.  A call may compute at most
    `DEFAULT_STEP_BUDGET` insertions (memoized ones cost nothing).
    """
    memo = _CACHE.setdefault(n, {})
    steps = 0

    def insert(x: int, suffix: tuple) -> dict:
        nonlocal steps
        if not suffix or x > suffix[0]:
            return {(x,) + suffix: _ONE}
        if x == suffix[0]:
            return {}
        key = (x, suffix)
        cached = memo.get(key)
        if cached is not None:
            return cached
        steps += 1
        if steps > DEFAULT_STEP_BUDGET:
            raise StepBudgetExceeded(
                f"straightening of {head} (n={n}) exceeded {DEFAULT_STEP_BUDGET} insertions"
            )
        out: dict = {}
        for coeff, first, second in _pair(x, suffix[0], n):
            fold(out, first, insert(second, suffix[1:]), coeff)
        memo[key] = out
        return out

    def fold(out: dict, x: int, vector: dict, scale: dict) -> dict:
        """Add scale * sum of c_T * insert(x, T) over vector into out; return out."""
        for word, c in vector.items():
            add_scaled(out, insert(x, word), add_product({}, scale, c))
        return out

    vector: dict = {(): _ONE}
    try:
        for x in reversed(head):
            vector = fold({}, x, vector, _ONE)
    except RecursionError:
        raise StepBudgetExceeded(
            f"straightening a head of length {len(head)} (n={n}) nests deeper "
            "than the interpreter's recursion limit"
        ) from None
    return vector
