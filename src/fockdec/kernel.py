"""Wedge normal-ordering kernel: q-wedge straightening by rightmost ascent.

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

All indices generated lie strictly inside the interval spanned by the pair
they replace, so a head whose entries exceed -len(head) stays that way.

Each head is rewritten at its *rightmost* ascent.  Everything to the right of
that ascent is already strictly decreasing, so every rewrite inserts one
index into a normally ordered suffix and the heads met along the way share
long sorted tails; for the bar matrices at m = 11..12 the memo holds 7-10
times fewer heads than with the leftmost ascent.  The rewriting system is
confluent (Leclerc-Thibon, IMRN 1996): every order of rewrites ends in the
same normal form, so the choice of ascent changes the work done, never the
result.

The memo maps (n, head) to its normal form for the life of the process, so
repeated bar matrices at the same n reuse it.
"""

from __future__ import annotations

from fockdec.errors import StepBudgetExceeded
from fockdec.laurent import add_product

KERNEL_NAME = "pure"

DEFAULT_STEP_BUDGET = 1_000_000

# n -> {head: {normalized_head: {exponent: coefficient}}}
_CACHE: dict[int, dict] = {}


def clear_cache() -> None:
    _CACHE.clear()


def cache_size() -> int:
    return sum(len(memo) for memo in _CACHE.values())


def _expand(head: tuple, j: int, n: int) -> list:
    """Rewrite the ascending adjacent pair at positions j, j+1.

    Returns a list of (coefficient_dict, new_head) pairs.
    """
    a = head[j]
    b = head[j + 1]
    prefix = head[:j]
    suffix = head[j + 2 :]
    swapped = prefix + (b, a) + suffix
    i = (b - a) % n
    if i == 0:
        return [({0: -1}, swapped)]
    children = [({-1: -1}, swapped)]
    t = 0
    while True:
        if t % 2 == 0:
            delta = (t // 2) * n + i
        else:
            delta = ((t + 1) // 2) * n
        first = b - delta
        second = a + delta
        if first <= second:
            break
        sign = -1 if t % 2 else 1
        # (q^{-2} - 1) * (+-q^{-t})
        coeff = {-t - 2: sign, -t: -sign}
        children.append((coeff, prefix + (first, second) + suffix))
        t += 1
    return children


def straighten_raw(head: tuple, n: int, budget: int = DEFAULT_STEP_BUDGET) -> dict:
    """Expand a head into normalized wedges: {head: {exponent: coefficient}}.

    Results are memoized per (n, head); callers must treat the returned
    mapping and its values as read-only.  `budget` caps the number of
    rewrites this call may combine.
    """
    memo = _CACHE.setdefault(n, {})
    cached = memo.get(head)
    if cached is not None:
        return cached
    steps = 0
    # A frame is (head, None) until the head is rewritten, then
    # (head, children): it stays on the stack below its missing children and
    # is combined once they are all in the memo.
    stack: list = [(head, None)]
    while stack:
        h, children = stack.pop()
        if children is None:
            if h in memo:
                continue
            j = len(h) - 2
            while j >= 0 and h[j] > h[j + 1]:
                j -= 1
            if j < 0:
                memo[h] = {h: {0: 1}}
                continue
            if h[j] == h[j + 1]:
                memo[h] = {}
                continue
            children = _expand(h, j, n)
            missing = [(child, None) for _, child in children if child not in memo]
            if missing:
                stack.append((h, children))
                stack.extend(missing)
                continue
        steps += 1
        if steps > budget:
            raise StepBudgetExceeded(
                f"straightening of {head} (n={n}) exceeded {budget} rewrite steps"
            )
        out: dict = {}
        for coeff, child in children:
            for child_head, child_coeff in memo[child].items():
                add_product(out.setdefault(child_head, {}), coeff, child_coeff)
        memo[h] = {child_head: c for child_head, c in out.items() if c}
    return memo[head]
