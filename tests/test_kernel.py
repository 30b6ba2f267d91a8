"""The straightening kernel against a reference that rewrites in another order.

The q-wedge rewriting system is confluent, so rewriting the leftmost ascent
(the reference below) and the rightmost ascent (the kernel) must reach the
same normal form for every head.
"""

from hypothesis import given, settings, strategies as st

from fockdec import canonical, fock, kernel
from fockdec.fock import bar_matrix, wedge_from_partition
from fockdec.laurent import LaurentPoly
from fockdec.partitions import partitions_of


def cold_start() -> None:
    """Empty the straightening memo and the matrix caches built on top of it."""
    kernel.clear_cache()
    fock._bar_matrix.cache_clear()
    canonical._decomposition_matrix.cache_clear()


def reference_straighten(head: tuple, n: int, memo: dict) -> dict:
    """Leftmost-ascent straightening that re-expands a head on every visit."""
    stack = [head]
    while stack:
        h = stack[-1]
        if h in memo:
            stack.pop()
            continue
        j = next((p for p in range(len(h) - 1) if h[p] <= h[p + 1]), None)
        if j is None:
            memo[h] = {h: LaurentPoly.one()}
        elif h[j] == h[j + 1]:
            memo[h] = {}
        else:
            children = kernel._expand(h, j, n)
            missing = [child for _, child in children if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            out: dict = {}
            for coeff, child in children:
                for wedge, c in memo[child].items():
                    out[wedge] = out.get(wedge, LaurentPoly.zero()) + LaurentPoly(coeff) * c
            memo[h] = {wedge: c for wedge, c in out.items() if not c.is_zero()}
        stack.pop()
    return memo[head]


def kernel_straighten(head: tuple, n: int) -> dict:
    return {wedge: LaurentPoly(c) for wedge, c in kernel.straighten_raw(head, n).items()}


def bar_heads(max_m: int):
    for m in range(max_m + 1):
        for lam in partitions_of(m):
            yield wedge_from_partition(lam, max(m, len(lam), 1))[::-1]


class TestAgainstReference:
    def test_bar_heads(self):
        heads = list(bar_heads(9))
        for n in (2, 3, 4, 5):
            memo: dict = {}
            for head in heads:
                assert kernel_straighten(head, n) == reference_straighten(head, n, memo)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6).map(tuple),
        st.integers(min_value=2, max_value=5),
    )
    def test_random_heads(self, head, n):
        assert kernel_straighten(head, n) == reference_straighten(head, n, {})


class TestInterface:
    def test_exposes_interface(self):
        assert kernel.KERNEL_NAME == "pure"
        assert kernel.DEFAULT_STEP_BUDGET > 0
        kernel.clear_cache()
        assert kernel.cache_size() == 0
        assert kernel.straighten_raw((1, 0), 2) == {(1, 0): {0: 1}}
        assert kernel.cache_size() == 1


class TestWork:
    def test_memo_bound(self):
        # Leftmost-ascent rewriting left 62,655 entries here; the lower bound
        # fails if the matrix came from a cache and straightened nothing.
        cold_start()
        bar_matrix(2, 10)
        assert 10_000 <= kernel.cache_size() <= 15_000

    def test_each_head_expanded_once(self, monkeypatch):
        calls = []
        expand = kernel._expand

        def counting_expand(head, j, n):
            calls.append(head)
            return expand(head, j, n)

        monkeypatch.setattr(kernel, "_expand", counting_expand)
        cold_start()
        bar_matrix(2, 8)
        assert calls
        assert len(calls) == len(set(calls))
