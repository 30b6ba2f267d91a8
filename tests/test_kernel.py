"""The straightening kernel against a reference that rewrites in another order.

The q-wedge rewriting system is confluent, so rewriting the leftmost ascent
of whole heads (the reference below) and inserting into sorted suffixes
(the kernel) must reach the same normal form for every head.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fockdec import canonical, fock, kernel
from fockdec.errors import StepBudgetExceeded
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
            children = [
                (coeff, h[:j] + (first, second) + h[j + 2 :])
                for coeff, first, second in kernel._pair(h[j], h[j + 1], n)
            ]
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


def zero_then_descending(length: int) -> tuple:
    """The head (0, length-1, ..., 1), whose 0 must pass every other index."""
    return (0,) + tuple(range(length - 1, 0, -1))


def zero_then_descending_nf(length: int, n: int) -> dict:
    """Its normal form: (-1)^(length-1) q^(-#{1 <= b < length : n does not divide b})."""
    exponent = -sum(1 for b in range(1, length) if b % n)
    return {tuple(range(length - 1, -1, -1)): {exponent: (-1) ** (length - 1)}}


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

    def test_zero_then_descending_formula(self):
        for n in (2, 3):
            memo: dict = {}
            for length in range(2, 13):
                head = zero_then_descending(length)
                expected = {
                    wedge: LaurentPoly(c) for wedge, c in zero_then_descending_nf(length, n).items()
                }
                assert reference_straighten(head, n, memo) == expected


class TestInterface:
    def test_exposes_interface(self):
        assert kernel.KERNEL_NAME == "pure"
        assert kernel.DEFAULT_STEP_BUDGET > 0
        kernel.clear_cache()
        assert kernel.cache_size() == 0
        # A head already in normal order inserts nothing that needs a rewrite.
        assert kernel.straighten_raw((1, 0), 2) == {(1, 0): {0: 1}}
        assert kernel.cache_size() == 0
        kernel.straighten_raw((0, 1), 2)
        assert kernel.cache_size() >= 1


class TestWork:
    def test_memo_bound(self):
        # Memoizing whole heads left 11,195 entries here; insertions into
        # sorted suffixes leave 2,097.
        cold_start()
        assert kernel.cache_size() == 0
        misses = fock._bar_matrix.cache_info().misses
        bar_matrix(2, 10)
        assert fock._bar_matrix.cache_info().misses == misses + 1
        assert 0 < kernel.cache_size() <= 2_500

    def test_memo_holds_no_empty_table(self):
        # The fold merges with add_scaled, which drops a wedge whose
        # coefficient cancels instead of leaving an empty table behind.
        cold_start()
        bar_matrix(2, 10)
        assert kernel.cache_size() == 2_097
        for memo in kernel._CACHE.values():
            for vector in memo.values():
                assert all(vector.values())

    def test_each_insertion_computed_once(self, monkeypatch):
        calls = []
        pair = kernel._pair

        def counting_pair(a, b, n):
            calls.append((a, b))
            return pair(a, b, n)

        monkeypatch.setattr(kernel, "_pair", counting_pair)
        cold_start()
        bar_matrix(2, 8)
        assert calls
        assert len(calls) == kernel.cache_size()

    def test_long_heads_beyond_whole_head_rewriting(self):
        # Rewriting whole heads ran out of its default budget on these.
        for n in (2, 3):
            assert kernel.straighten_raw(zero_then_descending(50), n) == zero_then_descending_nf(50, n)

    def test_too_deep_head_fails_clearly(self):
        with pytest.raises(StepBudgetExceeded, match="length 1200"):
            kernel.straighten_raw(zero_then_descending(1200), 2)
