"""The bounded caches behind `bar_matrix` and `decomposition_matrix`.

Every call shares one matrix per (n, m); readers never change a shared
matrix.
"""

from functools import lru_cache

import pytest

from fockdec import canonical, fock, matrices
from fockdec.canonical import decomposition_matrix
from fockdec.errors import ConventionError
from fockdec.fock import BarMatrix, FockVector, bar_matrix, bar_vector
from fockdec.laurent import LaurentPoly, cyclotomic_valuation
from fockdec.partitions import is_regular, partitions_of
from fockdec.schaper import SPECHT, GrothendieckVector, specht_to_simple, theorem1_check
from fockdec.verify import run_verification


def counting_builder(monkeypatch, module, name) -> list:
    """Swap in an empty cache whose builder records each (n, m) it builds."""
    build = getattr(module, name).__wrapped__
    built = []

    def counting(n, m):
        built.append((n, m))
        return build(n, m)

    monkeypatch.setattr(module, name, lru_cache(maxsize=16)(counting))
    return built


def test_default_calls_share_one_object():
    assert bar_matrix(3, 5) is bar_matrix(3, 5)
    assert decomposition_matrix(3, 5) is decomposition_matrix(3, 5)


def test_theorem1_sweep_builds_once_per_degree(monkeypatch):
    bars = counting_builder(monkeypatch, fock, "_bar_matrix")
    decomps = counting_builder(monkeypatch, canonical, "_decomposition_matrix")
    for n in (2, 3):
        for lam in partitions_of(8):
            assert theorem1_check(lam, n).passed
    assert bars == [(2, 8), (3, 8)]
    assert decomps == [(2, 8), (3, 8)]


def test_theorem1_sweep_indexes_each_matrix_once(monkeypatch):
    counting_builder(monkeypatch, fock, "_bar_matrix")
    counting_builder(monkeypatch, canonical, "_decomposition_matrix")
    index_rows = matrices._index_rows
    indexed = []

    def counting(order, columns):
        indexed.append(sum(order[0]))
        return index_rows(order, columns)

    monkeypatch.setattr(matrices, "_index_rows", counting)
    for n in (2, 3):
        for lam in partitions_of(8):
            assert theorem1_check(lam, n).passed
    # One index for A and one for D at each n, however many rows are read.
    assert indexed == [8] * 4


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: bar_matrix(2.0, 4), "at least 2"),
        (lambda: decomposition_matrix(2, True), "at least 0"),
        (lambda: theorem1_check((2, 1), 2.5), "at least 2"),
        (lambda: cyclotomic_valuation(LaurentPoly({0: 1, 1: 1}), 2.0), "at least 2"),
        (lambda: is_regular((1,), True), "at least 2"),
        (lambda: partitions_of(True), "at least 0"),
        (lambda: bar_vector(FockVector(), 1), "at least 2"),
        (lambda: bar_vector(FockVector(), 2.5), "at least 2"),
        (lambda: specht_to_simple(GrothendieckVector(SPECHT, {}), 1), "at least 2"),
    ],
    ids=[
        "bar_matrix",
        "decomposition_matrix",
        "theorem1_check",
        "cyclotomic_valuation",
        "is_regular",
        "partitions_of",
        "bar_vector-zero",
        "bar_vector-zero-float",
        "specht_to_simple-zero",
    ],
)
def test_bad_modulus_or_degree_rejected_before_the_caches(call, message):
    # A float or bool equals an int key of the shared caches, so it must be
    # rejected before it can fill one or be served from one.
    def sizes():
        builders = (fock._bar_matrix, canonical._decomposition_matrix)
        return [builder.cache_info().currsize for builder in builders]

    decomposition_matrix(2, 1)
    before = sizes()
    with pytest.raises(ValueError, match=message):
        call()
    assert sizes() == before


def test_explicit_amat_is_solved_from():
    # A perturbed A breaks the antisymmetry the solve relies on.
    amat = bar_matrix(2, 3)
    columns = dict(amat.columns)
    columns[(3,)] = amat.column((3,))
    columns[(3,)][(2, 1)] = amat.entry((2, 1), (3,)) + LaurentPoly({1: 1})
    perturbed = BarMatrix(n=2, m=3, order=amat.order, columns=columns)
    with pytest.raises(ConventionError):
        canonical._solve(perturbed)
    assert bar_matrix(2, 3) == fock._bar_matrix.__wrapped__(2, 3)


def test_caches_are_bounded():
    for builder in (fock._bar_matrix, canonical._decomposition_matrix):
        assert builder.cache_info().maxsize is not None


def test_shared_matrices_unchanged_by_readers():
    pairs = [(n, m) for n in (2, 3) for m in range(5)]
    held = {pair: (bar_matrix(*pair), decomposition_matrix(*pair)) for pair in pairs}
    assert all(result.passed for result in run_verification(4, (2, 3)))
    for n in (2, 3):
        for lam in partitions_of(4):
            assert theorem1_check(lam, n).passed
    for (n, m), (amat, dmat) in held.items():
        fresh = fock._bar_matrix.__wrapped__(n, m)
        assert amat == fresh
        assert dmat == canonical._solve(fresh)
