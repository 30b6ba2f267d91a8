"""Serialization round-trips and golden regression files."""

import json
from pathlib import Path

import pytest

from fockdec.canonical import DecompositionMatrix, decomposition_matrix
from fockdec.fock import BarMatrix, bar_matrix
from fockdec.hecke import gram_matrix
from fockdec.laurent import LaurentPoly, parse_poly
from fockdec.matrices import PartitionMatrix
from fockdec.partitions import partitions_of

GOLDEN = Path(__file__).parent / "golden"

PINNED = [(2, 2), (2, 4), (3, 5)]


@pytest.mark.parametrize("n,m", PINNED)
def test_golden_decomposition(n, m):
    expected = json.loads((GOLDEN / f"decomp-n{n}-m{m}.json").read_text())
    assert decomposition_matrix(n, m).to_jsonable() == expected


@pytest.mark.parametrize("n,m", PINNED)
def test_golden_bar(n, m):
    expected = json.loads((GOLDEN / f"bar-n{n}-m{m}.json").read_text())
    assert bar_matrix(n, m).to_jsonable() == expected


def test_golden_gram():
    expected = json.loads((GOLDEN / "gram-m5.json").read_text())
    shapes = [tuple(entry["lambda"]) for entry in expected]
    assert shapes == [lam for m in range(6) for lam in partitions_of(m)]
    for lam, entry in zip(shapes, expected):
        rows = [[str(value) for value in row] for row in gram_matrix(lam).rows]
        assert rows == entry["rows"], lam


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4)])
def test_matrix_json_round_trip(n, m):
    for cls, matrix in [
        (BarMatrix, bar_matrix(n, m)),
        (DecompositionMatrix, decomposition_matrix(n, m)),
    ]:
        reloaded = cls.from_json(matrix.to_json())
        assert reloaded == matrix
        assert reloaded.to_json() == matrix.to_json()


def test_csv_contains_entries():
    matrix = decomposition_matrix(2, 2)
    csv = matrix.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ";2;1,1"
    assert lines[1] == "2;1;0"
    assert lines[2] == "1,1;q;1"


def test_latex_wellformed():
    matrix = bar_matrix(2, 2)
    latex = matrix.to_latex()
    assert latex.startswith("\\begin{tabular}")
    assert latex.rstrip().endswith("\\end{tabular}")
    assert "$-q^{-1} + q$" in latex


def test_latex_exponents_and_coefficients():
    rows = [
        [LaurentPoly({-2: 3, 0: -1, 1: 1}), LaurentPoly.zero()],
        [LaurentPoly({-1: -2, 1: -1, 3: 5}), LaurentPoly({0: 7, 2: -1})],
    ]
    matrix = PartitionMatrix(2, 2, [(2,), (1, 1)], rows)
    assert matrix.to_latex() == (
        "\\begin{tabular}{l|rr}\n"
        "$\\lambda\\backslash\\mu$ & $(2)$ & $(1,1)$ \\\\\n"
        "\\hline\n"
        "$(2)$ & $3 q^{-2} - 1 + q$ & $0$ \\\\\n"
        "$(1,1)$ & $-2 q^{-1} - q + 5 q^{3}$ & $7 - q^{2}$ \\\\\n"
        "\\end{tabular}\n"
    )


def test_text_table_alignment():
    text = decomposition_matrix(2, 2).to_text()
    assert "q" in text
    assert text.endswith("\n")


def test_render_dispatch():
    matrix = bar_matrix(2, 1)
    for fmt in ("text", "json", "csv", "latex"):
        assert matrix.render(fmt)
    with pytest.raises(ValueError):
        matrix.render("yaml")


def test_entries_parse_back():
    data = json.loads((GOLDEN / "decomp-n2-m4.json").read_text())
    entry = data["entries"][4][0]
    assert parse_poly(entry) == parse_poly("q^2")
