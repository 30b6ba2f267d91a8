"""The matrix container: sparse columns, serialization round-trips, goldens."""

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
        reloaded = cls.from_jsonable(json.loads(matrix.to_json()))
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
    columns = {
        (2,): {(2,): LaurentPoly({-2: 3, 0: -1, 1: 1}), (1, 1): LaurentPoly({-1: -2, 1: -1, 3: 5})},
        (1, 1): {(1, 1): LaurentPoly({0: 7, 2: -1})},
    }
    matrix = PartitionMatrix(2, 2, [(2,), (1, 1)], columns)
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


@pytest.mark.parametrize("n,m", [(2, 7), (3, 7)])
def test_columns_hold_only_nonzero_entries_in_order(n, m):
    for matrix in (bar_matrix(n, m), decomposition_matrix(n, m)):
        labels = set(matrix.order)
        assert tuple(matrix.columns) == matrix.order
        for column in matrix.columns.values():
            assert labels.issuperset(column)
            assert not any(entry.is_zero() for entry in column.values())


def test_rows_are_the_dense_view_of_columns():
    matrix = decomposition_matrix(3, 5)
    order = matrix.order
    assert [[matrix.entry(lam, mu) for mu in order] for lam in order] == matrix.rows
    for lam in order:
        assert matrix.row(lam) == {mu: matrix.entry(lam, mu) for mu in order if matrix.entry(lam, mu)}
    before = matrix.entry((1,) * 5, (3, 2))
    matrix.column((3, 2))[(1,) * 5] = LaurentPoly({7: 1})
    assert matrix.entry((1,) * 5, (3, 2)) == before


def column_scan_row(matrix, lam) -> list:
    """The nonzeros of row lam as (column, entry) pairs, by a scan of every column."""
    return [(col, column[lam]) for col, column in matrix.columns.items() if lam in column]


@pytest.mark.parametrize("n,m", [(2, 8), (3, 9), (4, 7)])
def test_row_index_matches_column_scan(n, m):
    for matrix in (bar_matrix(n, m), decomposition_matrix(n, m)):
        for lam in matrix.order:
            assert list(matrix.row(lam).items()) == column_scan_row(matrix, lam)
        lam = matrix.order[-1]
        before = column_scan_row(matrix, lam)
        row = matrix.row(lam)
        del row[lam]
        row[matrix.order[0]] = LaurentPoly({7: 1})
        assert list(matrix.row(lam).items()) == before == column_scan_row(matrix, lam)
        for label in [(m + 1,), (1,) * (m - 1), (m, 0)]:
            with pytest.raises(KeyError):
                matrix.row(label)


def test_from_jsonable_rejects_ragged_grid():
    data = bar_matrix(2, 3).to_jsonable()
    data["entries"][1] = data["entries"][1][:-1]
    with pytest.raises(ValueError):
        BarMatrix.from_jsonable(data)


@pytest.mark.parametrize("label", [[4], [3]])
def test_from_jsonable_rejects_label_outside_order(label):
    # The last label, (1,1,1), becomes a partition of another degree or a
    # repeat of the first label.
    data = bar_matrix(2, 3).to_jsonable()
    data["order"][-1] = label
    with pytest.raises(ValueError):
        BarMatrix.from_jsonable(data)


def test_constructor_rejects_stray_label_order_or_zero_entry():
    one = LaurentPoly.one()
    order = [(2,), (1, 1)]
    with pytest.raises(ValueError):
        PartitionMatrix(2, 2, order, {(2,): {(2,): one, (3,): one}, (1, 1): {(1, 1): one}})
    with pytest.raises(ValueError):
        PartitionMatrix(2, 2, order, {(2,): {(2,): one}})
    with pytest.raises(ValueError):
        PartitionMatrix(2, 2, order, {(1, 1): {(1, 1): one}, (2,): {(2,): one}})
    with pytest.raises(ValueError):
        PartitionMatrix(2, 2, order, {(2,): {(2,): one}, (1, 1): {(2,): LaurentPoly.zero()}})


def test_entry_rejects_partition_of_another_degree():
    matrix = decomposition_matrix(2, 3)
    for row, col in [((2, 2), (3,)), ((3,), (2, 2)), ((1,), (1,))]:
        with pytest.raises(KeyError):
            matrix.entry(row, col)
    with pytest.raises(KeyError):
        matrix.row((2, 2))
