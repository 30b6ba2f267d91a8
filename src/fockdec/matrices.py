"""Square Laurent-polynomial matrices indexed by the partitions of one degree.

Shared container for the bar-involution and decomposition matrices, with the
render formats of `FORMATS` (text, JSON, CSV, LaTeX) and bit-exact
round-tripping.  A matrix is stored as the nonzero entries of each column;
this module alone lays them out as a dense grid, and only to render them.
"""

from __future__ import annotations

import json
from functools import cached_property

from fockdec.laurent import LaurentPoly, parse_poly
from fockdec.partitions import (
    Partition,
    check_degree,
    check_modulus,
    check_partition,
    dominated_by,
    format_partition,
)

_ZERO = LaurentPoly.zero()

# The formats of `PartitionMatrix.render`, each written by a `to_<format>` method.
FORMATS = ("text", "json", "csv", "latex")


def _lists_of(value, kind) -> bool:
    """True iff value is a list of lists whose items are all of type `kind`."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(x, kind) for x in row) for row in value
    )


def _index_rows(order, columns) -> dict:
    """{row: {column: entry}} over the labels of `order`, columns in that order."""
    index = {lam: {} for lam in order}
    for col, column in columns.items():
        for row, entry in column.items():
            index[row][col] = entry
    return index


class PartitionMatrix:
    """n, m, a fixed partition order, and the nonzero entries of each column.

    `columns` maps every label of `order`, in that order, to its column
    {row label: nonzero LaurentPoly}.  It is the stored form and is
    read-only: `column()` and `row()` return copies.  `row()` reads a
    {row: {column: entry}} index built from `columns` on its first call and
    kept with the matrix; it shares the entries of `columns`, and since the
    matrix is never modified it cannot go stale.  `rows` is a dense view
    built on each access, for rendering.
    """

    def __init__(self, n: int, m: int, order, columns: dict):
        self.n = n
        self.m = m
        self.order: tuple[Partition, ...] = tuple(tuple(lam) for lam in order)
        self.columns: dict[Partition, dict[Partition, LaurentPoly]] = columns
        labels = set(self.order)
        if (
            tuple(columns) != self.order
            or any(sum(lam) != m for lam in labels)
            or any(not labels.issuperset(column) for column in columns.values())
        ):
            raise ValueError("matrix labels do not match the partition order")
        if any(not entry for column in columns.values() for entry in column.values()):
            raise ValueError("matrix columns hold a zero entry")

    def entry(self, row_lam: Partition, col_lam: Partition) -> LaurentPoly:
        """The entry at (row_lam, col_lam); KeyError for a label not in `order`."""
        row_lam = tuple(row_lam)
        value = self.columns[tuple(col_lam)].get(row_lam)
        if value is None:
            if row_lam not in self.columns:
                raise KeyError(row_lam)
            return _ZERO
        return value

    def column(self, col_lam: Partition) -> dict[Partition, LaurentPoly]:
        return dict(self.columns[tuple(col_lam)])

    def row(self, row_lam: Partition) -> dict[Partition, LaurentPoly]:
        """The nonzero entries of one row, by column label in `order`.

        KeyError for a label not in `order`.
        """
        return dict(self._row_index[tuple(row_lam)])

    @cached_property
    def _row_index(self) -> dict[Partition, dict[Partition, LaurentPoly]]:
        return _index_rows(self.order, self.columns)

    @property
    def rows(self) -> list[list[LaurentPoly]]:
        """The dense grid: rows[i][j] is the entry at (order[i], order[j])."""
        columns = list(self.columns.values())
        return [[column.get(lam, _ZERO) for column in columns] for lam in self.order]

    def row_major(self, cells) -> list:
        """Records (row, column, ...) sorted into the reading order of `rows`."""
        position = {lam: i for i, lam in enumerate(self.order)}
        return sorted(cells, key=lambda cell: (position[cell[0]], position[cell[1]]))

    def _check_unitriangular(self, holds, failure: str) -> None:
        """Raise AssertionError unless the matrix is unitriangular for dominance.

        Every diagonal entry must be 1, and every other nonzero entry must sit
        at a row dominated by its column and satisfy `holds(entry)`; else
        `failure` is formatted with its row, col and entry.  The message
        raised is that of the first failing entry in row-major order.
        """
        failures = []
        for col in self.order:
            column = self.columns[col]
            diagonal = column.get(col, _ZERO)
            if not diagonal.is_one():
                failures.append((col, col, f"diagonal entry at {col} is {diagonal}"))
            for row, entry in column.items():
                if row == col:
                    continue
                if not dominated_by(row, col):
                    message = f"nonzero entry at non-dominated pair {row}, {col}"
                elif not holds(entry):
                    message = failure.format(row=row, col=col, entry=entry)
                else:
                    continue
                failures.append((row, col, message))
        if failures:
            raise AssertionError(self.row_major(failures)[0][2])

    def __eq__(self, other):
        return (
            isinstance(other, PartitionMatrix)
            and self.n == other.n
            and self.m == other.m
            and self.order == other.order
            and self.columns == other.columns
        )

    # -- serialization -------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "order": [list(lam) for lam in self.order],
            "entries": [[str(entry) for entry in row] for row in self.rows],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_jsonable(), indent=indent)

    @classmethod
    def from_jsonable(cls, data: dict) -> "PartitionMatrix":
        """The matrix that `to_jsonable` wrote; ValueError on any other input."""
        if not isinstance(data, dict) or not {"n", "m", "order", "entries"} <= data.keys():
            raise ValueError("a matrix is an object with keys n, m, order and entries")
        n, m, grid = check_modulus(data["n"]), check_degree(data["m"]), data["entries"]
        if not (_lists_of(data["order"], int) and _lists_of(grid, str)):
            raise ValueError("matrix order must hold lists of parts, entries lists of strings")
        order = [check_partition(lam) for lam in data["order"]]
        if len(grid) != len(order) or any(len(row) != len(order) for row in grid):
            raise ValueError("matrix shape does not match the partition order")
        columns = {mu: {} for mu in order}
        for lam, row in zip(order, grid):
            for mu, text in zip(order, row):
                entry = parse_poly(text)
                if entry:
                    columns[mu][lam] = entry
        return cls(n=n, m=m, order=order, columns=columns)

    def to_csv(self) -> str:
        header = [""] + [format_partition(lam) for lam in self.order]
        lines = [";".join(header)]
        for lam, row in zip(self.order, self.rows):
            lines.append(
                ";".join([format_partition(lam)] + [str(entry) for entry in row])
            )
        return "\n".join(lines) + "\n"

    def to_latex(self) -> str:
        empty = "\\varnothing"
        labels = [format_partition(lam) or empty for lam in self.order]
        cols = "l|" + "r" * len(self.order)
        lines = [f"\\begin{{tabular}}{{{cols}}}"]
        head = " & ".join(
            ["$\\lambda\\backslash\\mu$"] + [f"$({lbl})$" for lbl in labels]
        )
        lines.append(head + " \\\\")
        lines.append("\\hline")
        for lbl, row in zip(labels, self.rows):
            entries = [entry.render(power="q^{{{}}}", times=" ") for entry in row]
            cells = [f"$({lbl})$"] + [f"${text}$" for text in entries]
            lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        """The matrix in one of `FORMATS`, ending in a newline."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        if fmt == "json":
            return self.to_json(indent=2) + "\n"
        return getattr(self, f"to_{fmt}")()

    def to_text(self) -> str:
        labels = [format_partition(lam) or "-" for lam in self.order]
        cells = [[str(entry) for entry in row] for row in self.rows]
        widths = [
            max(len(labels[j]), max(len(cells[i][j]) for i in range(len(cells))))
            for j in range(len(labels))
        ]
        label_w = max(len(lbl) for lbl in labels)
        lines = [
            " " * (label_w + 2)
            + "  ".join(lbl.rjust(w) for lbl, w in zip(labels, widths))
        ]
        for i, lbl in enumerate(labels):
            lines.append(
                lbl.rjust(label_w)
                + ": "
                + "  ".join(cells[i][j].rjust(widths[j]) for j in range(len(labels)))
            )
        return "\n".join(lines) + "\n"
