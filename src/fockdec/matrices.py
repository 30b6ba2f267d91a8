"""Square Laurent-polynomial matrices indexed by the partitions of one degree.

Shared container for the bar-involution and decomposition matrices, with the
three export formats (JSON, CSV, LaTeX) and bit-exact round-tripping.
"""

from __future__ import annotations

import json

from fockdec.laurent import LaurentPoly, parse_poly
from fockdec.partitions import Partition, format_partition


class PartitionMatrix:
    """n, m, a fixed partition order, and a dense grid of LaurentPoly entries."""

    kind = "matrix"

    def __init__(self, n: int, m: int, order, rows):
        self.n = n
        self.m = m
        self.order: tuple[Partition, ...] = tuple(tuple(lam) for lam in order)
        self.index = {lam: i for i, lam in enumerate(self.order)}
        self.rows: list[list[LaurentPoly]] = rows
        if len(rows) != len(self.order) or any(
            len(row) != len(self.order) for row in rows
        ):
            raise ValueError("matrix shape does not match the partition order")

    def entry(self, row_lam: Partition, col_lam: Partition) -> LaurentPoly:
        return self.rows[self.index[tuple(row_lam)]][self.index[tuple(col_lam)]]

    def column(self, col_lam: Partition) -> dict[Partition, LaurentPoly]:
        j = self.index[tuple(col_lam)]
        return {
            lam: self.rows[i][j]
            for i, lam in enumerate(self.order)
            if not self.rows[i][j].is_zero()
        }

    def __eq__(self, other):
        return (
            isinstance(other, PartitionMatrix)
            and self.n == other.n
            and self.m == other.m
            and self.order == other.order
            and self.rows == other.rows
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
        order = [tuple(lam) for lam in data["order"]]
        rows = [[parse_poly(text) for text in row] for row in data["entries"]]
        return cls(n=int(data["n"]), m=int(data["m"]), order=order, rows=rows)

    @classmethod
    def from_json(cls, text: str) -> "PartitionMatrix":
        return cls.from_jsonable(json.loads(text))

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
        if fmt == "json":
            return self.to_json(indent=2) + "\n"
        if fmt == "csv":
            return self.to_csv()
        if fmt == "latex":
            return self.to_latex()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")

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

