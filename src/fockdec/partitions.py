"""Partition combinatorics: dominance order, hooks, beta-numbers, tableaux.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the unique partition of 0.  Standard tableaux are tuples of row
tuples filled with 1..m.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

Partition = tuple  # tuple[int, ...], weakly decreasing, positive entries


def check_partition(parts) -> Partition:
    """Validate and return a partition as a tuple, raising ValueError otherwise."""
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing, got {parts!r}")
    return parts


def check_modulus(n) -> int:
    """Validate and return a modulus: an int, not a bool, that is at least 2."""
    if type(n) is not int or n < 2:
        raise ValueError(f"modulus n must be an integer at least 2, got {n!r}")
    return n


def check_degree(m) -> int:
    """Validate and return a degree: an int, not a bool, that is at least 0."""
    if type(m) is not int or m < 0:
        raise ValueError(f"degree m must be an integer at least 0, got {m!r}")
    return m


def format_partition(lam: Partition) -> str:
    """Serialize as comma-separated parts, the empty partition as ''."""
    return ",".join(str(p) for p in lam)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return check_partition(parts)


# Typed, so that True is not served the entry of 1 without being checked.
@lru_cache(maxsize=None, typed=True)
def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of m in reverse lexicographic order.

    This total order refines dominance with larger-in-dominance first:
    partitions_of(4) = ((4,), (3,1), (2,2), (2,1,1), (1,1,1,1)).
    """
    check_degree(m)

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(m, m))


def dominated_by(lam: Partition, mu: Partition) -> bool:
    """True iff lam is dominated by mu: every prefix sum of lam is <= mu's.

    Both partitions must have the same size; dominance is undefined otherwise.
    Neither is checked to be a partition, since `validate` asks this of
    every nonzero matrix entry.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"dominance undefined across sizes: {lam} vs {mu}")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram; ValueError unless lam is a partition."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def hook_length(lam: Partition, row: int, col: int) -> int:
    """Hook length of the cell (row, col), 1-based: arm + leg + 1.

    lam must be a partition; it is not checked, since hook lengths sit on
    the sum formula's inner loop.
    """
    if not (1 <= row <= len(lam) and 1 <= col <= lam[row - 1]):
        raise ValueError(f"cell ({row},{col}) outside diagram of {lam}")
    arm = lam[row - 1] - col
    leg = sum(1 for r in range(row, len(lam)) if lam[r] >= col)
    return arm + leg + 1


def first_column_betas(lam: Partition, s: int) -> tuple[int, ...]:
    """Beta-numbers (lam_i + s - i for i = 1..s), generalizing first-column hooks.

    Requires s >= number of parts; for s == number of parts these are exactly
    the first-column hook lengths.  Raises ValueError unless lam is a
    partition.
    """
    lam = check_partition(lam)
    if s < len(lam):
        raise ValueError(f"s={s} smaller than number of parts of {lam}")
    return tuple((lam[i - 1] if i <= len(lam) else 0) + s - i for i in range(1, s + 1))


def partition_from_betas(betas) -> tuple[int, Partition] | None:
    """Recover (sign, partition) from a beta-number sequence.

    Returns None (the zero symbol) when entries repeat or any entry is
    negative.  Otherwise the sign is the parity of the permutation sorting
    the sequence into decreasing order, and the partition entries are
    beta_sorted[i] + i - s with trailing zeros dropped.
    """
    betas = tuple(betas)
    s = len(betas)
    if any(b < 0 for b in betas) or len(set(betas)) != s:
        return None
    inversions = sum(
        1 for i in range(s) for j in range(i + 1, s) if betas[i] < betas[j]
    )
    sign = -1 if inversions % 2 else 1
    ordered = sorted(betas, reverse=True)
    parts = [ordered[i - 1] + i - s for i in range(1, s + 1)]
    while parts and parts[-1] == 0:
        parts.pop()
    return sign, tuple(parts)


def dim_specht(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula.

    Each hook is lam_row - col + lam'_col - row + 1, with the conjugate
    lam' computed once.  Raises ValueError unless lam is a partition.
    """
    columns = conjugate(lam)  # checks lam
    m = sum(lam)
    product = 1
    for row, part in enumerate(lam, 1):
        for col in range(1, part + 1):
            product *= part - col + columns[col - 1] - row + 1
    dim, rem = divmod(factorial(m), product)
    assert rem == 0
    return dim


def d_symbol(betas) -> int:
    """Signed generic Specht dimension of a beta-sequence; 0 on invalid input."""
    recovered = partition_from_betas(betas)
    if recovered is None:
        return 0
    sign, lam = recovered
    return sign * dim_specht(lam)


def is_regular(lam: Partition, n: int) -> bool:
    """True iff no part value repeats n or more times.

    lam must be a partition; it is not checked, since regularity filters
    every row a Theorem-1 check reads.
    """
    check_modulus(n)
    run = 0
    prev = None
    for p in lam:
        run = run + 1 if p == prev else 1
        prev = p
        if run >= n:
            return False
    return True


Tableau = tuple  # tuple of row tuples, entries 1..m


def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of shape lam, ordered by row-reading word.

    Entries 1..m increase along rows and down columns; the enumeration order
    is lexicographic on the concatenation of the rows.  Raises ValueError
    unless lam is a partition.
    """
    lam = check_partition(lam)
    m = sum(lam)
    rows = len(lam)
    results = []

    def fill(cells, next_value):
        if next_value > m:
            results.append(tuple(tuple(row) for row in cells))
            return
        for r in range(rows):
            c = len(cells[r])
            if c < lam[r] and (r == 0 or len(cells[r - 1]) > c):
                cells[r].append(next_value)
                fill(cells, next_value + 1)
                cells[r].pop()

    fill([[] for _ in range(rows)], 1)
    results.sort(key=lambda t: tuple(x for row in t for x in row))
    return tuple(results)


def conjugate_tableau(t: Tableau) -> Tableau:
    """Transpose a tableau; sends standard tableaux to standard tableaux."""
    if not t:
        return ()
    return tuple(
        tuple(t[r][c] for r in range(len(t)) if len(t[r]) > c)
        for c in range(len(t[0]))
    )
