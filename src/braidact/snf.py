"""Smith normal form over the integers, with exact arithmetic.

Two phases.  First diagonalize: pivot on a smallest-magnitude nonzero
entry, reduce its row and its column modulo the pivot, and delete both
once they are clear; a nonzero remainder becomes a smaller pivot.  Then
put the diagonal in divisibility order by replacing each pair
(d_i, d_j), i < j, with (gcd, lcm), since diag(d_i, d_j) and
diag(gcd, lcm) are equivalent over Z.  Python integers are unbounded, so
no overflow handling is needed.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["smith_normal_form"]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(m, n) non-negative integers d_1 | d_2 | ... with zeros
    last.  Row/column operations are unimodular, so the diagonal is a
    matrix invariant.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must have equal length")

    size = min(m, n)
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row, p = a[i], a[i][j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // p
                a[k] = [x - q * y for x, y in zip(row, pivot_row)]
        for col, v in enumerate(pivot_row):
            if col != j and v:
                q = v // p
                for row in a:
                    row[col] -= q * row[j]
        # Alone in its row and column, the pivot is a diagonal entry.
        if sum(map(bool, pivot_row)) == 1 and sum(bool(row[j]) for row in a) == 1:
            diag.append(abs(p))
            del a[i]
            for row in a:
                del row[j]
    diag += [0] * (size - len(diag))

    # diag(d_i, d_j) ~ diag(gcd, lcm); zeros end last since lcm(0, d) = 0.
    for i in range(size):
        for j in range(i + 1, size):
            diag[i], diag[j] = math.gcd(diag[i], diag[j]), math.lcm(diag[i], diag[j])
    return diag
