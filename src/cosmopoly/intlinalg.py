"""Exact integer determinants by fraction-free (Bareiss) elimination, so no
rational number is ever formed."""

from __future__ import annotations

from typing import Sequence


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    All intermediate divisions are exact, so the arithmetic stays in the
    integers regardless of entry growth.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        tail_k = a[k][k + 1 :]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            if factor or pivot != prev:  # else the update leaves the row as it is
                row_i[k + 1 :] = [
                    (x * pivot - factor * y) // prev for x, y in zip(row_i[k + 1 :], tail_k)
                ]
        prev = pivot
    return sign * a[n - 1][n - 1]
