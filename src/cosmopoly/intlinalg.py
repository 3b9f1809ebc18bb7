"""Exact integer linear algebra: one fraction-free (Bareiss) elimination
serves determinants and solves, so no rational number is ever formed."""

from __future__ import annotations

from typing import Sequence


def _eliminate(a: list[list[int]], n: int) -> int:
    """Bareiss forward pass over the leading n columns of the n rows ``a``,
    in place, carrying any further columns along; ``a`` ends upper
    triangular.  Returns the determinant of the n x n part, 0 if singular.
    """
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
                row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    All intermediate divisions are exact, so the arithmetic stays in the
    integers regardless of entry growth.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    return _eliminate(a, n)


def solve_exact(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[int], int]:
    """Solve A x = b for square integer A; returns (det A · x, det A).

    Both are integers: det A · x holds Cramer's numerators.  Raises
    ValueError on a singular matrix.
    """
    n = len(matrix)
    a = [list(row) + [int(rhs[i])] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in a):
        raise ValueError("matrix must be square and match rhs length")
    det = _eliminate(a, n)
    if det == 0:
        raise ValueError("singular matrix")
    # Back substitution for y = det · x: each division is exact since y is integral.
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = det * row[n]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s // row[i]
    return y, det
