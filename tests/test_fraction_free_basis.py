"""The fraction-free kernel of the placing pass, ``fraction_free_basis``,
against rational elimination, and the shape checks of the normalized
volume read off it."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosmopoly.errors import WrongCardinality
from cosmopoly.multigraph import single_edge
from cosmopoly.triangulation import fraction_free_basis, normalized_volume

from oracles import point_by_name, solve_rational


def identity(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@st.composite
def square_matrices(draw):
    """Small integer matrices, often with zero leading pivots so that the
    elimination has to swap rows."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for k in draw(st.sets(st.integers(0, n - 1))):
        matrix[k][k] = 0
    return matrix


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 2, 1], [0, 1, 1], [1, 1, 1]])
@example([[1, 2], [2, 4]])
@example([[0, 1], [0, 1]])
def test_determinant_matches_rational_oracle(matrix):
    try:
        _, det = solve_rational(matrix, [0] * len(matrix))
    except ValueError:  # singular
        det = 0
    n, read = len(matrix), []

    def points():  # the rows, then a zero point, which fills no slot
        for row in matrix + [[0] * n]:
            read.append(row)
            yield row

    first, basis_det, rows = fraction_free_basis(identity(n), points())
    # a point is left over iff the matrix is singular, and the points after
    # the last slot filled are not read
    assert (-1 in first) == (det == 0)
    assert len(read) == (n + 1 if det == 0 else n)
    if det:
        assert abs(basis_det) == abs(det)
        # the rows are det times the inverse of the basis the points fill
        basis = [matrix[first[q]] for q in range(n)]
        assert [[sum(a * c for a, c in zip(row, p)) for p in basis] for row in rows] == [
            [basis_det * x for x in unit] for unit in identity(n)
        ]


def test_determinant_of_empty_matrix():
    assert fraction_free_basis([], []) == ([], 1, [])


def test_shape_errors():
    g = single_edge()
    pts = lambda *ns: [point_by_name(g, n) for n in ns]
    with pytest.raises(WrongCardinality):
        normalized_volume([])
    with pytest.raises(WrongCardinality):
        normalized_volume(pts("zv0", "zv1"))
    with pytest.raises(WrongCardinality):
        normalized_volume(pts("zv0", "zv1", "ze0", "t0"))
