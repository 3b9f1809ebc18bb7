import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosmopoly.intlinalg import bareiss_determinant

from oracles import solve_rational


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
    assert bareiss_determinant(matrix) == det


def test_determinant_of_empty_matrix():
    assert bareiss_determinant([]) == 1


def test_shape_errors():
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2]])
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2], [3]])
