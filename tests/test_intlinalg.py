from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosmopoly.intlinalg import bareiss_determinant, solve_exact

from oracles import solve_rational


@st.composite
def square_systems(draw):
    """Small integer systems, often with zero leading pivots so that the
    elimination has to swap rows."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for k in draw(st.sets(st.integers(0, n - 1))):
        matrix[k][k] = 0
    rhs = [draw(st.integers(-50, 50)) for _ in range(n)]
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(square_systems())
@example(([[0, 1], [1, 0]], [3, -4]))
@example(([[0, 2, 1], [0, 1, 1], [1, 1, 1]], [1, 2, 3]))
@example(([[1, 2], [2, 4]], [1, 1]))
@example(([[0, 1], [0, 1]], [1, 1]))
def test_integer_solve_matches_rational_oracle(system):
    matrix, rhs = system
    try:
        x, det = solve_rational(matrix, rhs)
    except ValueError:
        with pytest.raises(ValueError):
            solve_exact(matrix, rhs)
        assert bareiss_determinant(matrix) == 0
        return
    scaled, d = solve_exact(matrix, rhs)
    assert d == det
    assert all(isinstance(v, int) for v in scaled)
    assert [Fraction(v, d) for v in scaled] == x
    assert bareiss_determinant(matrix) == det


def test_determinant_of_empty_matrix():
    assert bareiss_determinant([]) == 1


def test_shape_errors():
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2]])
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [3]], [1, 2])
