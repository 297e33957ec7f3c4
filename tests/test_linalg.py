from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivergrass.linalg import (
    InconsistentSystemError,
    Mat,
    column_space,
    left_nullspace,
    nullspace,
    rank,
    rref,
    solve,
)


def test_rejects_floats():
    with pytest.raises(TypeError):
        Mat.from_rows([[1.0, 2.0]])


def test_rref_and_rank():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert rank(m) == 2
    assert reduced.rows[0][0] == 1


def test_nullspace_is_annihilated():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(m)
    assert ns.ncols == 2
    assert m.mul(ns) == Mat.zeros(2, 2)


def test_column_space_uses_original_columns():
    m = Mat.from_rows([[1, 2, 3], [0, 0, 1]])
    cs = column_space(m)
    assert cs.ncols == 2
    assert cs.col(0) == (Fraction(1), Fraction(0))


def test_left_nullspace():
    m = Mat.from_rows([[1, 0], [2, 0], [0, 0]])
    ln = left_nullspace(m)
    assert ln.nrows == 2
    assert ln.mul(m) == Mat.zeros(2, 2)


def test_solve_exact():
    a = Mat.from_rows([[2, 0], [0, 3]])
    b = Mat.from_rows([[1], [1]])
    x = solve(a, b)
    assert x.rows == ((Fraction(1, 2),), (Fraction(1, 3),))


def test_solve_inconsistent_raises():
    a = Mat.from_rows([[1], [1]])
    b = Mat.from_rows([[1], [2]])
    with pytest.raises(InconsistentSystemError):
        solve(a, b)


def test_solve_rank_deficient_raises():
    a = Mat.from_rows([[1, 1], [1, 1]])
    b = Mat.from_rows([[1], [1]])
    with pytest.raises(ValueError):
        solve(a, b)


def test_zero_dimensional_shapes():
    empty = Mat.from_rows([], ncols=3)
    assert nullspace(empty).ncols == 3
    assert rank(empty) == 0
    wide = Mat(3, 0, ((), (), ()))
    assert nullspace(wide).ncols == 0
    assert left_nullspace(wide).nrows == 3


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_nullity(rows):
    m = Mat.from_rows(rows)
    assert rank(m) + nullspace(m).ncols == m.ncols
    ns = nullspace(m)
    assert m.mul(ns) == Mat.zeros(m.nrows, ns.ncols)


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2),
        min_size=2,
        max_size=4,
    )
)
def test_solve_roundtrip(rows):
    a = Mat.from_rows(rows)
    if rank(a) < a.ncols:
        return
    x = Mat.from_rows([[1], [-2]])
    b = a.mul(x)
    assert solve(a, b) == x
