import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.homalg import _intertwiner_matrix
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
from quivergrass.quiver import RepClass, TypeAQuiver, explicit_of, intervals_of


def _reference_rref(m):
    """Dense Gauss-Jordan over Fractions: the elimination rref replaced, kept as the oracle."""
    rows = [[Fraction(x) for x in r] for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Mat(m.nrows, m.ncols, tuple(tuple(row) for row in rows)), tuple(pivots)


def _reference_nullspace(m):
    """Kernel basis read off the reference RREF, one column per free column."""
    reduced, pivots = _reference_rref(m)
    cols = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.rows[r][fc]
        cols.append(v)
    return Mat(m.ncols, len(cols), tuple(tuple(col[i] for col in cols) for i in range(m.ncols)))


def _is_normal(m):
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for row in m.rows for x in row)


def assert_matches_reference(m):
    """Every elimination route of linalg against the dense Fraction oracle on m."""
    reduced, pivots = _reference_rref(m)
    got = rref(m)
    assert got == (reduced, pivots)
    assert _is_normal(got[0])
    assert rank(m) == len(pivots)
    kernel = nullspace(m)
    assert kernel == _reference_nullspace(m) and _is_normal(kernel)
    assert column_space(m) == Mat(m.nrows, len(pivots), tuple(tuple(row[c] for c in pivots) for row in m.rows))
    assert left_nullspace(m) == _reference_nullspace(m.transpose()).transpose()
    # solve on the pivot columns, which have full column rank
    a = column_space(m)
    x = Mat.from_rows([[Fraction(i - j, i + 2) for j in range(2)] for i in range(a.ncols)], ncols=2)
    assert solve(a, a.mul(x)) == x


def test_rejects_floats():
    with pytest.raises(TypeError):
        Mat.from_rows([[1.0, 2.0]])
    with pytest.raises(TypeError):
        Mat.from_rows([[Decimal(1)]])


def test_entries_are_normal_form():
    two = Mat.from_rows([[Fraction(4, 2)]]).rows[0][0]
    assert two == 2 and type(two) is int
    half = Mat.from_rows([[Fraction(1, 2)]]).rows[0][0]
    assert half == Fraction(1, 2) and type(half) is Fraction
    ints = Mat.from_rows([[1, -2], [0, 3]])
    fractions = Mat.from_rows([[Fraction(2, 2), Fraction(-4, 2)], [Fraction(0), Fraction(3)]])
    assert ints == fractions and hash(ints) == hash(fractions)
    assert fractions.rows == ((1, -2), (0, 3)) and _is_normal(fractions)
    assert all(_is_normal(m) for m in (Mat.zeros(2, 3), Mat.identity(3)))
    product = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)]]).mul(Mat.from_rows([[2], [3]]))
    assert product.rows == ((2,),) and _is_normal(product)


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


ENTRIES = st.one_of(
    st.just(0),
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def exact_matrices(draw):
    """Int and Fraction matrices up to 5x5, with 0xn and nx0 shapes and zeroed rows and columns."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=4)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=4)))
    rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return Mat.from_rows(rows, ncols=ncols)


@given(exact_matrices())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_elimination_matches_reference(m):
    assert_matches_reference(m)


def test_elimination_matches_reference_examples():
    examples = [
        [[-2, 4], [3, -1]],  # negative pivot
        [[0, 0, 0], [0, -3, 6], [0, 0, 0]],  # zero rows and columns around a negative pivot
        [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(3, 4), Fraction(-1, 2)]],  # rank 1, Fractions
        [[6, 10, 15], [4, 7, 9]],  # non-integral reduced entries
        [[2, -4, 0], [Fraction(1, 2), 3, Fraction(-2, 3)]],  # a row of ints copied, a Fraction row rescaled
    ]
    for rows in examples:
        assert_matches_reference(Mat.from_rows(rows))
    for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
        assert_matches_reference(Mat(nrows, ncols, tuple((0,) * ncols for _ in range(nrows))))


def test_intertwiner_systems_match_reference_a4():
    systems = 0
    for flags in itertools.product("FB", repeat=3):
        q = TypeAQuiver(4, "".join(flags))
        reps = [explicit_of(q, RepClass(((u, 1),))) for u in intervals_of(q)]
        for f in reps:
            for g in reps:
                system, _ = _intertwiner_matrix(f, g)
                assert all(type(x) is int for row in system.rows for x in row)
                assert_matches_reference(system)
                systems += 1
    assert systems == 8 * 10 * 10
