"""Exact linear algebra over the rationals.

Small dense matrices whose entries are in one normal form: an int when the
value is integral and a Fraction otherwise.  Floats and other non-rational
types are rejected at construction.  Elimination is fraction-free: it runs
on integer rows (each row scaled by the lcm of its denominators, which keeps
its row space) and divides only exactly, so a Fraction is built only where
an answer is non-integral.  Everything here is deterministic and exact.

The fractions module is imported only where a Fraction is met (an entry
that is not an int) or built (a non-integral entry of rref), so importing
this module, and any computation whose entries stay integral, never loads
it.  Entry is an alias for annotations only.

Mat is an immutable named tuple (nrows, ncols, rows), so equality and
hashing are tuple operations in C.  Its arithmetic is the mul method: the
tuple operators + and * concatenate and repeat, and the package never
uses them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd, lcm

Entry = "int | Fraction"


class InconsistentSystemError(ValueError):
    """Raised when an exact linear system has no solution."""


def _coerce(x) -> Entry:
    if type(x) is int:
        return x
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"exact entry required (int or Fraction), got {type(x).__name__}")


class Mat(namedtuple("Mat", "nrows ncols rows")):
    """Immutable exact matrix; rows is a tuple of row tuples of normal-form entries."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], ncols: int | None = None) -> "Mat":
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return cls(nrows, ncols, tuple((0,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if other.nrows == 0:
            return Mat.zeros(self.nrows, other.ncols)
        out = tuple(
            tuple(_coerce(sum(a * b for a, b in zip(row, col))) for col in cols) for row in self.rows
        )
        return Mat(self.nrows, other.ncols, out)

    def transpose(self) -> "Mat":
        if self.nrows == 0:
            return Mat(self.ncols, 0, tuple(() for _ in range(self.ncols)))
        return Mat(self.ncols, self.nrows, tuple(zip(*self.rows)))

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Mat(self.nrows, self.ncols + other.ncols,
                   tuple(a + b for a, b in zip(self.rows, other.rows)))

    def col(self, j: int) -> tuple[Entry, ...]:
        return tuple(row[j] for row in self.rows)

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(x) for x in row) + "]" for row in self.rows)


def _eliminate(m: Mat, full: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of m: (the rank many nonzero rows, pivot columns).

    Each row is first scaled by the lcm of its denominators.  A row is
    cleared against the pivot row by a*row - b*pivot_row with a/b = p/f in
    lowest terms (p the pivot, f the row's entry), then divided exactly by
    the gcd of its entries.  Rows below each pivot are cleared; with full,
    the rows above it too, so that row k is its reduced row times the
    pivot in column pivots[k].
    """
    rows = []
    for row in m.rows:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(m.ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(0 if full else r + 1, nrows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = new if g <= 1 else [x // g for x in new]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _fraction(numerator: int, denominator: int) -> Entry:
    from fractions import Fraction

    return Fraction(numerator, denominator)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows, pivots = _eliminate(m, full=True)
    reduced = []
    for row, c in zip(rows, pivots):
        p = row[c]
        reduced.append(tuple(x // p if x % p == 0 else _fraction(x, p) for x in row))
    reduced.extend((0,) * m.ncols for _ in range(m.nrows - len(rows)))
    return Mat(m.nrows, m.ncols, tuple(reduced)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_eliminate(m, full=False)[1])


def nullspace(m: Mat) -> Mat:
    """Columns form a basis of the right kernel {x : m x = 0}."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    cols = []
    for fc in free:
        v = [0] * m.ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.rows[r][fc]
        cols.append(v)
    if not cols:
        return Mat(m.ncols, 0, tuple(() for _ in range(m.ncols)))
    return Mat(m.ncols, len(cols), tuple(tuple(col[i] for col in cols) for i in range(m.ncols)))


def column_space(m: Mat) -> Mat:
    """Columns form a basis of the column space (the pivot columns of m)."""
    _, pivots = _eliminate(m, full=False)
    if not pivots:
        return Mat(m.nrows, 0, tuple(() for _ in range(m.nrows)))
    return Mat(m.nrows, len(pivots), tuple(tuple(row[c] for c in pivots) for row in m.rows))


def left_nullspace(m: Mat) -> Mat:
    """Rows form a basis of {y : y m = 0}."""
    return nullspace(m.transpose()).transpose()


def solve(a: Mat, b: Mat) -> Mat:
    """The unique X with a X = b; a must have full column rank.

    Raises InconsistentSystemError if no solution exists, ValueError if the
    solution is not unique.
    """
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    aug = a.hstack(b)
    reduced, pivots = rref(aug)
    if any(p >= a.ncols for p in pivots):
        raise InconsistentSystemError("system has no exact solution")
    if len(pivots) < a.ncols:
        raise ValueError("solution is not unique (rank-deficient coefficient matrix)")
    rows = [[0] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        rows[pc] = list(reduced.rows[r][a.ncols:])
    return Mat(a.ncols, b.ncols, tuple(tuple(r) for r in rows))
