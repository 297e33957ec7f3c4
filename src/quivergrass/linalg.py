"""Exact linear algebra over the rationals.

Small dense matrices with Fraction entries; everything here is deterministic
and exact.  Floats are rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class InconsistentSystemError(ValueError):
    """Raised when an exact linear system has no solution."""


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact entry required (int or Fraction), got {type(x).__name__}")


@dataclass(frozen=True)
class Mat:
    """Immutable exact matrix; rows is a tuple of row tuples."""

    nrows: int
    ncols: int
    rows: tuple[tuple[Fraction, ...], ...]

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
        zero = Fraction(0)
        return cls(nrows, ncols, tuple((zero,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        if other.nrows == 0:
            return Mat.zeros(self.nrows, other.ncols)
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows
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

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(x) for x in row) + "]" for row in self.rows)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
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


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat) -> Mat:
    """Columns form a basis of the right kernel {x : m x = 0}."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    cols = []
    for fc in free:
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.rows[r][fc]
        cols.append(v)
    if not cols:
        return Mat(m.ncols, 0, tuple(() for _ in range(m.ncols)))
    return Mat(m.ncols, len(cols), tuple(tuple(col[i] for col in cols) for i in range(m.ncols)))


def column_space(m: Mat) -> Mat:
    """Columns form a basis of the column space (the pivot columns of m)."""
    _, pivots = rref(m)
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
    rows = [[Fraction(0)] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        rows[pc] = list(reduced.rows[r][a.ncols:])
    return Mat(a.ncols, b.ncols, tuple(tuple(r) for r in rows))
