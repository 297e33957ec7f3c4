"""Type A quivers, interval modules, representation classes, explicit matrices.

A type A quiver is an orientation of the path graph on vertices 1..n; the
orientation is a string of flags, one per edge, 'F' for i -> i+1 and 'B' for
i+1 -> i.  Indecomposable representations are the interval modules M[a,b]
(one-dimensional on vertices a..b, identity on interior edges), so an
isomorphism class of representations is a multiset of intervals;
enumerate_rep_classes lists those of one dimension vector in canonical order.

TypeAQuiver, Interval and RepClass key most caches, and ExplicitRep carries
matrices, so all four are immutable named tuples: hashing, equality and
ordering are tuple operations in C, and the constructor checks run in
__new__, which pickling calls again.  Being tuples, a value equals the plain
tuple of its fields; nothing here keys a table by both.  Build values with
the class itself, never with _make or _replace, which skip the checks.
Named tuples need no dataclasses import, which with its inspect stack
would be most of the package's import time.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache

from .linalg import Mat

FORWARD = "F"
BACKWARD = "B"


class InternalCheckError(RuntimeError):
    """A runtime consistency assertion failed; never ignore these."""


class TypeAQuiver(namedtuple("TypeAQuiver", "n orient")):
    __slots__ = ()

    def __new__(cls, n: int, orient: str = "") -> "TypeAQuiver":
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        if len(orient) != n - 1:
            raise ValueError(f"expected {n - 1} orientation flags, got {len(orient)}")
        bad = next((c for c in orient if c not in (FORWARD, BACKWARD)), None)
        if bad is not None:
            raise ValueError(f"orientation flag must be F or B, got {bad!r}")
        return tuple.__new__(cls, (n, orient))

    def edge(self, k: int) -> tuple[int, int]:
        """(source, target) of the k-th edge (0-based), vertices 1-based."""
        if self.orient[k] == FORWARD:
            return (k + 1, k + 2)
        return (k + 2, k + 1)

    def label(self) -> str:
        return f"A{self.n}:{self.orient}" if self.orient else f"A{self.n}"


class Interval(namedtuple("Interval", "a b")):
    """The interval [a, b] of vertices, 1 <= a <= b; ordered by (a, b)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Interval":
        if not 1 <= a <= b:
            raise ValueError(f"bad interval [{a},{b}]")
        return tuple.__new__(cls, (a, b))

    def contains(self, v: int) -> bool:
        return self.a <= v <= self.b

    def indicator(self, n: int) -> tuple[int, ...]:
        return tuple(1 if self.a <= v <= self.b else 0 for v in range(1, n + 1))

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


class RepClass(namedtuple("RepClass", "pairs")):
    """Multiset of intervals; pairs is sorted with positive multiplicities."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Interval, int]]) -> "RepClass":
        acc: dict[Interval, int] = {}
        for u, k in pairs:
            if k < 0:
                raise ValueError("multiplicity must be non-negative")
            if k:
                acc[u] = acc.get(u, 0) + k
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def from_copies(cls, copies: Iterable[Interval]) -> "RepClass":
        return cls.from_pairs((u, 1) for u in copies)

    @classmethod
    def empty(cls) -> "RepClass":
        return cls(())

    def copies(self) -> tuple[Interval, ...]:
        return tuple(u for u, k in self.pairs for _ in range(k))

    def mult(self, u: Interval) -> int:
        return next((k for v, k in self.pairs if v == u), 0)

    def intervals(self) -> tuple[Interval, ...]:
        return tuple(u for u, _ in self.pairs)

    def dim(self, n: int) -> tuple[int, ...]:
        d = [0] * n
        for u, k in self.pairs:
            for v in range(u.a, u.b + 1):
                d[v - 1] += k
        return tuple(d)

    def union(self, other: "RepClass") -> "RepClass":
        return RepClass.from_pairs(self.pairs + other.pairs)

    def difference(self, other: "RepClass") -> "RepClass":
        """Multiset difference; other must be contained in self."""
        acc = dict(self.pairs)
        for u, k in other.pairs:
            have = acc.get(u, 0)
            if have < k:
                raise ValueError(f"{other} is not a sub-multiset of {self}")
            if have == k:
                del acc[u]
            else:
                acc[u] = have - k
        return RepClass(tuple(sorted(acc.items())))

    def intersection(self, other: "RepClass") -> "RepClass":
        acc = []
        for u, k in self.pairs:
            j = min(k, other.mult(u))
            if j:
                acc.append((u, j))
        return RepClass(tuple(acc))

    def remove_one(self, u: Interval) -> "RepClass":
        return self.difference(RepClass(((u, 1),)))

    def text(self) -> str:
        terms = []
        for u, k in self.pairs:
            terms.append(str(u) if k == 1 else f"{u}x{k}")
        return ",".join(terms)

    def __str__(self) -> str:
        return self.text() or "0"


def intervals_of(q: TypeAQuiver) -> tuple[Interval, ...]:
    """All n(n+1)/2 intervals in lexicographic order of (a, b)."""
    return _intervals_of(q.n)


@cache
def _intervals_of(n: int) -> tuple[Interval, ...]:
    return tuple(Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1))


def vec_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise difference; rejects any negative component."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"negative component in {a} - {b}")
    return out


def vec_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return all(x <= y for x, y in zip(a, b))


def vec_boxes(d: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All vectors 0 <= e <= d componentwise, in lexicographic order."""
    out: list[tuple[int, ...]] = [()]
    for bound in d:
        out = [v + (x,) for v in out for x in range(bound + 1)]
    return tuple(out)


def enumerate_rep_classes(q: TypeAQuiver, d: tuple[int, ...]) -> tuple[RepClass, ...]:
    """All multisets of intervals with total dimension vector d, canonically sorted.

    The walk takes intervals in (a, b) order and multiplicities 1..cap before
    0, which is `pairs` order.  [a, n] is the last interval containing vertex
    a, so its multiplicity is forced to what is left at a.
    """
    if len(d) != q.n:
        raise ValueError("dimension vector length mismatch")
    if any(x < 0 for x in d):
        raise ValueError("dimension vector must be non-negative")
    intervals = intervals_of(q)
    found: list[RepClass] = []

    def walk(idx: int, remaining: tuple[int, ...], chosen: list[tuple[Interval, int]]) -> None:
        if not any(remaining):
            found.append(RepClass(tuple(chosen)))
            return
        u = intervals[idx]
        cap = min(remaining[u.a - 1 : u.b])
        if u.b < q.n:
            choices = (*range(1, cap + 1), 0)
        else:
            choices = (cap,) if remaining[u.a - 1] == cap else ()
        for k in choices:
            rem = list(remaining)
            for v in range(u.a, u.b + 1):
                rem[v - 1] -= k
            walk(idx + 1, tuple(rem), chosen + [(u, k)] if k else chosen)
    walk(0, d, [])
    return tuple(found)


def semisimple_class(q: TypeAQuiver, d: tuple[int, ...]) -> RepClass:
    if len(d) != q.n:
        raise ValueError("dimension vector length mismatch")
    return RepClass.from_pairs((Interval(v, v), d[v - 1]) for v in range(1, q.n + 1) if d[v - 1])


class ExplicitRep(namedtuple("ExplicitRep", "quiver dims mats")):
    """Concrete matrices realizing a representation; mats[k] maps along edge k."""

    __slots__ = ()

    def __new__(cls, quiver: TypeAQuiver, dims: tuple[int, ...], mats: tuple[Mat, ...]) -> "ExplicitRep":
        if len(dims) != quiver.n or any(x < 0 for x in dims):
            raise ValueError("bad dimension vector")
        if len(mats) != quiver.n - 1:
            raise ValueError("one matrix per edge required")
        for k, mat in enumerate(mats):
            s, t = quiver.edge(k)
            if (mat.nrows, mat.ncols) != (dims[t - 1], dims[s - 1]):
                raise ValueError(
                    f"edge {k}: expected {dims[t-1]}x{dims[s-1]}, got {mat.nrows}x{mat.ncols}"
                )
        return tuple.__new__(cls, (quiver, dims, mats))


@cache
def explicit_of(q: TypeAQuiver, m: RepClass) -> ExplicitRep:
    """Block-diagonal matrices for the class, one block per summand copy.

    The basis at each vertex lists the copies containing it in canonical
    (sorted) order, so equal inputs give identical matrices.
    """
    copies = m.copies()
    dims = m.dim(q.n)
    pos: list[dict[int, int]] = [dict() for _ in range(q.n)]
    for c, u in enumerate(copies):
        for v in range(u.a, u.b + 1):
            pos[v - 1][c] = len(pos[v - 1])
    mats = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        rows = [[0] * dims[s - 1] for _ in range(dims[t - 1])]
        for c, u in enumerate(copies):
            if u.contains(s) and u.contains(t):
                rows[pos[t - 1][c]][pos[s - 1][c]] = 1
        # 0 and 1 are already in normal form: no coercion per entry
        mats.append(Mat(dims[t - 1], dims[s - 1], tuple(map(tuple, rows))))
    return ExplicitRep(q, dims, tuple(mats))


def reachable_interval(q: TypeAQuiver, i: int, follow_arrows: bool) -> Interval:
    """Vertices reachable from i along arrows (projective support) or against
    them (injective support); always an interval in type A."""
    lo = hi = i
    while hi < q.n and (q.orient[hi - 1] == FORWARD) == follow_arrows:
        hi += 1
    while lo > 1 and (q.orient[lo - 2] == BACKWARD) == follow_arrows:
        lo -= 1
    return Interval(lo, hi)


def projective_intervals(q: TypeAQuiver) -> tuple[Interval, ...]:
    return tuple(reachable_interval(q, i, follow_arrows=True) for i in range(1, q.n + 1))


def injective_intervals(q: TypeAQuiver) -> tuple[Interval, ...]:
    return tuple(reachable_interval(q, i, follow_arrows=False) for i in range(1, q.n + 1))
