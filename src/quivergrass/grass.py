"""Betti numbers of quiver Grassmannians, by two independent routes.

Route one is a stratification recursion: peel off a summand S with
Ext^1(S, rest) = 0; the subrepresentations of rest + S of dimension e fiber
over pairs (A, B) of subrepresentations of the two factors, with affine
fibers of dimension <dim B, dim rest - dim A>.  S is an interval module, so
each B is a point fixed by its dimension vector g, and
P(m, e) = sum over g of q^<g, dim rest - (e - g)> P(rest, e - g).  The
peeled S is the least summand interval with no extension into the others
(peel_summand), or the largest when the reverse direction is asked for.  The
recursion builds whole tables (betti_table): the table of m over a box
lo <= e <= hi is one twisted convolution of the table of rest over the box
max(0, lo - dim S) <= f <= min(hi, dim rest) with the sub vectors g of S.
Tables are memoised per (class, box, direction); a full box shares one entry
per class, and betti_recursion reads a single e from the box [e, e].  The
zero class is the only base case (a point at e = 0, empty elsewhere).
Route two is an oracle: count subrepresentations over several prime fields,
then interpolate the counting polynomial (Grassmannians here are paved by
affine cells, so the count is a polynomial in the field size whose
coefficients are the even Betti numbers), with Newton divided differences
on integers, every division exact.  The count splits the vertices into runs
linked by arrows whose condition bites.  A run of two vertices is counted
in closed form, by the dimension in which the source subspace meets the
arrow's kernel; a longer run enumerates subspaces in reduced row echelon
form at the vertices of one parity class only, and counts each vertex of
the other class in closed form from its neighbours.

The strata table quantifies a minimal degeneration m -> n: splitting
subspaces by their intersection with X = x1 + x_rest and by whether the
induced extension class vanishes (i = 0) or not (i = 1) partitions the
Grassmannian of n, the i = 0 part alone accounting for m.  Only the splits
f + g = e with f <= dim X and g <= dim S can be nonzero, so only these
support pairs are computed; every other split is a zero record.  One walk
(_strata_terms) visits the support pairs with f + g in a box, reading the
Betti numbers of the four classes from one Betti table each and applying
one per-pair rule (_stratum_rule).  The i = 1 sums over any box
(strata_kernel_table) serve every cover check; the records of a single e
(strata_table) walk the box [e, e] and pad the other splits with zeros.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from operator import add, le, mul, sub
from types import MappingProxyType

from .degen import BongartzData, boundary_check
from .homalg import euler_form, ext_intervals
from .quiver import (
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    explicit_of,
    vec_boxes,
    vec_leq,
    vec_sub,
)

MAX_PRIME = 10007
DEFAULT_ENUM_BUDGET = 5_000_000
# strata_table emits two records per split f + g = e, f <= e: at most this many splits
STRATA_SPLIT_BUDGET = 100_000


@dataclass(frozen=True)
class PoincarePoly:
    """Polynomial in q; coefficient k is the 2k-th Betti number."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "PoincarePoly":
        """The polynomial with these int coefficients, trailing zeros trimmed."""
        data = tuple(coeffs)
        end = len(data)
        while end and not data[end - 1]:
            end -= 1
        return cls(data[:end])

    @classmethod
    def zero(cls) -> "PoincarePoly":
        return cls(())

    @classmethod
    def one(cls) -> "PoincarePoly":
        return cls((1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _padded(self, other: "PoincarePoly") -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both coefficient tuples, the shorter padded with zeros to the longer."""
        a, b = self.coeffs, other.coeffs
        return a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))

    def __add__(self, other: "PoincarePoly") -> "PoincarePoly":
        return PoincarePoly.from_coeffs(map(add, *self._padded(other)))

    def __sub__(self, other: "PoincarePoly") -> "PoincarePoly":
        return PoincarePoly.from_coeffs(map(sub, *self._padded(other)))

    def __mul__(self, other: "PoincarePoly") -> "PoincarePoly":
        if not self or not other:
            return PoincarePoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return PoincarePoly.from_coeffs(out)

    def shift(self, k: int) -> "PoincarePoly":
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self:
            return self
        return PoincarePoly((0,) * k + self.coeffs)

    def eval_at(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def leq(self, other: "PoincarePoly") -> bool:
        """Coefficientwise comparison."""
        return all(map(le, *self._padded(other)))

    def is_nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                q = "q" if k == 1 else f"q^{k}"
                terms.append(q if c == 1 else f"-{q}" if c == -1 else f"{c}{q}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __str__(self) -> str:
        return self.pretty()


@cache
def gaussian_binomial(n: int, k: int) -> PoincarePoly:
    """q-binomial coefficient: Poincare polynomial of the Grassmannian Gr(k, n)."""
    if k < 0 or k > n:
        return PoincarePoly.zero()
    if k == 0 or k == n:
        return PoincarePoly.one()
    return gaussian_binomial(n - 1, k - 1) + gaussian_binomial(n - 1, k).shift(k)


def gr_interval(q: TypeAQuiver, u: Interval, e: tuple[int, ...]) -> PoincarePoly:
    """Grassmannian of an interval module: a point or empty.

    Nonempty exactly when e is a 0/1 vector supported inside [a, b] and
    closed under the arrows interior to the interval.
    """
    if len(e) != q.n:
        raise ValueError("dimension vector length mismatch")
    if any(x not in (0, 1) for x in e):
        return PoincarePoly.zero()
    support = {v for v in range(1, q.n + 1) if e[v - 1]}
    if any(not u.contains(v) for v in support):
        return PoincarePoly.zero()
    for k in range(u.a - 1, u.b - 1):
        s, t = q.edge(k)
        if s in support and t not in support:
            return PoincarePoly.zero()
    return PoincarePoly.one()


@cache
def peel_summand(q: TypeAQuiver, m: RepClass, reverse: bool = False) -> Interval:
    """The least summand interval with no Ext^1 into any other summand interval.

    The largest such interval when reverse is set.  Type A has no extension
    cycles, so one always exists for a nonzero class.
    """
    intervals = m.intervals()
    for u in reversed(intervals) if reverse else intervals:
        if not any(v != u and ext_intervals(q, u, v) for v in intervals):
            return u
    raise InternalCheckError(f"extension cycle among summands of {m}")


def betti_recursion(q: TypeAQuiver, m: RepClass, e: tuple[int, ...], *, reverse_peel: bool = False) -> PoincarePoly:
    """Poincare polynomial of the quiver Grassmannian of m at e, by peeling.

    Entry e of betti_table over the one-point box [e, e]; use betti_table
    itself for many e.  Zero when some entry of e is negative or exceeds
    dim m.  reverse_peel peels the largest admissible summand instead, which
    must give the same answer.
    """
    if len(e) != q.n:
        raise ValueError("dimension vector length mismatch")
    return betti_table(q, m, e, e, reverse_peel=reverse_peel)[e]


def betti_table(
    q: TypeAQuiver,
    m: RepClass,
    lo: tuple[int, ...] | None = None,
    hi: tuple[int, ...] | None = None,
    *,
    reverse_peel: bool = False,
) -> Mapping[tuple[int, ...], PoincarePoly]:
    """Poincare polynomials of the quiver Grassmannians of m at every lo <= e <= hi.

    The box defaults to 0 <= e <= dim m.  Keys run in lexicographic order,
    zeros included; an entry outside 0 <= e <= dim m is 0.  Each peeled
    summand copy S = peel_summand(q, m) (the largest with reverse_peel, which
    must give the same table) costs one twisted convolution over the table of
    rest = m - S on the box max(0, lo - dim S) <= f <= min(hi, dim rest).
    Tables are memoised per (class, box, direction); the full box of m asks
    for the full box of rest, so full tables keep one entry per class.  The
    peel nests one call per summand copy, so a class with more copies than
    the interpreter's recursion limit allows is a ValueError.
    """
    lo = (0,) * q.n if lo is None else tuple(lo)
    hi = m.dim(q.n) if hi is None else tuple(hi)
    if len(lo) != q.n or len(hi) != q.n:
        raise ValueError("dimension vector length mismatch")
    check_peel_depth(q, m, lo, hi)
    try:
        return _betti_table(q, m, lo, hi, reverse_peel)
    except RecursionError:
        raise _too_deep(m) from None


def _too_deep(m: RepClass) -> ValueError:
    return ValueError(f"{sum(k for _, k in m.pairs)} summand copies nest the peeling recursion too deep")


def check_peel_depth(q: TypeAQuiver, m: RepClass, lo: tuple[int, ...], hi: tuple[int, ...]) -> None:
    """Refuse, before any work, a box of m whose peel cannot finish.

    A box that meets 0 <= e <= dim m keeps meeting it at every peel level,
    so its peel nests one call per summand copy and cannot finish with more
    copies than the interpreter's recursion limit.  The ValueError is the
    one betti_table raises when fewer copies still nest too deep.
    """
    meets = all(0 <= b and a <= min(b, x) for a, b, x in zip(lo, hi, m.dim(q.n)))
    if meets and sum(k for _, k in m.pairs) > sys.getrecursionlimit():
        raise _too_deep(m)


@cache
def _peel_terms(q: TypeAQuiver, u: Interval) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(g, w) for every subrepresentation dimension vector g of the interval
    module u, where w_v = <g, unit vector at v>, so <g, x> = w . x."""
    units = [tuple(int(v == w) for w in range(q.n)) for v in range(q.n)]
    return tuple(
        (g, tuple(euler_form(q, g, unit) for unit in units))
        for g in vec_boxes(u.indicator(q.n))
        if gr_interval(q, u, g)
    )


@cache
def _betti_table(
    q: TypeAQuiver, m: RepClass, lo: tuple[int, ...], hi: tuple[int, ...], reverse: bool
) -> Mapping[tuple[int, ...], PoincarePoly]:
    """betti_table on the box [lo, hi], as an immutable mapping.

    Peeling S off m, the subrepresentations of dimension e fiber over pairs
    (f, g), f + g = e, of a subrepresentation of rest and a sub vector g of
    S, with affine fibers of dimension <g, dim rest - f>.  By bilinearity
    that exponent is w . dim rest - w . f for the linear form w of g
    (_peel_terms).  Coefficients are summed in int lists; every
    rest entry is nonnegative with a nonzero top coefficient, so each row
    is already a normalised polynomial.
    """
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    zero = PoincarePoly.zero()
    if not m.pairs:
        return MappingProxyType({e: zero if any(e) else PoincarePoly.one() for e in box})
    acc: dict[tuple[int, ...], list[int]] = {}
    quot = peel_summand(q, m, reverse)
    rest = m.remove_one(quot)
    d_rest = rest.dim(q.n)
    rest_lo = tuple(max(0, a - p) for a, p in zip(lo, quot.indicator(q.n)))
    rest_hi = tuple(min(b, r) for b, r in zip(hi, d_rest))
    if all(a <= b for a, b in zip(lo, hi)) and all(a <= b for a, b in zip(rest_lo, rest_hi)):
        rest_table = _betti_table(q, rest, rest_lo, rest_hi, reverse)
        for g, weights in _peel_terms(q, quot):
            base = sum(map(mul, weights, d_rest))
            # the f of the rest box with lo <= f + g <= hi
            f_box = (
                range(max(a, c - x), min(b, d - x) + 1) for a, b, c, d, x in zip(rest_lo, rest_hi, lo, hi, g)
            )
            for f in itertools.product(*f_box):
                coeffs = rest_table[f].coeffs
                if not coeffs:
                    continue
                e = tuple(map(add, f, g))
                shift = base - sum(map(mul, weights, f))
                if shift < 0:
                    raise InternalCheckError(f"negative fiber dimension peeling {quot} from {m} at e={e}")
                end = shift + len(coeffs)
                row = acc.get(e)
                if row is None:
                    acc[e] = [0] * shift + list(coeffs)
                    continue
                if len(row) < end:
                    row.extend([0] * (end - len(row)))
                row[shift:end] = map(add, row[shift:end], coeffs)
    return MappingProxyType({e: PoincarePoly(tuple(acc[e])) if e in acc else zero for e in box})


# ---------------------------------------------------------------------------
# finite-field point counting


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def first_primes(k: int) -> tuple[int, ...]:
    out = []
    p = 2
    while len(out) < k:
        if _is_prime(p):
            out.append(p)
        p += 1
    return tuple(out)


@cache
def _subspaces(ambient: int, k: int, p: int):
    """All k-dimensional subspaces of F_p^ambient as (rref rows, pivot cols)."""
    if k < 0 or k > ambient:
        return ()
    out = []
    for pivots in itertools.combinations(range(ambient), k):
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, ambient) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * ambient for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            out.append((tuple(tuple(row) for row in rows), pivots))
    return tuple(out)


def _mat_mod(mat, p: int):
    return tuple(tuple(int(x) % p for x in row) for row in mat.rows)


def _apply(mat_rows, vec, p: int) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in mat_rows]


def _rank_mod(vectors, p: int) -> int:
    """Rank over F_p of equal-length vectors with entries already reduced mod p."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            coef = rows[i][c]
            if coef:
                rows[i] = [(x - coef * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _segments(q: TypeAQuiver, m: RepClass, d, e) -> list[list[int]]:
    """Split vertices 1..n into runs linked by arrows whose condition bites.

    An arrow bites when some summand interval spans it (its matrix is then
    nonzero), e is nonzero at its source and e falls short of d at its target.
    """
    segments = [[1]]
    for v in range(2, q.n + 1):
        s, t = q.edge(v - 2)
        if e[s - 1] > 0 and e[t - 1] < d[t - 1] and any(u.a < v <= u.b for u in m.intervals()):
            segments[-1].append(v)
        else:
            segments.append([v])
    return segments


def _gr(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n; 0 unless 0 <= k <= n."""
    return gaussian_binomial(n, k).eval_at(p)


def _pair_count(d_s: int, e_s: int, d_t: int, e_t: int, rank: int, p: int) -> int:
    """Pairs (W, U) of subspaces of F_p^d_s, F_p^d_t of dimensions e_s, e_t with A W <= U.

    A has the given rank, so K = ker A has dimension k = d_s - rank.  An
    e_s-subspace W meets K in dimension j for p^((k-j)(e_s-j)) [k, j]_p
    [d_s-k, e_s-j]_p choices of W; then A W has dimension r = e_s - j, and
    the U containing it form Gr(e_t - r, d_t - r).
    """
    k = d_s - rank
    total = 0
    for j in range(max(0, e_s - rank), min(k, e_s) + 1):
        r = e_s - j
        total += p ** ((k - j) * r) * _gr(k, j, p) * _gr(rank, r, p) * _gr(d_t - r, e_t - r, p)
    return total


def _face(q: TypeAQuiver, mats, u: int, v: int, rows, pivots, p: int):
    """What the subspace (rows, pivots) at u asks of its neighbour v.

    Returns (images, image rank, constraints, constraint rank), one pair
    empty.  For an arrow u -> v with matrix A the images span A U, which
    the subspace at v must contain; for an arrow v -> u the constraints are
    y A for the rows y cutting out U (one per column of U's echelon form
    without a pivot), whose common kernel is the preimage of U, in which the
    subspace at v must lie.
    """
    k = min(u, v) - 1
    if q.edge(k)[0] == u:
        images = [_apply(mats[k], row, p) for row in rows]
        return images, _rank_mod(images, p), [], 0
    columns, width = tuple(zip(*mats[k])), len(mats[k])
    constraints = []
    for c in range(width):
        if c not in pivots:
            y = [0] * width
            y[c] = 1
            for row, pivot in zip(rows, pivots):
                y[pivot] = -row[c] % p
            constraints.append(_apply(columns, y, p))
    return [], 0, constraints, _rank_mod(constraints, p)


def _between(d_v: int, e_v: int, faces, p: int) -> int:
    """Admissible e_v-subspaces at a closed-form vertex v, given its enumerated neighbours.

    L is the span of the images of the faces and H the common kernel of
    their constraints (_face); the subspaces U with L <= U <= H form
    Gr(e_v - dim L, dim H - dim L) when L <= H, and there are none otherwise.
    """
    if len(faces) == 1:
        ((_, low, _, cut),) = faces
    else:
        (images1, low1, cons1, cut1), (images2, low2, cons2, cut2) = faces
        images, constraints = images1 + images2, cons1 + cons2
        if any(sum(map(mul, y, x)) % p for y in constraints for x in images):
            return 0
        low = low1 if not images2 else low2 if not images1 else _rank_mod(images, p)
        cut = cut1 if not cons2 else cut2 if not cons1 else _rank_mod(constraints, p)
    return _gr(d_v - cut - low, e_v - low, p)


def _run_count(q: TypeAQuiver, mats, run: list[int], d, e, p: int) -> int:
    """Admissible subspace tuples on a run of three or more linked vertices.

    Adjacent vertices of the run lie in different parity classes, so once
    the subspaces of one class are fixed, each vertex of the other class is
    counted in closed form from its one or two neighbours (_between).  The
    class enumerated is the one listing fewer subspaces and pairs of
    consecutive ones; weights are carried along it in run order.
    """
    sizes = [_gr(d[v - 1], e[v - 1], p) for v in run]
    start = min((0, 1), key=lambda i: sum(sizes[i::2]) + sum(map(mul, sizes[i::2], sizes[i + 2 :: 2])))
    weights = ahead = None
    for i in range(start, len(run), 2):
        u = run[i]
        spaces = _subspaces(d[u - 1], e[u - 1], p)
        if i == 0:
            weights = [1] * len(spaces)
        else:
            # run[i - 1] is counted in closed form from u and, inside the run, the vertex before it
            v = run[i - 1]
            behind = [_face(q, mats, u, v, rows, pivots, p) for rows, pivots in spaces]
            if weights is None:
                weights = [_between(d[v - 1], e[v - 1], (f,), p) for f in behind]
            else:
                weights = [
                    sum(w * _between(d[v - 1], e[v - 1], (a, f), p) for w, a in zip(weights, ahead) if w)
                    for f in behind
                ]
        if i + 1 < len(run):
            v = run[i + 1]
            ahead = [_face(q, mats, u, v, rows, pivots, p) if w else None for w, (rows, pivots) in zip(weights, spaces)]
    if i + 1 < len(run):
        # the run ends on a closed-form vertex after the last enumerated one
        return sum(w * _between(d[v - 1], e[v - 1], (a,), p) for w, a in zip(weights, ahead) if w)
    return sum(weights)


def point_count(q: TypeAQuiver, m: RepClass, e: tuple[int, ...], p: int) -> int:
    """Number of subrepresentation tuples of m over F_p with dimensions e.

    Runs of vertices linked by biting arrows are independent, so the count
    is a product over runs.  A single vertex contributes Gr(e_v, d_v).  A
    run of two vertices s -> t enumerates nothing: its arrow's matrix has
    rank the number of summand copies spanning it, and _pair_count sums
    over the dimension in which the e_s-subspace meets the kernel.  A longer
    run enumerates the subspaces, in reduced row echelon form, of one parity
    class of its vertices and counts every vertex of the other class in
    closed form from its neighbours (_run_count): the subspaces U at v
    contain the span L of the images arriving from them and lie in the
    intersection H of the preimages under v's out-arrows, which leaves
    Gr(e_v - dim L, dim H - dim L) when L <= H and nothing otherwise.
    """
    if not _is_prime(p) or p > MAX_PRIME:
        raise ValueError(f"p must be a prime at most {MAX_PRIME}")
    if len(e) != q.n:
        raise ValueError("dimension vector length mismatch")
    d = m.dim(q.n)
    if any(x < 0 for x in e) or not vec_leq(e, d):
        return 0
    runs = _segments(q, m, d, e)
    mats = [_mat_mod(mat, p) for mat in explicit_of(q, m).mats] if any(len(run) > 2 for run in runs) else None
    total = 1
    for run in runs:
        if len(run) == 1:
            (v,) = run
            total *= _gr(d[v - 1], e[v - 1], p)
        elif len(run) == 2:
            s, t = q.edge(run[0] - 1)
            rank = sum(k for u, k in m.pairs if u.a <= run[0] and run[1] <= u.b)
            total *= _pair_count(d[s - 1], e[s - 1], d[t - 1], e[t - 1], rank, p)
        else:
            total *= _run_count(q, mats, run, d, e, p)
        if not total:
            return 0
    return total


def _enum_cost(q: TypeAQuiver, m: RepClass, e: tuple[int, ...], p: int) -> int:
    d = m.dim(q.n)
    cost = 0
    for segment in _segments(q, m, d, e):
        if len(segment) == 1:
            continue
        sizes = [gaussian_binomial(d[v - 1], e[v - 1]).eval_at(p) for v in segment]
        cost += sum(sizes) + sum(a * b for a, b in zip(sizes, sizes[1:]))
    return cost


def _interpolate(points: list[tuple[int, int]]) -> list[int] | None:
    """Integer coefficients of the polynomial of degree < len(points) through points.

    Newton divided differences, then the Newton form expanded by Horner's
    rule.  For an integer polynomial at distinct integer nodes every divided
    difference is an integer, so each division is exact; None when one is
    not, that is when the interpolating polynomial has a non-integer
    coefficient.
    """
    xs = [x for x, _ in points]
    diffs = [y for _, y in points]
    for k in range(1, len(points)):
        for i in range(len(points) - 1, k - 1, -1):
            quot, rem = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - k])
            if rem:
                return None
            diffs[i] = quot
    coeffs: list[int] = []
    for x, c in zip(reversed(xs), reversed(diffs)):
        # coeffs * (X - x) + c
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= x * coeffs[k + 1]
        coeffs[0] += c
    return coeffs


def betti_oracle(
    q: TypeAQuiver,
    m: RepClass,
    e: tuple[int, ...],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> PoincarePoly:
    """Betti numbers by point counting over prime fields and interpolation.

    Counts at the first D+1 primes where D bounds the Grassmannian dimension,
    interpolates exactly, and cross-checks one further prime.  A non-integral
    or negative coefficient, or a witness mismatch, aborts loudly: it would
    mean the count is not the even-Betti-number polynomial.
    """
    if len(e) != q.n:
        raise ValueError("dimension vector length mismatch")
    d = m.dim(q.n)
    if any(x < 0 for x in e) or not vec_leq(e, d):
        return PoincarePoly.zero()
    bound = sum(x * (y - x) for x, y in zip(e, d))
    # _interpolate takes points^2 (points + 1) / 2 inner steps and explicit_of
    # fills sum_v d_v basis slots and d_s d_t entries per arrow; charged first,
    # they refuse a large bound or class before any primes or enumeration cost
    points = bound + 1
    cost = points * points * (points + 1) // 2 + sum(d)
    cost += sum(d[s - 1] * d[t - 1] for s, t in map(q.edge, range(q.n - 1)))
    if cost <= budget:
        primes = first_primes(bound + 2)
        cost += _enum_cost(q, m, e, primes[-1])
    if cost > budget:
        raise ValueError(f"oracle cost {cost} exceeds budget {budget}")
    values = [point_count(q, m, e, p) for p in primes]
    raw = _interpolate(list(zip(primes[: bound + 1], values[: bound + 1])))
    if raw is None or any(c < 0 for c in raw):
        found = "a non-integer coefficient" if raw is None else raw
        raise InternalCheckError(f"point counts of ({m}, e={e}) do not interpolate to Betti numbers: {found}")
    poly = PoincarePoly.from_coeffs(raw)
    if poly.eval_at(primes[-1]) != values[-1]:
        raise InternalCheckError(f"witness prime {primes[-1]} rejects the interpolation for ({m}, e={e})")
    return poly


# ---------------------------------------------------------------------------
# strata of a minimal degeneration


@dataclass(frozen=True)
class StratumRecord:
    """One stratum: subspaces meeting X in dimension f, with extension class i."""

    f: tuple[int, ...]
    g: tuple[int, ...]
    i: int
    shift: int
    base_poly: PoincarePoly


def _stratum_rule(q: TypeAQuiver, dim_x: tuple[int, ...], f, g, product: PoincarePoly, base1: PoincarePoly):
    """(base0, shift0, base1, shift1) of the split f + g, given P(X, f) P(S, g).

    The i = 0 base is the complement of the i = 1 base in the product and
    must be nonnegative; a nonzero stratum sits over an affine space of the
    Euler pairing's dimension, one more for i = 1, which must be nonnegative.
    Zero strata get shift 0.
    """
    base0 = product - base1
    if not base0.is_nonneg():
        raise InternalCheckError(f"stratum complement has a negative count at f={f}, g={g}: {base0}")
    shift0 = shift1 = 0
    if base0 or base1:
        pairing = euler_form(q, g, vec_sub(dim_x, f))
        if base0:
            shift0 = pairing
        if base1:
            shift1 = pairing + 1
        if shift0 < 0 or shift1 < 0:
            raise InternalCheckError(f"negative affine shift at f={f}, g={g}")
    return base0, shift0, base1, shift1


def _strata_terms(bd: BongartzData, lo: tuple[int, ...], hi: tuple[int, ...]):
    """Terms (f, g, base0, shift0, base1, shift1) of the support pairs with lo <= f + g <= hi.

    The support pairs are f <= dim X, g <= dim S, walked in lexicographic
    (f, g) order.  Outside them P(X, f) P(S, g) is 0, and so is the i = 1
    base: x_ker is a subrepresentation of X and s_im + s_quot has the
    dimension of S.  Each class is read from one Betti table over the part
    of the box it can reach, clamped to 0 <= . <= its dimension: X and x_ker
    at f, S at g, s_quot at g - dim s_im; a missing entry reads 0.  On the
    box [0, dim m] these are the full tables.  boundary_check runs once, at
    the start of the walk.
    """
    q = bd.quiver
    if len(lo) != q.n or len(hi) != q.n:
        raise ValueError("dimension vector length mismatch")
    boundary_check(bd)
    x_class, s_class = bd.x_class, bd.s_class
    dim_x, dim_s = x_class.dim(q.n), s_class.dim(q.n)
    s_vec = bd.s_im.dim(q.n)

    def table(c: RepClass, a, b) -> Mapping[tuple[int, ...], PoincarePoly]:
        a, b = tuple(max(0, x) for x in a), tuple(map(min, b, c.dim(q.n)))
        return betti_table(q, c, a, b) if vec_leq(a, b) else {}

    f_lo, f_hi = tuple(max(0, a - s) for a, s in zip(lo, dim_s)), tuple(map(min, hi, dim_x))
    g_lo, g_hi = tuple(max(0, a - x) for a, x in zip(lo, dim_x)), tuple(map(min, hi, dim_s))
    p_x, p_ker = table(x_class, f_lo, f_hi), table(bd.x_ker, f_lo, f_hi)
    p_quot = table(bd.s_quot, tuple(map(sub, g_lo, s_vec)), tuple(map(sub, g_hi, s_vec)))
    p_s = table(s_class, g_lo, g_hi)
    zero = PoincarePoly.zero()
    # P(S, g) with the s_quot factor at g - dim s_im, looked up once per g
    s_terms = {g: (pg, p_quot.get(tuple(map(sub, g, s_vec)), zero)) for g, pg in p_s.items()}
    for f, pf in p_x.items():
        ker_f = p_ker.get(f, zero)
        g_box = (range(max(a, c - x), min(b, d - x) + 1) for a, b, c, d, x in zip(g_lo, g_hi, lo, hi, f))
        for g in itertools.product(*g_box):
            pg, quot_g = s_terms[g]
            yield (f, g) + _stratum_rule(q, dim_x, f, g, pf * pg, ker_f * quot_g)


def strata_table(bd: BongartzData, e: tuple[int, ...]) -> tuple[StratumRecord, ...]:
    """Stratum records of the degeneration bd at subdimension e.

    For every split f + g = e: the i = 1 stratum sits over
    Gr_f(x_ker) x Gr_{g - dim s_im}(s_quot) with an affine shift one higher
    than the Euler pairing; the i = 0 stratum covers the complement in
    Gr_f(X) x Gr_g(S).  The support pairs come from the strata walk
    (_strata_terms) over the box [e, e]; every other split gets two zero
    records.  Zero strata are emitted with shift normalized to 0.  More than
    STRATA_SPLIT_BUDGET splits is a ValueError, raised before any table.
    """
    splits = math.prod(max(0, x + 1) for x in e)
    if splits > STRATA_SPLIT_BUDGET:
        raise ValueError(f"strata split count {splits} exceeds budget {STRATA_SPLIT_BUDGET}")
    terms = {term[0]: term for term in _strata_terms(bd, e, e)}
    zero = PoincarePoly.zero()
    records = []
    for f in itertools.product(*(range(x + 1) for x in e)):
        if f in terms:
            _, g, base0, shift0, base1, shift1 = terms[f]
            records.append(StratumRecord(f, g, 0, shift0, base0))
            records.append(StratumRecord(f, g, 1, shift1, base1))
        else:
            g = vec_sub(e, f)
            records.append(StratumRecord(f, g, 0, 0, zero))
            records.append(StratumRecord(f, g, 1, 0, zero))
    return tuple(records)


def strata_kernel_table(bd: BongartzData, lo=None, hi=None) -> dict[tuple[int, ...], PoincarePoly]:
    """The i = 1 sum of the strata table of bd at every lo <= e <= hi, keyed by e.

    The box defaults to 0 <= e <= dim m; keys run in lexicographic order,
    zeros included, as in betti_table.  Entry e equals
    strata_sum(strata_table(bd, e), 1): the strata walk (_strata_terms) over
    the box visits each support pair once, and its i = 1 term is added to
    e = f + g.
    """
    q = bd.quiver
    lo = (0,) * q.n if lo is None else tuple(lo)
    hi = tuple(map(add, bd.x_class.dim(q.n), bd.s_class.dim(q.n))) if hi is None else tuple(hi)
    zero = PoincarePoly.zero()
    kernels = dict.fromkeys(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))), zero)
    for f, g, _, _, base1, shift1 in _strata_terms(bd, lo, hi):
        if base1:
            e = tuple(map(add, f, g))
            kernels[e] = kernels[e] + base1.shift(shift1)
    return kernels


def strata_sum(records: tuple[StratumRecord, ...], which: int | None = None) -> PoincarePoly:
    """Sum q^shift * base over the records, optionally filtered by i."""
    total = PoincarePoly.zero()
    for rec in records:
        if which is not None and rec.i != which:
            continue
        if rec.base_poly:
            total = total + rec.base_poly.shift(rec.shift)
    return total
