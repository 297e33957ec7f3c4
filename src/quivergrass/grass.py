"""Betti numbers of quiver Grassmannians, by two independent routes.

Route one is a stratification recursion: peel off a summand S with
Ext^1(S, rest) = 0; the subrepresentations of rest + S of dimension e fiber
over pairs (A, B) of subrepresentations of the two factors, with affine
fibers of dimension <dim B, dim rest - dim A>.  S is an interval module, so
each B is a point fixed by its dimension vector g, and
P(m, e) = sum over g of q^<g, dim rest - (e - g)> P(rest, e - g).  The
peeled S is the largest summand interval with no extension into the others
(peel_summand with reverse set); reverse_peel peels the least one instead,
as a cross-check that must give the same tables.  The recursion builds
whole tables: the table of m over a box lo <= e <= hi is one twisted
convolution of the table of rest over the box
max(0, lo - dim S) <= f <= min(hi, dim rest) with the sub vectors g of S.
Tables are memoised per (class, box, direction, slot width) and hold only
their nonzero entries; a full box shares one entry per class, and
betti_recursion reads a single e from the box [e, e].  The zero class is
the only base case (a point at e = 0, empty elsewhere).
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

Inside the recursion, the strata walk and the cover checks a polynomial
sum c_k q^k is packed into the one int sum c_k 2^(w k) (Kronecker
substitution): a sum of polynomials is an int sum, a twist by q^s is a
shift by w s bits, a product is one int product, and equality is int
equality.  The slot width w is slot_width(d) = sum_v d_v + 2, rounded up
to a multiple of 8, for the dimension vector d that every class of one
sweep or chain shares; it is part of every memo key.  It fits, without
the theorem under test: one peel gives sum_e P(m, e)(1) =
|G(S)| sum_f P(rest, f)(1) with |G(S)| <= 2^(sum_v dim S_v) sub vectors,
so by induction from the zero class the coefficients of any table entry
sum to at most 2^(sum_v dim m_v).  The same holds for a strata product
P(X, f) P(S, g), since X + S has the dimension of m, and for both strata
sums at one e, because each i = 1 base is first checked to be
coefficientwise at most its product.  So every coefficient is below
2^(w - 1), and the top bit of each slot is a guard bit: a coefficientwise
a <= b is the one test ((b | H) - a) & H == H with H the guard bits
(packed_leq), and every addition into a table entry or a strata sum
checks that no guard bit is set, which raises InternalCheckError.  Guard
masks cover the slots up to the Grassmannian dimension
sum_v d_v^2 // 4, and a table entry past it raises as well.  This module
is the only one that sees a packed value: it unpacks (unpack) at its public
boundary, in betti_table, betti_recursion, the records of strata_table and
the kernels of cover_rows, and product_bound_rows returns verdicts only.

The strata table quantifies a minimal degeneration m -> n: splitting
subspaces by their intersection with X = x1 + x_rest and by whether the
induced extension class vanishes (i = 0) or not (i = 1) partitions the
Grassmannian of n, the i = 0 part alone accounting for m.  Only the splits
f + g = e with f in the support of P(X) or P(x_ker) and g in the support of
P(S) or P(s_quot) (shifted by dim s_im) can be nonzero, so only these
support pairs are computed; every other split is a zero record.  One walk
(_strata_terms) visits the support pairs with f + g in a box, reading the
packed Betti numbers of the four classes from one table each and applying
one per-pair rule (_stratum_rule).  The i = 1 and i = 0 sums over any box
(strata_sums) serve every cover check; the records of a single e
(strata_table) walk the box [e, e] and pad the other splits with zeros.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Mapping
from functools import cache
from operator import add, le, mul, sub
from types import MappingProxyType

from .degen import BongartzData, bongartz_data, boundary_check
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


class PoincarePoly:
    """Polynomial in q; coefficient k is the 2k-th Betti number.

    An immutable value with one slot, coeffs: equality, hashing and repr are
    those of coeffs.  It is no tuple, so that * is the polynomial product and
    3 * p and p < p raise TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of PoincarePoly")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of PoincarePoly")

    def __reduce__(self):
        return (PoincarePoly, (self.coeffs,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"PoincarePoly(coeffs={self.coeffs!r})"

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


def peel_summand(q: TypeAQuiver, m: RepClass, reverse: bool = False) -> Interval:
    """The least summand interval with no Ext^1 into any other summand interval.

    The largest such interval when reverse is set: the Betti recursion peels
    that one first, and the least one first only under reverse_peel, as its
    cross-check.  Type A has no extension cycles, so one always exists for a
    nonzero class.
    """
    intervals = m.intervals()
    for u in reversed(intervals) if reverse else intervals:
        if not any(v != u and ext_intervals(q, u, v) for v in intervals):
            return u
    raise InternalCheckError(f"extension cycle among summands of {m}")


# ---------------------------------------------------------------------------
# packed polynomials


def slot_width(d: tuple[int, ...]) -> int:
    """Bits per packed coefficient for the classes of dimension vector d.

    sum_v d_v + 2, rounded up to a multiple of 8: every coefficient of their
    Betti tables, strata products and strata sums is at most 2^(sum_v d_v)
    (module docstring), so it stays below the guard bit 2^(w - 1) of its slot.
    """
    return (sum(d) + 9) // 8 * 8


def guard_mask(w: int, d: tuple[int, ...]) -> int:
    """The guard bits of the slots 0 .. sum_v d_v^2 // 4 at slot width w.

    That bounds the dimension of every Grassmannian of a class of dimension
    d, and so the degree of its Betti polynomials, strata products and
    strata sums.  Built by repeating the bytes of one slot.
    """
    slots = sum(x * x // 4 for x in d) + 1
    return int.from_bytes((b"\x80" + bytes(w // 8 - 1)) * slots, "big")


def packed_leq(a: int, b: int, mask: int) -> bool:
    """Coefficientwise a <= b, for packed a, b >= 0 with every slot below its
    guard bit and b inside the slots of mask.

    Each slot of (b | guard bits) - a keeps its guard bit exactly when it
    does not borrow.  a <= b as ints is necessary, and keeps a inside the
    slots of mask.
    """
    return a <= b and ((b | mask) - a) & mask == mask


def pack(p: PoincarePoly, w: int) -> int:
    """p packed at slot width w, a multiple of 8.

    A coefficient outside [0, 2^(w - 1)), below its slot's guard bit,
    raises InternalCheckError.
    """
    if any(c >> (w - 1) for c in p.coeffs):
        raise InternalCheckError(f"packing {p} sets a guard bit at slot width {w}")
    step = w // 8
    return int.from_bytes(b"".join(c.to_bytes(step, "little") for c in p.coeffs), "little")


def unpack(v: int, w: int) -> PoincarePoly:
    """The polynomial packed as v >= 0 at slot width w, a multiple of 8.

    One to_bytes and one slice of w // 8 bytes per slot, so linear in the size.
    """
    if not v:
        return PoincarePoly.zero()
    step = w // 8
    raw = v.to_bytes((v.bit_length() + 7) // 8, "little")
    return PoincarePoly(tuple(int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)))


def _guard_error(what: str, e: tuple[int, ...], w: int) -> InternalCheckError:
    return InternalCheckError(f"{what} at e={e} sets a guard bit at slot width {w}")


# ---------------------------------------------------------------------------
# the peeling recursion


def betti_recursion(q: TypeAQuiver, m: RepClass, e: tuple[int, ...], *, reverse_peel: bool = False) -> PoincarePoly:
    """Poincare polynomial of the quiver Grassmannian of m at e, by peeling.

    Entry e of betti_table over the one-point box [e, e]; use betti_table
    itself for many e.  Zero when some entry of e is negative or exceeds
    dim m.  The largest admissible summand is peeled first; reverse_peel
    peels the least one first, which must give the same answer.
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
    zeros included; an entry outside 0 <= e <= dim m is 0.  The entries are
    those of packed_betti_table at the slot width of dim m, unpacked.  Each
    peeled summand copy S (the largest admissible one, or the least with
    reverse_peel, which must give the same table) costs one twisted
    convolution over the table of rest = m - S on the box
    max(0, lo - dim S) <= f <= min(hi, dim rest).  Tables are memoised per
    (class, box, direction, slot width); the full box of m asks for the full
    box of rest, so full tables keep one entry per class.  The peel nests one
    call per summand copy, so a class with more copies than the
    interpreter's recursion limit allows is a ValueError.
    """
    lo = (0,) * q.n if lo is None else tuple(lo)
    hi = m.dim(q.n) if hi is None else tuple(hi)
    if len(lo) != q.n or len(hi) != q.n:
        raise ValueError("dimension vector length mismatch")
    w = slot_width(m.dim(q.n))
    packed = packed_betti_table(q, m, lo, hi, w, reverse_peel=reverse_peel)
    zero = PoincarePoly.zero()
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return MappingProxyType({e: unpack(packed[e], w) if e in packed else zero for e in box})


def packed_betti_table(
    q: TypeAQuiver, m: RepClass, lo: tuple[int, ...], hi: tuple[int, ...], w: int, *, reverse_peel: bool = False
) -> Mapping[tuple[int, ...], int]:
    """The nonzero entries of betti_table(q, m, lo, hi), packed at slot width w.

    w is slot_width of the dimension vector that the classes of one sweep or
    chain share, so their tables share memo entries.  The peel depth is
    refused first, as in betti_table.
    """
    check_peel_depth(q, m, lo, hi)
    try:
        return _betti_table(q, m, lo, hi, not reverse_peel, w)
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


def _euler_columns(q: TypeAQuiver) -> tuple[tuple[int, ...], ...]:
    """Column u of the Euler form's matrix, <unit at v, unit at u> over v.

    The linear form of g, w_u = <g, unit at u> = g . column_u, gives
    <g, x> = w . x by bilinearity.  Row v is the linear form that
    _peel_terms lists for the unit vector of the simple interval at v.
    """
    rows = [_peel_terms(q, Interval(v, v))[-1][1] for v in range(1, q.n + 1)]
    return tuple(zip(*rows))


@cache
def _betti_table(
    q: TypeAQuiver, m: RepClass, lo: tuple[int, ...], hi: tuple[int, ...], largest: bool, w: int
) -> Mapping[tuple[int, ...], int]:
    """The nonzero entries of betti_table on the box [lo, hi], packed at slot width w.

    Peeling S off m (the largest admissible summand when largest is set, the
    least otherwise), the subrepresentations of dimension e fiber over pairs
    (f, g), f + g = e, of a subrepresentation of rest and a sub vector g of
    S, with affine fibers of dimension <g, dim rest - f>.  By bilinearity
    that exponent is w_g . dim rest - w_g . f for the linear form w_g of g
    (_peel_terms).  For each g the loop runs over the f of the rest box with
    lo <= f + g <= hi and adds the packed rest entry, shifted by that many
    slots, to entry f + g.  A negative fiber dimension, a guard bit set by
    any addition, or an entry past the slots of guard_mask raises
    InternalCheckError.
    """
    if not m.pairs:
        zero = (0,) * q.n
        return MappingProxyType({zero: 1} if vec_leq(lo, zero) and vec_leq(zero, hi) else {})
    acc: dict[tuple[int, ...], int] = {}
    quot = peel_summand(q, m, largest)
    rest = m.remove_one(quot)
    d_rest, d_quot = rest.dim(q.n), quot.indicator(q.n)
    rest_lo = tuple(max(0, a - p) for a, p in zip(lo, d_quot))
    rest_hi = tuple(min(b, r) for b, r in zip(hi, d_rest))
    if all(a <= b for a, b in zip(lo, hi)) and all(a <= b for a, b in zip(rest_lo, rest_hi)):
        rest_table = _betti_table(q, rest, rest_lo, rest_hi, largest, w)
        rest_entry = rest_table.get
        mask = guard_mask(w, tuple(map(add, d_rest, d_quot)))
        # with lo = rest_lo and rest_hi <= hi - dim S, for every g the f of the
        # rest box with lo <= f + g <= hi are all of it: walk the stored entries
        whole = lo == rest_lo and all(r <= b - p for r, b, p in zip(rest_hi, hi, d_quot))
        for g, weights in _peel_terms(q, quot):
            base = sum(map(mul, weights, d_rest))
            f_box = (range(max(a, c - x), min(b, d - x) + 1) for a, b, c, d, x in zip(rest_lo, rest_hi, lo, hi, g))
            for f in rest_table if whole else itertools.product(*f_box):
                value = rest_entry(f)
                if value is None:
                    continue
                e = tuple(map(add, f, g))
                shift = base - sum(map(mul, weights, f))
                if shift < 0:
                    raise InternalCheckError(f"negative fiber dimension peeling {quot} from {m} at e={e}")
                total = acc.get(e, 0) + (value << w * shift)
                if total & mask:
                    raise _guard_error(f"the Betti table of {m}", e, w)
                acc[e] = total
        if acc and max(acc.values()).bit_length() > mask.bit_length():
            raise InternalCheckError(f"the Betti table of {m} has a degree past its Grassmannian dimension bound")
    return MappingProxyType(acc)


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


class StratumRecord(namedtuple("StratumRecord", "f g i shift base_poly")):
    """One stratum: subspaces meeting X in dimension f, with extension class i."""

    __slots__ = ()


def _cover_dim(bd: BongartzData) -> tuple[int, ...]:
    """dim m = dim middle + dim common (= dim X + dim S) for the cover m -> n that bd decomposes."""
    q = bd.quiver
    return tuple(map(add, bd.middle.dim(q.n), bd.common.dim(q.n)))


def cover_slots(d: tuple[int, ...]) -> tuple[int, int]:
    """(slot_width(d), guard_mask of it): the packing of one cover check of dimension vector d."""
    w = slot_width(d)
    return w, guard_mask(w, d)


def _stratum_rule(f, g, product: int, base1: int, pairing: int, mask: int, w: int):
    """Packed (base0, shift0, base1, shift1) of the split f + g.

    product is P(X, f) P(S, g) and base1 the i = 1 base, packed at slot
    width w, and pairing is <g, dim X - f>.  The i = 0 base is the
    complement of the i = 1 base in the product and must be nonnegative,
    that is base1 <= product coefficientwise (packed_leq, inlined); a
    nonzero stratum sits over an affine space of the pairing's dimension,
    one more for i = 1, which must be nonnegative.  Zero strata get shift 0.
    """
    if base1 and (base1 > product or ((product | mask) - base1) & mask != mask):
        base0 = unpack(product, w) - unpack(base1, w)
        raise InternalCheckError(f"stratum complement has a negative count at f={f}, g={g}: {base0}")
    base0 = product - base1
    shift0 = shift1 = 0
    if base0 or base1:
        if base0:
            shift0 = pairing
        if base1:
            shift1 = pairing + 1
        if shift0 < 0 or shift1 < 0:
            raise InternalCheckError(f"negative affine shift at f={f}, g={g}")
    return base0, shift0, base1, shift1


def _strata_terms(bd: BongartzData, lo: tuple[int, ...], hi: tuple[int, ...], slots: tuple[int, int]):
    """Packed terms (f, g, base0, shift0, base1, shift1) of the support pairs with lo <= f + g <= hi.

    The support pairs are the f in the support of P(X) or P(x_ker) and the g
    in the support of P(S) or of P(s_quot) at g - dim s_im, walked in
    lexicographic (f, g) order: elsewhere both P(X, f) P(S, g) and the i = 1
    base P(x_ker, f) P(s_quot, g - dim s_im) are 0.  Each class is read from
    one packed Betti table over the part of the box it can reach, clamped to
    0 <= . <= its dimension, at the slot width of dim m = dim X + dim S;
    slots is cover_slots(dim m), computed once per cover by the caller.  For
    each f the walk runs over the g box lo - f <= g <= hi - f and skips the
    g outside the support.  The pairing <g, dim X - f> is read from the
    linear form of g (_euler_columns), formed once per g.  boundary_check
    runs once, at the start of the walk.
    """
    q = bd.quiver
    if len(lo) != q.n or len(hi) != q.n:
        raise ValueError("dimension vector length mismatch")
    boundary_check(bd)
    x_class, s_class = bd.x_class, bd.s_class
    dim_x, dim_s = x_class.dim(q.n), s_class.dim(q.n)
    s_vec = bd.s_im.dim(q.n)
    w, mask = slots

    def table(c: RepClass, a, b) -> Mapping[tuple[int, ...], int]:
        a, b = tuple(max(0, x) for x in a), tuple(map(min, b, c.dim(q.n)))
        return packed_betti_table(q, c, a, b, w) if vec_leq(a, b) else {}

    f_lo, f_hi = tuple(max(0, a - s) for a, s in zip(lo, dim_s)), tuple(map(min, hi, dim_x))
    g_lo, g_hi = tuple(max(0, a - x) for a, x in zip(lo, dim_x)), tuple(map(min, hi, dim_s))
    p_x, p_ker = table(x_class, f_lo, f_hi), table(bd.x_ker, f_lo, f_hi)
    p_quot = table(bd.s_quot, tuple(map(sub, g_lo, s_vec)), tuple(map(sub, g_hi, s_vec)))
    p_s = table(s_class, g_lo, g_hi)
    # per g: P(S, g), the s_quot factor at g - dim s_im, and the pairing as
    # <g, dim X> - w_g . f
    columns = _euler_columns(q)
    g_terms = {}
    for g in p_s.keys() | {tuple(map(add, h, s_vec)) for h in p_quot}:
        form = tuple(sum(map(mul, g, column)) for column in columns)
        g_terms[g] = (p_s.get(g, 0), p_quot.get(tuple(map(sub, g, s_vec)), 0), sum(map(mul, form, dim_x)), form)
    for f in sorted(p_x.keys() | p_ker.keys()):
        pf, ker_f = p_x.get(f, 0), p_ker.get(f, 0)
        g_box = (range(max(a, c - x), min(b, d - x) + 1) for a, b, c, d, x in zip(g_lo, g_hi, lo, hi, f))
        for g in itertools.product(*g_box):
            term = g_terms.get(g)
            if term is not None:
                pg, quot_g, base, form = term
                pairing = base - sum(map(mul, form, f))
                yield (f, g) + _stratum_rule(f, g, pf * pg, ker_f * quot_g, pairing, mask, w)


def check_split_count(e: tuple[int, ...]) -> None:
    """Refuse, before any work, a strata table at e with more than STRATA_SPLIT_BUDGET splits."""
    splits = math.prod(max(0, x + 1) for x in e)
    if splits > STRATA_SPLIT_BUDGET:
        raise ValueError(f"strata split count {splits} exceeds budget {STRATA_SPLIT_BUDGET}")


def strata_table(bd: BongartzData, e: tuple[int, ...]) -> tuple[StratumRecord, ...]:
    """Stratum records of the degeneration bd at subdimension e.

    For every split f + g = e: the i = 1 stratum sits over
    Gr_f(x_ker) x Gr_{g - dim s_im}(s_quot) with an affine shift one higher
    than the Euler pairing; the i = 0 stratum covers the complement in
    Gr_f(X) x Gr_g(S).  The support pairs come from the strata walk
    (_strata_terms) over the box [e, e], unpacked; every other split gets
    two zero records.  Zero strata are emitted with shift normalized to 0.
    More than STRATA_SPLIT_BUDGET splits is a ValueError, raised before any
    table (check_split_count).
    """
    check_split_count(e)
    slots = cover_slots(_cover_dim(bd))
    terms = {term[0]: term for term in _strata_terms(bd, e, e, slots)}
    w = slots[0]
    zero = PoincarePoly.zero()
    records = []
    for f in itertools.product(*(range(x + 1) for x in e)):
        if f in terms:
            _, g, base0, shift0, base1, shift1 = terms[f]
            records.append(StratumRecord(f, g, 0, shift0, unpack(base0, w)))
            records.append(StratumRecord(f, g, 1, shift1, unpack(base1, w)))
        else:
            g = vec_sub(e, f)
            records.append(StratumRecord(f, g, 0, 0, zero))
            records.append(StratumRecord(f, g, 1, 0, zero))
    return tuple(records)


def strata_sums(
    bd: BongartzData, lo: tuple[int, ...], hi: tuple[int, ...], slots: tuple[int, int]
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """The i = 1 and the i = 0 sums of the strata tables of bd at every lo <= e <= hi, packed.

    Nonzero entries only, at the slot width of dim m; slots is
    cover_slots(dim m), computed once per cover by the caller.  The strata
    walk (_strata_terms) visits each support pair once and adds q^shift1
    base1 to the i = 1 sum and q^shift0 base0 to the i = 0 sum of e = f + g;
    a guard bit set by any addition raises InternalCheckError.
    """
    w, mask = slots
    sums1: dict[tuple[int, ...], int] = {}
    sums0: dict[tuple[int, ...], int] = {}
    for f, g, base0, shift0, base1, shift1 in _strata_terms(bd, lo, hi, slots):
        e = tuple(map(add, f, g))
        for sums, term in ((sums1, base1 << w * shift1), (sums0, base0 << w * shift0)):
            if term:
                total = sums.get(e, 0) + term
                if total & mask:
                    raise _guard_error("a strata sum", e, w)
                sums[e] = total
    return sums1, sums0


def cover_rows(args) -> list[tuple[tuple[int, ...], PoincarePoly, bool, bool]]:
    """(e, kernel, monotone, identity_ok) of the cover m -> n at every lo <= e <= hi.

    kernel = P(n, e) - P(m, e), monotone is P(m, e) <= P(n, e), and
    identity_ok holds both strata identities: the kernel equals the i = 1
    strata sum and P(m, e) the i = 0 sum; rows run in lexicographic e order.
    The polynomials stay packed at the slot width of dim m: monotone is one
    packed_leq, and when it holds the identities are int equalities.  Only
    the kernel is unpacked, for the report; when monotone fails it is
    computed unpacked.  args is the picklable tuple (q, m, n, lo, hi), one
    pool task.
    """
    q, m, n, lo, hi = args
    lo, hi = tuple(lo), tuple(hi)
    slots = cover_slots(m.dim(q.n))
    w, mask = slots
    sums1, sums0 = strata_sums(bongartz_data(q, m, n), lo, hi, slots)
    table_m, table_n = packed_betti_table(q, m, lo, hi, w), packed_betti_table(q, n, lo, hi, w)
    out = []
    for e in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        p_m, p_n = table_m.get(e, 0), table_n.get(e, 0)
        zero_ok = p_m == sums0.get(e, 0)
        if packed_leq(p_m, p_n, mask):
            kernel = p_n - p_m
            out.append((e, unpack(kernel, w), True, zero_ok and kernel == sums1.get(e, 0)))
        else:
            kernel = unpack(p_n, w) - unpack(p_m, w)
            out.append((e, kernel, False, zero_ok and kernel == unpack(sums1.get(e, 0), w)))
    return out


def product_bound_rows(q: TypeAQuiver, d: tuple[int, ...], nodes: tuple[RepClass, ...]):
    """(node, e, within, exact) for every node of dimension d and every 0 <= e <= d.

    within is P(node, e) <= prod_v [d_v, e_v]_q, the product of ordinary
    Grassmannians, coefficientwise, and exact is equality.  The bounds are
    packed once, at the slot width of d, and each node is read from one full
    packed Betti table; rows run node by node, e in lexicographic order.
    """
    w, mask = cover_slots(d)
    es = vec_boxes(d)
    bounds = [math.prod(pack(gaussian_binomial(dv, ev), w) for dv, ev in zip(d, e)) for e in es]
    for node in nodes:
        table = packed_betti_table(q, node, (0,) * q.n, d, w)
        for e, bound in zip(es, bounds):
            value = table.get(e, 0)
            yield node, e, packed_leq(value, bound, mask), value == bound
