"""Degeneration order, minimal degenerations, and their Bongartz decompositions.

The degeneration order on classes of a fixed dimension vector is implemented
as the Hom order: m <= n iff [U, m] <= [U, n] for every interval U.  Every
minimal degeneration (cover) is a Bongartz move: a non-split extension
0 -> x1 -> Y1 -> s1 -> 0 of intervals with Ext^1(s1, x1) = 1 and Y1 a
sub-multiset of m, swapped for x1 + s1.  local_covers lists the covers of
one class from these moves alone; it is the one cover route, shared by
whole posets (degeneration_poset lists the local covers of every class) and
saturated chains (which never build a poset).  Every cover decomposes as
m = Y1 + common, n = x1 + s1 + common, and common splits as X' + S', S' the
least Ext-closed side, so that 0 -> x1 + X' -> m -> s1 + S' -> 0 generates
its Ext space; the boundary classes cut out the subspace pairs that fail to
lift.

bongartz_data computes the middle term, the split and the boundary classes
from intervals (the endpoint swap, an Ext closure and an overlap);
boundary_check rebuilds the boundary subquotients from explicit
homomorphisms between whole classes and compares each with its stored
class, so every cover is checked by both routes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from .homalg import (
    basis_subquotient,
    ext_dim,
    ext_intervals,
    has_class,
    hom_basis,
    hom_dim_classes,
    hom_vector,
    iso_identify,
    middle_term,
    tau,
    tau_class,
)
from .quiver import (
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    intervals_of,
    semisimple_class,
    vec_leq,
)


def hom_leq(q: TypeAQuiver, m: RepClass, n: RepClass) -> bool:
    """Hom order: every interval sees at most as many maps into m as into n."""
    if m.dim(q.n) != n.dim(q.n):
        raise ValueError("classes have different dimension vectors")
    return vec_leq(hom_vector(q, m), hom_vector(q, n))


class DegenPoset(namedtuple("DegenPoset", "quiver d nodes covers")):
    """Classes of dimension d under the Hom order, with their cover edges.

    covers lists the edges (m, n), m in node order and the covers of each m
    as local_covers gives them (sorted by pairs, the node order).  The class
    has no __slots__, so that cached_property can keep leq in the instance
    dict, which it writes directly; assigning or deleting an attribute
    raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of DegenPoset")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of DegenPoset")

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """leq[i][j] iff nodes[i] <= nodes[j]; built on first read from the Hom vectors."""
        vectors = [hom_vector(self.quiver, m) for m in self.nodes]
        return tuple(tuple(vec_leq(u, v) for v in vectors) for u in vectors)


def degeneration_poset(q: TypeAQuiver, d: tuple[int, ...]) -> DegenPoset:
    """All classes of dimension d ordered by degeneration, with cover edges.

    The covers are the local_covers of every node.  Distinct classes must
    have distinct Hom vectors (the order is antisymmetric), and the
    semisimple class must be the only node with no cover: a finite poset
    with a unique maximal element has it as its maximum.
    """
    nodes = enumerate_rep_classes(q, d)
    if len({hom_vector(q, m) for m in nodes}) != len(nodes):
        raise InternalCheckError("distinct classes share Hom counts; order is not antisymmetric")
    covers = tuple((m, n) for m in nodes for n in local_covers(q, m))
    if nodes and [m for m in nodes if not local_covers(q, m)] != [semisimple_class(q, d)]:
        raise InternalCheckError("semisimple class is not the unique maximum")
    return DegenPoset(q, d, nodes, covers)


@cache
def _moves(q: TypeAQuiver) -> tuple[tuple[RepClass, RepClass], ...]:
    """(middle_term(x1, s1), x1 + s1) for every interval pair with Ext^1(s1, x1) = 1."""
    intervals = intervals_of(q)
    return tuple(
        (middle_term(q, x1, s1), RepClass.from_copies((x1, s1)))
        for x1 in intervals
        for s1 in intervals
        if ext_intervals(q, s1, x1) == 1
    )


@cache
def local_covers(q: TypeAQuiver, m: RepClass) -> tuple[RepClass, ...]:
    """The covers of m in the degeneration order, from Bongartz moves alone.

    A move swaps a sub-multiset middle_term(x1, s1) of m for x1 + s1.  Every
    cover is a move (bongartz_data checks that shape on each cover it
    decomposes), and a class strictly between m and a move starts a chain
    whose first link is a smaller move, so the covers are the moves that are
    Hom-minimal among the moves of m.  They are sorted by pairs, the
    canonical node order of degeneration_poset.
    """
    base = hom_vector(q, m)
    have = dict(m.pairs)
    moves: dict[RepClass, tuple[int, tuple[int, ...]]] = {}
    for middle, split in _moves(q):
        if all(have.get(u, 0) >= k for u, k in middle.pairs):
            n = m.difference(middle).union(split)
            hv = hom_vector(q, n)
            if hv == base or not vec_leq(base, hv):
                raise InternalCheckError(f"move {m} -> {n} is not a strict degeneration")
            moves[n] = (sum(hv), hv)
    # strictly below in the Hom order: below coordinatewise with a smaller total
    below = lambda u, v: u[0] < v[0] and vec_leq(u[1], v[1])
    covers = (n for n, key in moves.items() if not any(below(other, key) for other in moves.values()))
    return tuple(sorted(covers, key=lambda n: n.pairs))


class BongartzData(
    namedtuple("BongartzData", "quiver x1 s1 middle x_rest s_rest common x_ker s_im s_quot")
):
    """Decomposition of a minimal degeneration m -> n.

    middle is the non-split extension of s1 by x1; common = x_rest + s_rest
    is the part shared by m and n.  x_ker = Ker(X -> tau S) and
    s_im = Im(tau^- X -> S) for X = x1 + x_rest, S = s1 + s_rest; s_quot is
    S / s_im.
    """

    __slots__ = ()

    @property
    def x_class(self) -> RepClass:
        return RepClass.from_pairs(((self.x1, 1),)).union(self.x_rest)

    @property
    def s_class(self) -> RepClass:
        return RepClass.from_pairs(((self.s1, 1),)).union(self.s_rest)


def _split_common(q: TypeAQuiver, common: RepClass, x1: Interval, s1: Interval) -> tuple[RepClass, RepClass]:
    """Split the shared summands into x_rest and s_rest.

    The split must satisfy: Ext(s1, x_rest) = Ext(x1, x_rest) = 0 and
    Ext(s_rest, s1) = Ext(s_rest, x1) = Ext(s_rest, x_rest) = 0, which makes
    0 -> x1 + x_rest -> m -> s1 + s_rest -> 0 generating.  All copies of one
    interval land on the same side (self-extensions vanish).  The conditions
    are pairwise: every u with Ext(s1, u) or Ext(x1, u) nonzero is forced to
    the S side, Ext(u, v) != 0 carries v there with u, and no u with
    Ext(u, s1) or Ext(u, x1) nonzero may go there.  The S side taken is the
    least Ext-closed one, the closure of the forced intervals.
    """
    classes = common.intervals()
    s_side = [u for u in classes if ext_intervals(q, s1, u) or ext_intervals(q, x1, u)]
    for u in s_side:  # s_side grows while it is walked
        if ext_intervals(q, u, s1) or ext_intervals(q, u, x1):
            raise InternalCheckError(f"no valid split of {common} around ({x1}, {s1})")
        s_side.extend(v for v in classes if v not in s_side and ext_intervals(q, u, v))
    s_rest = RepClass(tuple((u, k) for u, k in common.pairs if u in s_side))
    return common.difference(s_rest), s_rest


def _unique_hom(q: TypeAQuiver, src: RepClass, dst: RepClass):
    basis = hom_basis(explicit_of(q, src), explicit_of(q, dst))
    if len(basis) != 1:
        raise InternalCheckError(
            f"Hom({src}, {dst}) has dimension {len(basis)}, expected 1"
        )
    return basis[0]


def _interval_map_parts(q: TypeAQuiver, u: Interval, v: Interval) -> tuple[RepClass, RepClass, RepClass]:
    """Kernel, image and cokernel of the unique map U -> V between intervals.

    The image is the overlap I of U and V; the kernel is what remains of U
    outside I, the cokernel what remains of V outside I (at most two
    intervals each).
    """
    h = hom_dim_classes(q, RepClass(((u, 1),)), RepClass(((v, 1),)))
    if h != 1:
        raise InternalCheckError(f"Hom({u}, {v}) has dimension {h}, expected 1")
    lo, hi = max(u.a, v.a), min(u.b, v.b)

    def outside(w: Interval) -> RepClass:
        pieces = ((w.a, lo - 1), (hi + 1, w.b))
        return RepClass.from_copies(Interval(a, b) for a, b in pieces if a <= b)

    return outside(u), RepClass(((Interval(lo, hi), 1),)), outside(v)


@cache
def bongartz_data(q: TypeAQuiver, m: RepClass, n: RepClass) -> BongartzData:
    """Decompose a cover (m, n) of the degeneration poset, found by local_covers.

    The middle term and the boundary classes come from interval arithmetic;
    boundary_check is the explicit linear-algebra check of the result.
    """
    if n not in local_covers(q, m):
        raise ValueError(f"({m}, {n}) is not a cover of the degeneration poset")
    common = m.intersection(n)
    n_extra = n.difference(common)
    m_extra = m.difference(common)
    extras = n_extra.copies()
    if len(extras) != 2:
        raise InternalCheckError(f"cover has {len(extras)} new summands, expected 2")
    a, b = extras
    e_ab = ext_intervals(q, a, b)
    e_ba = ext_intervals(q, b, a)
    if (e_ab > 0) == (e_ba > 0):
        raise InternalCheckError(f"extensions between {a} and {b} are not one-directional")
    s1, x1 = (a, b) if e_ab else (b, a)
    if ext_intervals(q, s1, x1) != 1:
        raise InternalCheckError(f"Ext^1({s1}, {x1}) != 1 on a cover")
    y1 = middle_term(q, x1, s1)
    if y1 != m_extra:
        raise InternalCheckError(f"middle term {y1} does not match the new summands {m_extra} of m")
    x_rest, s_rest = _split_common(q, common, x1, s1)

    cls_x1 = RepClass(((x1, 1),))
    cls_s1 = RepClass(((s1, 1),))
    x_class = cls_x1.union(x_rest)
    s_class = cls_s1.union(s_rest)
    if ext_dim(q, s_class, x_class) != 1:
        raise InternalCheckError("generating condition fails after split")
    if ext_dim(q, cls_x1, x_rest) or ext_dim(q, s_rest, cls_s1):
        raise InternalCheckError("split violates the vanishing conditions")

    ts1 = tau(q, s1)
    if ts1 is None:
        raise InternalCheckError(f"{s1} is projective on a cover")
    x_boundary, _, _ = _interval_map_parts(q, x1, ts1)
    x_ker = x_rest.union(x_boundary)

    tix1 = tau(q, x1, "inverse")
    if tix1 is None:
        raise InternalCheckError(f"{x1} is injective on a cover")
    _, s_im, s_coker = _interval_map_parts(q, tix1, s1)
    s_quot = s_coker.union(s_rest)
    if not vec_leq(s_im.dim(q.n), cls_s1.dim(q.n)):
        raise InternalCheckError("image class exceeds s1")

    return BongartzData(q, x1, s1, y1, x_rest, s_rest, common, x_ker, s_im, s_quot)


@cache
def boundary_check(bd: BongartzData) -> bool:
    """Re-verify the generating property and the boundary-class identities.

    The identities are recomputed wholesale: x_ker must be the class of the
    kernel of the unique map x1 + x_rest -> tau(s1 + s_rest), and s_im /
    s_quot those of the image and cokernel of the unique map
    tau^-(x1 + x_rest) -> s1 + s_rest.  Both maps come from hom_basis, which
    solves for them and validates them, so their subquotients are built
    without validating again.  The maps are partial identities, so each
    subquotient is read by index (basis_subquotient) and compared with its
    stored class by its basis strings (has_class); only a subquotient that
    differs is identified by its Hom counts (iso_identify), to name it in
    the error.  Raises InternalCheckError on any failure, a ValueError of
    the explicit route included, such as a subquotient whose arrows are
    not signed partial permutations.
    """
    q = bd.quiver
    if bd.x_rest.union(bd.s_rest) != bd.common:
        raise InternalCheckError("x_rest + s_rest does not reassemble common")
    cls_x1 = RepClass(((bd.x1, 1),))
    cls_s1 = RepClass(((bd.s1, 1),))
    x_class, s_class = bd.x_class, bd.s_class
    if ext_dim(q, s_class, x_class) != 1:
        raise InternalCheckError("sequence is not generating")
    if ext_dim(q, cls_x1, bd.x_rest) != 0:
        raise InternalCheckError("Ext^1(x1, x_rest) != 0")
    if ext_dim(q, bd.s_rest, cls_s1) != 0:
        raise InternalCheckError("Ext^1(s_rest, s1) != 0")

    # the explicit route runs on classes that bongartz_data built, so a
    # ValueError inside it (a negative multiplicity, an inconsistent
    # restriction) is a fault of the program, not of the input
    try:
        kernel = basis_subquotient(_unique_hom(q, x_class, tau_class(q, s_class)), "kernel")
        into_s = _unique_hom(q, tau_class(q, x_class, "inverse"), s_class)
        parts = (
            ("Ker(X -> tau S)", kernel, bd.x_ker),
            ("Im(tau^- X -> S)", basis_subquotient(into_s, "image"), bd.s_im),
            ("S / Im", basis_subquotient(into_s, "cokernel"), bd.s_quot),
        )
        for label, rep, stored in parts:
            if not has_class(rep, stored):
                raise InternalCheckError(f"{label} = {iso_identify(rep)}, stored {stored}")
    except ValueError as exc:
        raise InternalCheckError(f"explicit boundary route fails: {exc}") from exc
    if not vec_leq(bd.s_im.dim(q.n), cls_s1.dim(q.n)):
        raise InternalCheckError("image class exceeds s1")
    return True
