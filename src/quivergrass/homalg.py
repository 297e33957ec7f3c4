"""Homological calculus for type A quivers.

Hom dimensions are grounded in exact linear algebra: the dimension of the
space of intertwiners between two explicit representations.  A cached table
of Hom dimensions between interval modules serves as the fast path for
class-level computations; it is validated entrywise at build time (all
entries 0 or 1, identity on the diagonal).  Ext dimensions come from the
hereditary identity  dim Hom - dim Ext = <dim M, dim N>  with the Euler form
of the quiver.  The Auslander-Reiten translate acts on dimension vectors of
non-projectives as the Coxeter transform built from the Cartan matrix.
The middle term of a non-split extension of interval modules with a
one-dimensional Ext space is the endpoint swap of the two intervals,
certified against the Hom table; hom_basis, iso_identify and
subquotient_class are the explicit route that tests and boundary checks
compare it with.  That route works on the support of what it computes:
iso_identify splits a representation at its zero vertices and identifies
each support component on its own sub-quiver, and a zero block of a
homomorphism has its kernel, image and cokernel read off without
elimination (basis_subquotient).  A check that already holds the expected
class compares instead of identifying: has_class tests the dimension
vector and the Hom counts from the intervals inside each support
component, against the Hom table of the representation's own quiver.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .linalg import Entry, Mat, column_space, left_nullspace, nullspace, rank, solve
from .quiver import (
    ExplicitRep,
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    explicit_of,
    injective_intervals,
    intervals_of,
    projective_intervals,
    vec_leq,
)


def euler_form(q: TypeAQuiver, d: tuple[int, ...], e: tuple[int, ...]) -> int:
    """<d, e> = sum d_i e_i - sum over arrows s->t of d_s e_t."""
    if len(d) != q.n or len(e) != q.n:
        raise ValueError("dimension vector length mismatch")
    total = sum(x * y for x, y in zip(d, e))
    for k in range(q.n - 1):
        s, t = q.edge(k)
        total -= d[s - 1] * e[t - 1]
    return total


def _intertwiner_matrix(f: ExplicitRep, g: ExplicitRep) -> tuple[Mat, tuple[int, ...]]:
    """Coefficient matrix of the intertwining equations B phi_s = phi_t A.

    Unknowns are the entries of the per-vertex matrices phi_v (shape
    g_v x f_v), flattened row-major vertex by vertex; returns the matrix and
    the per-vertex offsets.
    """
    q = f.quiver
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += g.dims[v] * f.dims[v]
    rows: list[tuple[Entry, ...]] = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        a = f.mats[k]
        b = g.mats[k]
        fs, ft = f.dims[s - 1], f.dims[t - 1]
        gs, gt = g.dims[s - 1], g.dims[t - 1]
        for i in range(gt):
            for j in range(fs):
                # each unknown appears once per equation, so the entries keep
                # the normal form of the entries of a and b
                row = [0] * total
                for m in range(gs):
                    row[offsets[s - 1] + m * fs + j] = b.rows[i][m]
                for m in range(ft):
                    row[offsets[t - 1] + i * ft + m] = -a.rows[m][j]
                rows.append(tuple(row))
    return Mat(len(rows), total, tuple(rows)), tuple(offsets)


def hom_dim(f: ExplicitRep, g: ExplicitRep) -> int:
    """dim Hom(f, g), by exact rank of the intertwining system.

    A system with no unknowns or no equations has rank 0, so its dimension
    is its unknown count and the matrix is not built.
    """
    if f.quiver != g.quiver:
        raise ValueError("representations live on different quivers")
    q = f.quiver
    unknowns = sum(x * y for x, y in zip(f.dims, g.dims))
    if not unknowns or not any(g.dims[t - 1] * f.dims[s - 1] for s, t in map(q.edge, range(q.n - 1))):
        return unknowns
    system, _ = _intertwiner_matrix(f, g)
    return system.ncols - rank(system)


def interval_hom_dim(u: Interval, g: ExplicitRep) -> int:
    """dim Hom(U, g) for the interval module U on u = [a, b], without building U.

    A homomorphism is a vector x_v in g_v at each vertex a <= v <= b with
    g_k x_s = x_t on the arrows s -> t inside u and g_k x_s = 0 on the
    arrows leaving u (an arrow entering u asks nothing); its dimension is
    the unknown count minus the exact rank of these equations.
    """
    q = g.quiver
    offsets = {}
    unknowns = 0
    for v in range(u.a, u.b + 1):
        offsets[v] = unknowns
        unknowns += g.dims[v - 1]
    if not unknowns:
        return 0
    rows = []
    for k in range(max(0, u.a - 2), min(q.n - 1, u.b)):
        s, t = q.edge(k)
        if s not in offsets:
            continue
        start, width = offsets[s], g.dims[s - 1]
        for i, entries in enumerate(g.mats[k].rows):
            row = [0] * unknowns
            row[start : start + width] = entries
            if t in offsets:
                row[offsets[t] + i] = -1
            rows.append(tuple(row))
    if not rows:
        return unknowns
    return unknowns - rank(Mat(len(rows), unknowns, tuple(rows)))


class ExplicitHom(namedtuple("ExplicitHom", "source target mats")):
    """A homomorphism source -> target; mats[v] is its matrix at vertex v + 1."""

    __slots__ = ()

    def validate(self) -> None:
        q = self.source.quiver
        for v in range(q.n):
            m = self.mats[v]
            if (m.nrows, m.ncols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"vertex {v + 1}: bad shape {m.nrows}x{m.ncols}")
        for k in range(q.n - 1):
            s, t = q.edge(k)
            lhs = self.target.mats[k].mul(self.mats[s - 1])
            rhs = self.mats[t - 1].mul(self.source.mats[k])
            if lhs != rhs:
                raise ValueError(f"intertwining fails on edge {k}")


def hom_basis(f: ExplicitRep, g: ExplicitRep) -> tuple[ExplicitHom, ...]:
    """A basis of the intertwiner space, exact and deterministic.

    A system with no equations has every unknown free, and one with no
    unknowns has no solution but 0, so neither is eliminated.
    """
    if f.quiver != g.quiver:
        raise ValueError("representations live on different quivers")
    q = f.quiver
    system, offsets = _intertwiner_matrix(f, g)
    kernel = nullspace(system) if system.nrows and system.ncols else Mat.identity(system.ncols)
    out = []
    for j in range(kernel.ncols):
        vec = kernel.col(j)
        mats = []
        for v in range(q.n):
            # the null vector's entries are in normal form: no re-coercion
            gv, fv = g.dims[v], f.dims[v]
            base = offsets[v]
            mats.append(Mat(gv, fv, tuple(vec[base + i * fv : base + (i + 1) * fv] for i in range(gv))))
        hom = ExplicitHom(f, g, tuple(mats))
        hom.validate()
        out.append(hom)
    return tuple(out)


@cache
def hom_table(q: TypeAQuiver) -> tuple[tuple[int, ...], ...]:
    """Hom dimensions between interval modules, validated at build time."""
    intervals = intervals_of(q)
    reps = [explicit_of(q, RepClass(((u, 1),))) for u in intervals]
    table = []
    for u in intervals:
        row = []
        for v, g in zip(intervals, reps):
            h = interval_hom_dim(u, g)
            if h not in (0, 1):
                raise InternalCheckError(f"[{u},{v}] = {h}, expected 0 or 1")
            row.append(h)
        table.append(tuple(row))
    for i in range(len(intervals)):
        if table[i][i] != 1:
            raise InternalCheckError(f"[{intervals[i]},{intervals[i]}] != 1")
    return tuple(table)


@cache
def _interval_index(q: TypeAQuiver) -> dict[Interval, int]:
    return {u: i for i, u in enumerate(intervals_of(q))}


@cache
def hom_vector(q: TypeAQuiver, m: RepClass) -> tuple[int, ...]:
    """[U, m] for every interval U, in the canonical interval order."""
    table = hom_table(q)
    idx = _interval_index(q)
    out = [0] * len(table)
    for v, k in m.pairs:
        col = idx[v]
        for i in range(len(table)):
            out[i] += k * table[i][col]
    return tuple(out)


def hom_dim_classes(q: TypeAQuiver, m: RepClass, n: RepClass) -> int:
    """dim Hom(m, n) summed bilinearly over summands via the interval table."""
    hv = hom_vector(q, n)
    idx = _interval_index(q)
    return sum(k * hv[idx[u]] for u, k in m.pairs)


def ext_dim(q: TypeAQuiver, m: RepClass, n: RepClass) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n>."""
    value = hom_dim_classes(q, m, n) - euler_form(q, m.dim(q.n), n.dim(q.n))
    if value < 0:
        raise InternalCheckError(f"negative Ext dimension for ({m}, {n})")
    return value


@cache
def ext_intervals(q: TypeAQuiver, u: Interval, v: Interval) -> int:
    return ext_dim(q, RepClass(((u, 1),)), RepClass(((v, 1),)))


def _neg(m: Mat) -> Mat:
    return Mat(m.nrows, m.ncols, tuple(tuple(-x for x in row) for row in m.rows))


def _as_interval(vec: tuple[Entry, ...]) -> Interval | None:
    """The interval whose indicator is vec, or None if vec is not one."""
    values = []
    for x in vec:
        if x.denominator != 1 or x.numerator not in (0, 1):
            return None
        values.append(int(x))
    support = [i + 1 for i, x in enumerate(values) if x == 1]
    if not support or support != list(range(support[0], support[-1] + 1)):
        return None
    return Interval(support[0], support[-1])


@cache
def _tau_maps(q: TypeAQuiver) -> tuple[dict[Interval, Interval], dict[Interval, Interval]]:
    """Forward and inverse translate tables from the Coxeter transform.

    The transform is Phi = -C^T C^-1 for the Cartan matrix C whose columns
    are the dimension vectors of the projectives.  It is checked to send
    dim U to an interval indicator exactly when U is not projective, and to
    biject the non-projectives onto the non-injectives.
    """
    projectives = projective_intervals(q)
    cartan = Mat.from_rows(
        [[projectives[i].indicator(q.n)[v] for i in range(q.n)] for v in range(q.n)],
        ncols=q.n,
    )
    phi = _neg(cartan.transpose().mul(solve(cartan, Mat.identity(q.n))))
    forward: dict[Interval, Interval] = {}
    for u in intervals_of(q):
        image = phi.mul(Mat.from_rows([[x] for x in u.indicator(q.n)], ncols=1))
        w = _as_interval(image.col(0))
        projective = u in projectives
        if (w is None) != projective:
            kind = "projective" if projective else "non-projective"
            raise InternalCheckError(f"Coxeter transform sends dim {u} of a {kind} to {w}")
        if w is not None:
            forward[u] = w
    non_injectives = set(intervals_of(q)) - set(injective_intervals(q))
    if set(forward.values()) != non_injectives or len(set(forward.values())) != len(forward):
        raise InternalCheckError("Coxeter transform does not biject non-projectives onto non-injectives")
    inverse = {w: u for u, w in forward.items()}
    return forward, inverse


def tau(q: TypeAQuiver, u: Interval, direction: str = "forward") -> Interval | None:
    """Auslander-Reiten translate of an interval module.

    Forward: None exactly on projectives; inverse: None exactly on
    injectives.
    """
    forward, inverse = _tau_maps(q)
    if direction == "forward":
        return forward.get(u)
    if direction == "inverse":
        return inverse.get(u)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def tau_class(q: TypeAQuiver, m: RepClass, direction: str = "forward") -> RepClass:
    """Translate applied summandwise, dropping the projectives (resp. injectives)."""
    pairs = []
    for u, k in m.pairs:
        w = tau(q, u, direction)
        if w is not None:
            pairs.append((w, k))
    return RepClass.from_pairs(pairs)


@cache
def _hom_table_inverse(q: TypeAQuiver) -> tuple[tuple[int, ...], ...]:
    """The inverse of hom_table(q), solved exactly once per quiver.

    The table is unimodular, so the inverse is integral; anything else is
    an InternalCheckError.
    """
    size = len(intervals_of(q))
    try:
        inverse = solve(Mat.from_rows(hom_table(q), ncols=size), Mat.identity(size))
    except ValueError as exc:  # includes InconsistentSystemError
        raise InternalCheckError(f"Hom table of {q.label()} is singular: {exc}") from exc
    if any(x.denominator != 1 for row in inverse.rows for x in row):
        raise InternalCheckError(f"Hom table of {q.label()} is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inverse.rows)


def _support_runs(dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """The maximal runs of nonzero entries of dims, as 0-based slices (c, v)."""
    runs = []
    v = 0
    while v < len(dims):
        if not dims[v]:
            v += 1
            continue
        c = v
        while v < len(dims) and dims[v]:
            v += 1
        runs.append((c, v))
    return runs


def iso_identify(f: ExplicitRep) -> RepClass:
    """The multiset of intervals with the same Hom counts as f.

    The arrows at a vertex v with dim f_v = 0 are zero maps, so f is the
    direct sum of its restrictions to the maximal runs of vertices where it
    is nonzero (_support_runs), and every interval summand lies inside one
    run.  Each run c..e is identified on its own sub-quiver
    TypeAQuiver(e - c + 1, orient[c - 1 : e - 1]) (_identify_run), and its
    intervals are shifted back by c - 1.
    """
    q = f.quiver
    runs = _support_runs(f.dims)
    if runs == [(0, q.n)]:
        return _identify_run(f)
    pairs = []
    for c, v in runs:
        run = ExplicitRep(TypeAQuiver(v - c, q.orient[c : v - 1]), f.dims[c:v], f.mats[c : v - 1])
        pairs += [(Interval(u.a + c, u.b + c), k) for u, k in _identify_run(run).pairs]
    return RepClass(tuple(pairs))


def has_class(f: ExplicitRep, m: RepClass) -> bool:
    """Whether f is isomorphic to the class m, without identifying f.

    f has class m exactly when dim f = dim m and [U, f] = [U, m] for every
    interval U inside a run of the support of f.  Equal dimension vectors
    give equal supports, so every summand of m lies inside one run, and the
    Hom table of a run is unimodular, so these counts determine the
    summands on it.  [U, m] is read from hom_vector on f's own quiver, and
    [U, f] is computed on f itself, so no sub-quiver, Hom table or inverse
    is built.
    """
    q = f.quiver
    if f.dims != m.dim(q.n):
        return False
    counts = hom_vector(q, m)
    idx = _interval_index(q)
    for c, v in _support_runs(f.dims):
        for a in range(c + 1, v + 1):
            for b in range(a, v + 1):
                u = Interval(a, b)
                if interval_hom_dim(u, f) != counts[idx[u]]:
                    return False
    return True


def _identify_run(f: ExplicitRep) -> RepClass:
    """iso_identify of an f that is nonzero at every vertex.

    The multiplicities solve the interval-indexed system [U, m] = [U, f],
    read off as the inverse Hom table times the counts; a finite-type class
    is determined by these counts.  A negative multiplicity is a ValueError.
    """
    q = f.quiver
    intervals = intervals_of(q)
    counts = [interval_hom_dim(u, f) for u in intervals]
    pairs = []
    for u, row in zip(intervals, _hom_table_inverse(q)):
        value = sum(a * c for a, c in zip(row, counts))
        if value < 0:
            raise ValueError(f"multiplicity of {u} solves to {value}; input is not a valid representation")
        if value:
            pairs.append((u, value))
    return RepClass(tuple(pairs))


def subquotient_class(h: ExplicitHom, which: str) -> RepClass:
    """Isomorphism class of the kernel, image, or cokernel of a homomorphism.

    h is validated first: a ValueError when it does not intertwine.
    """
    h.validate()
    return iso_identify(basis_subquotient(h, which))


def _is_zero(m: Mat) -> bool:
    return not any(map(any, m.rows))


def basis_subquotient(h: ExplicitHom, which: str) -> ExplicitRep:
    """The kernel, image or cokernel of an element of hom_basis, as matrices.

    hom_basis has validated h, so it is not validated again.  A zero or
    empty block needs no elimination: its kernel basis is the identity, its
    image basis is empty and its cokernel projection is the identity.  The
    restricted arrow maps are solved for only between two vertices where
    the subquotient is nonzero; every other one has an empty side.
    """
    q = h.source.quiver
    if which == "kernel":
        bases = [Mat.identity(m.ncols) if _is_zero(m) else nullspace(m) for m in h.mats]
        ambient = h.source
    elif which == "image":
        bases = [Mat(m.nrows, 0, ((),) * m.nrows) if _is_zero(m) else column_space(m) for m in h.mats]
        ambient = h.target
    elif which == "cokernel":
        projections = [Mat.identity(m.nrows) if _is_zero(m) else left_nullspace(m) for m in h.mats]
        dims = tuple(p.nrows for p in projections)
        mats = []
        for k in range(q.n - 1):
            s, t = q.edge(k)
            if dims[s - 1] and dims[t - 1]:
                rhs = projections[t - 1].mul(h.target.mats[k])
                mats.append(solve(projections[s - 1].transpose(), rhs.transpose()).transpose())
            else:
                mats.append(Mat.zeros(dims[t - 1], dims[s - 1]))
        return ExplicitRep(q, dims, tuple(mats))
    else:
        raise ValueError(f"which must be kernel/image/cokernel, got {which!r}")
    dims = tuple(b.ncols for b in bases)
    mats = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        if dims[s - 1] and dims[t - 1]:
            mats.append(solve(bases[t - 1], ambient.mats[k].mul(bases[s - 1])))
        else:
            mats.append(Mat.zeros(dims[t - 1], dims[s - 1]))
    return ExplicitRep(q, dims, tuple(mats))


def middle_term(q: TypeAQuiver, x1: Interval, s1: Interval) -> RepClass:
    """Middle term of the non-split extension of s1 by x1.

    Requires dim Ext^1(s1, x1) = 1.  For x1 = [a,b] and s1 = [c,d] the
    middle term is the endpoint swap [a,d] + [c,b], where a swapped interval
    whose lower end is one past its upper end is empty and dropped.  The
    result is certified against the Hom table: it differs from x1 + s1 and
    degenerates to it.
    """
    cls_x1 = RepClass(((x1, 1),))
    cls_s1 = RepClass(((s1, 1),))
    if ext_dim(q, cls_s1, cls_x1) != 1:
        raise ValueError(f"Ext^1({s1}, {x1}) must be one-dimensional")
    pairs = []
    for lo, hi in ((x1.a, s1.b), (s1.a, x1.b)):
        if lo == hi + 1:
            continue
        if lo > hi:
            raise InternalCheckError(f"endpoint swap of ({x1}, {s1}) gives [{lo},{hi}]")
        pairs.append((Interval(lo, hi), 1))
    middle = RepClass.from_pairs(pairs)
    split = cls_x1.union(cls_s1)
    if middle == split or not vec_leq(hom_vector(q, middle), hom_vector(q, split)):
        raise InternalCheckError(f"{middle} is not a non-split middle term for ({x1}, {s1})")
    return middle
