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
compare it with.  iso_identify splits a representation at its zero
vertices and identifies each support component on its own sub-quiver by
its Hom counts.  The boundary checks work on coordinates: the unique maps
they take apart are partial identities, and a block of a homomorphism
that is a signed partial permutation (a zero block included) has its
kernel, image and cokernel read by index, with the arrow maps between them
selected from the ambient arrows (basis_subquotient); any other block is
eliminated.  A check that already holds the expected class compares
instead of identifying: has_class reads the class of a representation
whose arrows are signed partial permutations from its basis strings, each
of which spans one interval summand.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .linalg import Entry, InconsistentSystemError, Mat, column_space, nullspace, rank, solve
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
    the unknown count minus the exact rank of these equations.  An arrow
    leaving u gives one equation per row of g_k, and a zero row gives none.
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
        inside = t in offsets
        for i, entries in enumerate(g.mats[k].rows):
            if not (inside or any(entries)):
                continue
            row = [0] * unknowns
            row[start : start + width] = entries
            if inside:
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
    """Whether f is isomorphic to the class m, read from f's basis strings.

    The arrows of f must be signed partial permutations, as explicit_of
    builds them and as basis_subquotient keeps them when it reads a
    subquotient by index (_string_class); any other f is a ValueError.  No
    Hom count is computed.
    """
    return _string_class(f) == m


def _string_class(f: ExplicitRep) -> RepClass:
    """The class of f, whose arrows are signed partial permutations.

    Such an arrow sends each basis vector to plus or minus at most one basis
    vector at the next vertex, and no two to the same one, so the basis
    splits into strings over runs of consecutive vertices.  A string over
    a..b spans a summand isomorphic to the interval module [a, b]: type A
    has no cycle, so rescaling its vectors by signs makes every map on it
    the identity.  Any other f is a ValueError.
    """
    q = f.quiver
    links = []  # links[k]: basis index at vertex k + 1 -> the one it meets at vertex k + 2
    for k, m in enumerate(f.mats):
        match = _signed_matching(m)
        if match is None:
            raise ValueError(f"arrow {k} of the representation is not a signed partial permutation")
        forward = q.edge(k)[0] == k + 1
        links.append({j: i for j, (i, _) in match.items()} if forward else {i: j for j, (i, _) in match.items()})
    copies = []
    for v in range(q.n):
        met = set(links[v - 1].values()) if v else ()
        for start in range(f.dims[v]):
            if start in met:
                continue
            b, w = start, v
            while w < q.n - 1 and b in links[w]:
                b = links[w][b]
                w += 1
            copies.append(Interval(v + 1, w + 1))
    return RepClass.from_copies(copies)


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


def _signed_matching(m: Mat) -> dict[int, tuple[int, int]] | None:
    """{column: (row, entry)} of the nonzero entries of m when m is a signed
    partial permutation (at most one nonzero per row and per column, each
    1 or -1), else None.  A zero or empty block gives {}."""
    match = {}
    for i, row in enumerate(m.rows):
        hits = [j for j, x in enumerate(row) if x]
        if hits:
            j = hits[0]
            if len(hits) > 1 or j in match or row[j] not in (1, -1):
                return None
            match[j] = (i, row[j])
    return match


def _block_basis(m: Mat, which: str) -> Mat | list[tuple[int, int]]:
    """A basis of the kernel ("kernel") or image ("image") of the block m.

    A signed partial permutation gives its basis by index, as signed unit
    vectors (index, sign): the unit vectors at its zero columns for the
    kernel and its nonzero columns for the image, which are the bases that
    nullspace and column_space return.  Any other block is eliminated and
    gives the columns of a Mat.
    """
    match = _signed_matching(m)
    if match is None:
        return nullspace(m) if which == "kernel" else column_space(m)
    if which == "kernel":
        return [(j, 1) for j in range(m.ncols) if j not in match]
    return [match[j] for j in sorted(match)]


def _columns(size: int, basis: Mat | list[tuple[int, int]]) -> Mat:
    """The basis as the columns of a size-row Mat."""
    if isinstance(basis, Mat):
        return basis
    rows = [[0] * len(basis) for _ in range(size)]
    for p, (i, sign) in enumerate(basis):
        rows[i][p] = sign
    return Mat(size, len(basis), tuple(map(tuple, rows)))


def _induced(a: Mat, src: Mat | list[tuple[int, int]], dst: Mat | list[tuple[int, int]]) -> Mat:
    """The X with dst X = a src, for bases as _block_basis gives them.

    Between two sets of signed unit vectors X is the submatrix of a at
    their indices, times their signs, and a nonzero entry of a in a column
    of src outside the rows of dst is an InconsistentSystemError, as solve
    raises on the same system.  Any other pair of bases is solved.
    """
    if isinstance(src, Mat) or isinstance(dst, Mat):
        return solve(_columns(a.nrows, dst), a.mul(_columns(a.ncols, src)))
    where = {i: (p, sign) for p, (i, sign) in enumerate(dst)}
    out = [[0] * len(src) for _ in dst]
    for col, (j, sign) in enumerate(src):
        for i, row in enumerate(a.rows):
            if row[j]:
                if i not in where:
                    raise InconsistentSystemError("system has no exact solution")
                p, row_sign = where[i]
                out[p][col] = row_sign * sign * row[j]
    return Mat(len(dst), len(src), tuple(map(tuple, out)))


def basis_subquotient(h: ExplicitHom, which: str) -> ExplicitRep:
    """The kernel, image or cokernel of an element of hom_basis, as matrices.

    hom_basis has validated h, so it is not validated again.  A block that
    is a signed partial permutation (a zero or empty block is one) gives
    its basis by index and any other block by elimination (_block_basis);
    between two index bases an arrow map is a signed submatrix of the
    ambient arrow (_induced).  The cokernel is read through transposes: its
    projections are the transposes of a kernel basis of each transposed
    block (the unit rows at the block's zero rows), and its arrow maps the
    transposes of the maps that the transposed ambient arrows induce.  An
    arrow map with an empty side is zero and is not computed.
    """
    q = h.source.quiver
    if which == "kernel":
        blocks, ambient = h.mats, h.source.mats
    elif which == "image":
        blocks, ambient = h.mats, h.target.mats
    elif which == "cokernel":
        blocks = [m.transpose() for m in h.mats]
        ambient = [m.transpose() for m in h.target.mats]
    else:
        raise ValueError(f"which must be kernel/image/cokernel, got {which!r}")
    bases = [_block_basis(m, "image" if which == "image" else "kernel") for m in blocks]
    dims = tuple(b.ncols if isinstance(b, Mat) else len(b) for b in bases)
    mats = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        if not (dims[s - 1] and dims[t - 1]):
            mats.append(Mat.zeros(dims[t - 1], dims[s - 1]))
        elif which == "cokernel":
            mats.append(_induced(ambient[k], bases[t - 1], bases[s - 1]).transpose())
        else:
            mats.append(_induced(ambient[k], bases[s - 1], bases[t - 1]))
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
