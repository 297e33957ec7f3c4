import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import homalg
from quivergrass.homalg import (
    ExplicitHom,
    euler_form,
    ext_dim,
    ext_intervals,
    hom_basis,
    hom_dim,
    hom_dim_classes,
    hom_table,
    hom_vector,
    iso_identify,
    middle_term,
    subquotient_class,
    tau,
)
from quivergrass.linalg import Mat, rank, solve
from quivergrass.quiver import (
    ExplicitRep,
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    intervals_of,
    projective_intervals,
)

A2 = TypeAQuiver(2, "F")
A3 = TypeAQuiver(3, "FF")


def cls(*copies):
    return RepClass.from_copies([Interval(a, b) for a, b in copies])


def all_quivers(max_n):
    for n in range(1, max_n + 1):
        for flags in itertools.product("FB", repeat=n - 1):
            yield TypeAQuiver(n, "".join(flags))


def all_dims(n, total_max):
    for d in itertools.product(range(total_max + 1), repeat=n):
        if sum(d) <= total_max:
            yield d


def test_euler_form_examples():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (1, 1), (1, 1)) == 1
    assert euler_form(A3, (1, 1, 0), (0, 0, 1)) == -1
    with pytest.raises(ValueError):
        euler_form(A2, (1,), (0, 1))


def test_hom_dim_examples():
    for q in all_quivers(3):
        for u in intervals_of(q):
            e = explicit_of(q, RepClass(((u, 1),)))
            assert hom_dim(e, e) == 1
    p1 = explicit_of(A2, cls((1, 2)))
    assert hom_dim(p1, explicit_of(A2, cls((2, 2)))) == 0
    assert hom_dim(p1, explicit_of(A2, cls((1, 1)))) == 1


def test_hom_dim_short_cut_is_exact():
    # hom_dim answers a system with no unknowns or no equations without
    # building it; the full system's ncols - rank must agree on every pair
    # of interval modules of A1-A5 and of classes of A3 with d <= (2, 2, 2)
    shapes = set()
    for q in all_quivers(5):
        reps = [explicit_of(q, RepClass(((u, 1),))) for u in intervals_of(q)]
        if q.n == 3:
            reps += [explicit_of(q, m) for d in itertools.product(range(3), repeat=3) for m in enumerate_rep_classes(q, d)]
        for f, g in itertools.product(reps, repeat=2):
            system, _ = homalg._intertwiner_matrix(f, g)
            shapes.add((system.ncols > 0, system.nrows > 0))
            assert hom_dim(f, g) == system.ncols - rank(system), (q, f, g)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_interval_hom_dim_matches_hom_dim():
    # the interval route against the general explicit one, on every
    # (interval, class) pair of A1-A4 with d <= 2 at every vertex
    checked = 0
    for q in all_quivers(4):
        sources = [(u, explicit_of(q, RepClass(((u, 1),)))) for u in intervals_of(q)]
        for d in itertools.product(range(3), repeat=q.n):
            for m in enumerate_rep_classes(q, d):
                g = explicit_of(q, m)
                for u, f in sources:
                    assert homalg.interval_hom_dim(u, g) == hom_dim(f, g), (q.label(), u, m.text())
                    checked += 1
    assert checked == 34263


def test_hom_table_builds_no_empty_system(monkeypatch):
    built = []
    real = homalg.rank

    def counting(system):
        built.append((system.nrows, system.ncols))
        return real(system)

    q = TypeAQuiver(5, "FBFB")
    expected = hom_table(q)
    monkeypatch.setattr(homalg, "rank", counting)
    assert homalg.hom_table.__wrapped__(q) == expected  # a fresh build, past the memo
    assert built and all(rows and cols for rows, cols in built)
    size = len(intervals_of(q))
    assert len(built) < size * size


def test_hom_table_entries():
    for q in all_quivers(5):
        table = hom_table(q)
        for i, row in enumerate(table):
            assert row[i] == 1
            assert all(x in (0, 1) for x in row)


def test_class_level_hom_matches_explicit():
    for q in all_quivers(3):
        classes = [m for d in all_dims(q.n, 3) for m in enumerate_rep_classes(q, d)]
        for m in classes:
            for n in classes:
                if sum(m.dim(q.n)) + sum(n.dim(q.n)) > 5:
                    continue
                assert hom_dim_classes(q, m, n) == hom_dim(explicit_of(q, m), explicit_of(q, n))


def test_ext_examples():
    assert ext_dim(A2, cls((1, 1)), cls((2, 2))) == 1
    for q in all_quivers(3):
        for u in intervals_of(q):
            assert ext_dim(q, RepClass(((u, 1),)), RepClass(((u, 1),))) == 0
    assert ext_dim(A2, cls((1, 1)), cls((1, 2))) == 0


def test_tau_examples():
    assert tau(A2, Interval(1, 1)) == Interval(2, 2)
    assert tau(A2, Interval(1, 2)) is None
    assert tau(A3, Interval(1, 2)) == Interval(2, 3)
    assert tau(A3, Interval(2, 3), "inverse") == Interval(1, 2)
    with pytest.raises(ValueError):
        tau(A2, Interval(1, 1), "sideways")


def test_tau_round_trip():
    for q in all_quivers(5):
        for u in intervals_of(q):
            forward = tau(q, u)
            if forward is not None:
                assert tau(q, forward, "inverse") == u
            backward = tau(q, u, "inverse")
            if backward is not None:
                assert tau(q, backward) == u


def test_ar_formula_dimension_level():
    # dim Ext^1(s, x) = dim Hom(x, tau s) whenever s is not projective
    for q in all_quivers(5):
        for s in intervals_of(q):
            if s in projective_intervals(q):
                continue
            ts = tau(q, s)
            for x in intervals_of(q):
                lhs = ext_intervals(q, s, x)
                rhs = hom_dim_classes(q, RepClass(((x, 1),)), RepClass(((ts, 1),)))
                assert lhs == rhs, (q.label(), str(s), str(x))


def test_tau_maps_checks_raise(monkeypatch):
    build = homalg._tau_maps.__wrapped__
    monkeypatch.setattr(homalg, "_as_interval", lambda vec: None)
    with pytest.raises(InternalCheckError, match="of a non-projective"):
        build(A3)
    monkeypatch.undo()
    monkeypatch.setattr(homalg, "injective_intervals", lambda q: ())
    with pytest.raises(InternalCheckError, match="non-injectives"):
        build(A3)


def test_no_ext_cycles():
    from quivergrass.grass import peel_summand

    # a topological order of the Ext graph exists exactly when peeling
    # succeeds until the class of all intervals is empty
    for q in all_quivers(5):
        rest = RepClass.from_copies(intervals_of(q))
        peeled = 0
        while rest.pairs:
            rest = rest.remove_one(peel_summand(q, rest))  # raises on a cycle
            peeled += 1
        assert peeled == len(intervals_of(q))


def test_iso_identify_examples():
    e = ExplicitRep(A2, (1, 1), (Mat.from_rows([[1]]),))
    assert iso_identify(e) == cls((1, 2))
    e = ExplicitRep(A2, (1, 1), (Mat.from_rows([[0]]),))
    assert iso_identify(e) == cls((1, 1), (2, 2))


def reference_iso_identify(f):
    """The multiplicities by an exact solve of the Hom-table system per call."""
    q = f.quiver
    intervals = intervals_of(q)
    counts = [hom_dim(explicit_of(q, RepClass(((u, 1),))), f) for u in intervals]
    x = solve(Mat.from_rows(hom_table(q), ncols=len(intervals)), Mat.from_rows([[c] for c in counts], ncols=1))
    pairs = []
    for i, u in enumerate(intervals):
        value = x.rows[i][0]
        if value.denominator != 1 or value < 0:
            raise ValueError(f"multiplicity of {u} solves to {value}; input is not a valid representation")
        if value:
            pairs.append((u, int(value)))
    return RepClass(tuple(pairs))


def test_hom_table_inverse_is_integral_a1_a5():
    for q in all_quivers(5):
        table = hom_table(q)
        inverse = homalg._hom_table_inverse(q)
        assert all(type(x) is int for row in inverse for x in row)
        size = len(table)
        product = [[sum(table[i][k] * inverse[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
        assert product == [[int(i == j) for j in range(size)] for i in range(size)], q.label()


def test_hom_table_inverse_rejects_a_non_unimodular_table(monkeypatch):
    build = homalg._hom_table_inverse.__wrapped__
    doubled = tuple(tuple(2 * x for x in row) for row in hom_table(A2))
    monkeypatch.setattr(homalg, "hom_table", lambda q: doubled)
    with pytest.raises(InternalCheckError, match="not unimodular"):
        build(A2)
    monkeypatch.setattr(homalg, "hom_table", lambda q: ((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    with pytest.raises(InternalCheckError, match="singular"):
        build(A2)


def test_iso_identify_rejects_a_negative_multiplicity(monkeypatch):
    # Hom counts equal to a unit vector whose inverse column has a negative entry
    inverse = homalg._hom_table_inverse(A2)
    j = next(j for j in range(len(inverse)) if any(row[j] < 0 for row in inverse))
    counts = iter([int(i == j) for i in range(len(inverse))])
    monkeypatch.setattr(homalg, "interval_hom_dim", lambda u, g: next(counts))
    with pytest.raises(ValueError, match="solves to -"):
        iso_identify(explicit_of(A2, cls((1, 2))))


def test_iso_round_trip_exhaustive():
    for q in all_quivers(3):
        for d in all_dims(q.n, 6):
            for m in enumerate_rep_classes(q, d):
                rep = explicit_of(q, m)
                assert iso_identify(rep) == m
                assert reference_iso_identify(rep) == m


@given(st.sampled_from(list(all_quivers(4))), st.data())
@settings(max_examples=40, deadline=None)
def test_iso_round_trip_sampled(q, data):
    intervals = list(intervals_of(q))
    copies = data.draw(st.lists(st.sampled_from(intervals), min_size=0, max_size=4))
    m = RepClass.from_copies(copies)
    if sum(m.dim(q.n)) > 6:
        return
    assert iso_identify(explicit_of(q, m)) == m


@given(st.sampled_from(list(all_quivers(5))), st.data())
@settings(max_examples=120, deadline=None)
def test_iso_identify_arbitrary_matrices(q, data):
    """Any exact matrix representation decomposes into intervals.

    On A4 and A5 one interior vertex is zero, so that f splits into support
    components that iso_identify identifies one by one.
    """
    dims = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(q.n)]
    if q.n >= 4:
        dims[data.draw(st.integers(min_value=1, max_value=q.n - 2))] = 0
    dims = tuple(dims)
    mats = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        rows = [
            [data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(dims[s - 1])]
            for _ in range(dims[t - 1])
        ]
        mats.append(Mat.from_rows(rows, ncols=dims[s - 1]))
    rep = ExplicitRep(q, dims, tuple(mats))
    found = iso_identify(rep)
    assert found.dim(q.n) == dims
    assert found == reference_iso_identify(rep)


@pytest.mark.parametrize("dims", [(1, 0, 2, 0, 1), (2, 2, 0, 1, 1), (0, 2, 1, 0, 2), (2, 0, 0, 2, 2), (1, 0, 1, 2)])
def test_iso_identify_per_support_component(dims):
    # every class with a zero interior vertex, and the sum of the identity
    # and a random-looking matrix on each arrow, on every orientation
    for flags in itertools.product("FB", repeat=len(dims) - 1):
        q = TypeAQuiver(len(dims), "".join(flags))
        for m in enumerate_rep_classes(q, dims):
            rep = explicit_of(q, m)
            assert iso_identify(rep) == m == reference_iso_identify(rep), (q.label(), m.text())
        mats = []
        for k in range(q.n - 1):
            s, t = q.edge(k)
            rows = [[(3 * i + 2 * j + k) % 4 - 1 for j in range(dims[s - 1])] for i in range(dims[t - 1])]
            mats.append(Mat.from_rows(rows, ncols=dims[s - 1]))
        rep = ExplicitRep(q, dims, tuple(mats))
        found = iso_identify(rep)
        assert found.dim(q.n) == dims and found == reference_iso_identify(rep), q.label()


def test_hom_basis_examples():
    u = explicit_of(A2, cls((1, 2)))
    basis = hom_basis(u, u)
    assert len(basis) == 1
    scalar = basis[0].mats[0].rows[0][0]
    assert scalar != 0
    assert all(mat.rows[0][0] == scalar for mat in basis[0].mats)
    assert hom_basis(u, explicit_of(A2, cls((2, 2)))) == ()
    into = hom_basis(explicit_of(A2, cls((2, 2))), u)
    assert len(into) == 1
    assert into[0].mats[1].rows[0][0] != 0


def test_subquotient_examples():
    u = explicit_of(A2, cls((1, 2)))
    ident = hom_basis(u, u)[0]
    assert subquotient_class(ident, "kernel") == RepClass.empty()
    inclusion = hom_basis(explicit_of(A2, cls((2, 2))), u)[0]
    assert subquotient_class(inclusion, "image") == cls((2, 2))
    assert subquotient_class(inclusion, "cokernel") == cls((1, 1))
    with pytest.raises(ValueError):
        subquotient_class(ident, "corner")


def test_subquotient_class_rejects_a_non_intertwining_hom():
    u = explicit_of(A2, cls((1, 2)))
    ident = hom_basis(u, u)[0]
    broken = ExplicitHom(u, u, (ident.mats[0], Mat.from_rows([[0]], ncols=1)))
    for which in ("kernel", "image", "cokernel"):
        with pytest.raises(ValueError, match="intertwining fails"):
            subquotient_class(broken, which)


def test_middle_term_examples():
    assert middle_term(A2, Interval(2, 2), Interval(1, 1)) == cls((1, 2))
    assert middle_term(A3, Interval(3, 3), Interval(1, 2)) == cls((1, 3))
    assert middle_term(A3, Interval(2, 2), Interval(1, 1)) == cls((1, 2))
    # nested pairs, where "union + intersection" would give [1,3] + [2,2] back
    assert middle_term(TypeAQuiver(3, "FB"), Interval(2, 2), Interval(1, 3)) == cls((1, 2), (2, 3))
    assert middle_term(TypeAQuiver(3, "BF"), Interval(1, 3), Interval(2, 2)) == cls((1, 2), (2, 3))
    with pytest.raises(ValueError):
        middle_term(A2, Interval(1, 1), Interval(2, 2))  # Ext vanishes this way


def _coefficient_patterns(k, max_level=3):
    """Deterministic sweep of integer coefficient vectors of length k."""
    for level in range(1, max_level + 1):
        for coeffs in itertools.product(range(-level, level + 1), repeat=k):
            if any(coeffs) and max(abs(c) for c in coeffs) == level:
                yield coeffs


def _combine_homs(basis, coeffs):
    first = basis[0]
    mats = []
    for v in range(first.source.quiver.n):
        rows = [
            [sum(c * h.mats[v].rows[i][j] for c, h in zip(coeffs, basis))
             for j in range(first.source.dims[v])]
            for i in range(first.target.dims[v])
        ]
        mats.append(Mat.from_rows(rows, ncols=first.source.dims[v]))
    return ExplicitHom(first.source, first.target, tuple(mats))


def reference_middle_term(q, x1, s1):
    """The class Y != x1 + s1 of dim x1 + dim s1 that admits an embedding of
    x1 with cokernel s1, found by scanning every class of that dimension and
    trying integer combinations of a Hom basis."""
    cls_x1 = RepClass(((x1, 1),))
    cls_s1 = RepClass(((s1, 1),))
    split = cls_x1.union(cls_s1)
    split_hv = hom_vector(q, split)
    explicit_x1 = explicit_of(q, cls_x1)
    matches = []
    for candidate in enumerate_rep_classes(q, split.dim(q.n)):
        if candidate == split:
            continue
        # a middle term always degenerates to the split sum
        if not all(a <= b for a, b in zip(hom_vector(q, candidate), split_hv)):
            continue
        basis = hom_basis(explicit_x1, explicit_of(q, candidate))
        if not basis:
            continue
        for coeffs in _coefficient_patterns(len(basis)):
            h = _combine_homs(basis, coeffs)
            if all(rank(m) == m.ncols for m in h.mats) and subquotient_class(h, "cokernel") == cls_s1:
                matches.append(candidate)
                break
    assert len(matches) == 1, (q.label(), str(x1), str(s1), matches)
    return matches[0]


def test_middle_term_matches_reference_search():
    pairs = 0
    for q in all_quivers(5):
        for x1 in intervals_of(q):
            for s1 in intervals_of(q):
                if ext_intervals(q, s1, x1) != 1:
                    continue
                assert middle_term(q, x1, s1) == reference_middle_term(q, x1, s1), (
                    q.label(), str(x1), str(s1)
                )
                pairs += 1
    assert pairs == 702


def test_middle_term_certificate_raises(monkeypatch):
    monkeypatch.setattr(homalg, "hom_vector", lambda q, m: (1,) if m == cls((1, 2)) else (0,))
    with pytest.raises(InternalCheckError, match="not a non-split middle term"):
        middle_term(A2, Interval(2, 2), Interval(1, 1))
    monkeypatch.undo()
    monkeypatch.setattr(homalg, "ext_dim", lambda q, m, n: 1)
    with pytest.raises(InternalCheckError, match="not a non-split middle term"):
        middle_term(A2, Interval(1, 1), Interval(1, 1))  # the swap gives the split sum back
    with pytest.raises(InternalCheckError, match="endpoint swap"):
        middle_term(A3, Interval(1, 1), Interval(3, 3))  # [3,1] is not an interval


def test_middle_term_can_be_decomposable():
    assert middle_term(A3, Interval(2, 3), Interval(1, 2)) == cls((1, 3), (2, 2))


def test_hereditary_identity_small():
    for q in all_quivers(3):
        classes = [m for d in all_dims(q.n, 4) for m in enumerate_rep_classes(q, d)]
        for m in classes:
            for n in classes:
                h = hom_dim_classes(q, m, n)
                assert h - euler_form(q, m.dim(q.n), n.dim(q.n)) >= 0
                assert ext_dim(q, m, n) >= 0
