import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivergrass import degen, homalg, linalg
from quivergrass.degen import (
    bongartz_data,
    boundary_check,
    degeneration_poset,
    hom_leq,
    local_covers,
)
from quivergrass.homalg import ext_dim, hom_basis, hom_dim_classes, hom_vector, subquotient_class, tau_class
from quivergrass.linalg import column_space, left_nullspace, nullspace, solve
from quivergrass.quiver import (
    ExplicitRep,
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    intervals_of,
    semisimple_class,
    vec_boxes,
)

A2 = TypeAQuiver(2, "F")
A3 = TypeAQuiver(3, "FF")


def cls(*copies):
    return RepClass.from_copies([Interval(a, b) for a, b in copies])


def all_quivers(max_n):
    for n in range(1, max_n + 1):
        for flags in itertools.product("FB", repeat=n - 1):
            yield TypeAQuiver(n, "".join(flags))


def test_hom_leq_examples():
    m = cls((1, 2))
    assert hom_leq(A2, m, m)
    assert hom_leq(A2, m, cls((1, 1), (2, 2)))
    a, b = cls((1, 2), (3, 3)), cls((1, 1), (2, 3))
    assert not hom_leq(A3, a, b)
    assert not hom_leq(A3, b, a)
    with pytest.raises(ValueError):
        hom_leq(A2, cls((1, 1)), cls((2, 2)))


def test_poset_chain_a2():
    poset = degeneration_poset(A2, (1, 1))
    assert len(poset.nodes) == 2
    assert poset.covers == ((cls((1, 2)), cls((1, 1), (2, 2))),)


def test_poset_diamond_a3():
    poset = degeneration_poset(A3, (1, 1, 1))
    assert len(poset.nodes) == 4
    assert len(poset.covers) == 4
    mid1, mid2 = cls((1, 2), (3, 3)), cls((1, 1), (2, 3))
    assert not hom_leq(A3, mid1, mid2)
    assert not hom_leq(A3, mid2, mid1)
    assert hom_leq(A3, cls((1, 3)), semisimple_class(A3, (1, 1, 1)))


def test_poset_single_class():
    poset = degeneration_poset(TypeAQuiver(1, ""), (2,))
    assert len(poset.nodes) == 1
    assert poset.covers == ()


def reference_poset(q, d):
    """The pairwise leq matrix and the O(N^3) cover rule, as a reference."""
    nodes = enumerate_rep_classes(q, d)
    vectors = [hom_vector(q, m) for m in nodes]
    size = len(nodes)
    leq = tuple(
        tuple(all(a <= b for a, b in zip(vectors[i], vectors[j])) for j in range(size))
        for i in range(size)
    )
    covers = tuple(
        (nodes[i], nodes[j])
        for i in range(size)
        for j in range(size)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(size))
    )
    return nodes, leq, covers


def test_poset_matches_reference_rule():
    for q in all_quivers(4):
        for d in vec_boxes(tuple([2] * q.n)):
            poset = degeneration_poset(q, d)
            nodes, leq, covers = reference_poset(q, d)
            assert poset.nodes == nodes
            assert poset.covers == covers
            assert poset.leq == leq


PINNED_COVERS_SHA256 = {
    ("A4:FFF", (5, 5, 5, 5)): "101b71f21f02e4385af56f6a707f208e2265d92383a00bf43d0327762c5b643e",
    ("A5:FFBF", (4, 2, 4, 4, 2)): "1f3e0596bf5683541975a114e51b52da43e8cc2f626457c2f14d783de77904d9",
}


@pytest.mark.parametrize(
    "q, d, nodes, covers",
    [
        (TypeAQuiver(4, "FFF"), (5, 5, 5, 5), 672, 1947),
        (TypeAQuiver(5, "FFBF"), (4, 2, 4, 4, 2), 439, 1341),
    ],
)
def test_poset_pinned_sizes(q, d, nodes, covers):
    poset = degeneration_poset(q, d)
    assert (len(poset.nodes), len(poset.covers)) == (nodes, covers)
    # the cover edges in order: the O(N^3) reference is too slow at this size
    edges = json.dumps([[m.text(), n.text()] for m, n in poset.covers])
    assert hashlib.sha256(edges.encode()).hexdigest() == PINNED_COVERS_SHA256[q.label(), d]


def test_local_covers_reject_foreign_class():
    # [1,1] has dimension (1, 0): no node of the (1, 1) poset, so it neither
    # covers [1,2] nor is covered by it
    poset = degeneration_poset(A2, (1, 1))
    assert cls((1, 1)) not in poset.nodes
    assert local_covers(A2, cls((1, 1))) == ()
    assert cls((1, 1)) not in local_covers(A2, cls((1, 2)))
    for m, n in [(cls((1, 1)), cls((1, 2))), (cls((1, 2)), cls((1, 1)))]:
        with pytest.raises(ValueError, match="is not a cover of the degeneration poset"):
            bongartz_data(A2, m, n)
    assert local_covers(A2, cls((1, 2))) == (cls((1, 1), (2, 2)),)
    assert poset.covers == ((cls((1, 2)), cls((1, 1), (2, 2))),)


def test_local_covers_check_raises(monkeypatch):
    monkeypatch.setattr(degen, "hom_vector", lambda q, m: (0,))
    with pytest.raises(InternalCheckError, match="not a strict degeneration"):
        local_covers.__wrapped__(A2, cls((1, 2)))


def test_poset_checks_raise(monkeypatch):
    monkeypatch.setattr(degen, "hom_vector", lambda q, m: (0,))
    with pytest.raises(InternalCheckError, match="not antisymmetric"):
        degeneration_poset(A3, (1, 1, 1))
    monkeypatch.undo()
    monkeypatch.setattr(degen, "semisimple_class", lambda q, d: cls((1, 3)))
    with pytest.raises(InternalCheckError, match="unique maximum"):
        degeneration_poset(A3, (1, 1, 1))
    monkeypatch.undo()
    # a second maximal node: [1,3] loses its covers
    covers = degen.local_covers
    monkeypatch.setattr(degen, "local_covers", lambda q, m: () if m == cls((1, 3)) else covers(q, m))
    with pytest.raises(InternalCheckError, match="unique maximum"):
        degeneration_poset(A3, (1, 1, 1))


def test_semisimple_is_unique_maximum():
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            poset = degeneration_poset(q, d)
            top = semisimple_class(q, d)
            assert all(hom_leq(q, m, top) for m in poset.nodes)


def test_cover_invariants():
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            poset = degeneration_poset(q, d)
            for m, n in poset.covers:
                assert m.dim(q.n) == n.dim(q.n)
                hm, hn = hom_vector(q, m), hom_vector(q, n)
                assert all(a <= b for a, b in zip(hm, hn))
                assert hm != hn


def test_bongartz_a2_example():
    bd = bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2)))
    assert (bd.x1, bd.s1) == (Interval(2, 2), Interval(1, 1))
    assert bd.middle == cls((1, 2))
    assert bd.x_rest == RepClass.empty() and bd.s_rest == RepClass.empty()
    assert bd.x_ker == RepClass.empty()
    assert bd.s_im == cls((1, 1))
    assert bd.s_quot == RepClass.empty()
    assert boundary_check(bd)


def test_bongartz_a3_example():
    bd = bongartz_data(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 2), (3, 3)))
    assert (bd.x1, bd.s1) == (Interval(2, 2), Interval(1, 1))
    assert bd.middle == cls((1, 2))
    assert bd.s_rest == cls((3, 3)) and bd.x_rest == RepClass.empty()
    assert bd.x_ker == RepClass.empty()
    assert bd.s_im == cls((1, 1))
    assert bd.s_quot == cls((3, 3))
    assert boundary_check(bd)


def test_interval_map_parts_match_explicit_maps():
    pairs = 0
    for q in all_quivers(4):
        for u in intervals_of(q):
            for v in intervals_of(q):
                cls_u, cls_v = RepClass(((u, 1),)), RepClass(((v, 1),))
                if hom_dim_classes(q, cls_u, cls_v) != 1:
                    with pytest.raises(InternalCheckError, match="expected 1"):
                        degen._interval_map_parts(q, u, v)
                    continue
                h = hom_basis(explicit_of(q, cls_u), explicit_of(q, cls_v))[0]
                expected = tuple(subquotient_class(h, which) for which in ("kernel", "image", "cokernel"))
                assert degen._interval_map_parts(q, u, v) == expected, (q.label(), str(u), str(v))
                pairs += 1
    assert pairs == 351


def test_bongartz_rejects_non_cover():
    message = "is not a cover of the degeneration poset"
    with pytest.raises(ValueError, match=message):
        bongartz_data(A3, cls((1, 3)), cls((1, 1), (2, 2), (3, 3)))
    with pytest.raises(ValueError, match=message):
        bongartz_data(A3, cls((1, 3)), cls((1, 2), (3, 3), (3, 3)))


def test_boundary_check_catches_swapped_split():
    bd = bongartz_data(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 2), (3, 3)))
    bad = bd._replace(x_rest=bd.s_rest, s_rest=bd.x_rest)
    with pytest.raises(InternalCheckError):
        boundary_check(bad)


def test_boundary_check_catches_wrong_boundary_classes():
    # each stored boundary class, replaced by a wrong one, must be caught by
    # the explicit kernel, image or cokernel of boundary_check
    checked = 0
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            for m, n in degeneration_poset(q, d).covers:
                bd = bongartz_data(q, m, n)
                extra = RepClass(((bd.x1, 1),))
                for field, message in (("x_ker", "Ker"), ("s_im", "Im"), ("s_quot", "S / Im")):
                    bad = bd._replace(**{field: getattr(bd, field).union(extra)})
                    with pytest.raises(InternalCheckError, match=f"^{message}"):
                        boundary_check(bad)
                checked += 1
    assert checked > 0


def test_boundary_check_validates_each_unique_hom_once(monkeypatch):
    # hom_basis validates the two unique maps; reading their kernel, image
    # and cokernel must not validate them again
    from quivergrass.homalg import ExplicitHom

    validated = []
    real = ExplicitHom.validate

    def recording(hom):
        validated.append(hom)
        return real(hom)

    monkeypatch.setattr(ExplicitHom, "validate", recording)
    bd = bongartz_data(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 2), (3, 3)))
    assert boundary_check.__wrapped__(bd)
    assert len(validated) == len(set(map(id, validated))) == 2


def small_covers():
    """(q, bongartz_data) of every cover of A2-A4 (all orientations) with d <= 2 componentwise."""
    for q in all_quivers(4):
        if q.n >= 2:
            for d in vec_boxes((2,) * q.n):
                for m, n in degeneration_poset(q, d).covers:
                    yield q, bongartz_data(q, m, n)


def whole_quiver_identify(f):
    """iso_identify on the whole quiver: Hom counts of every interval, times the inverse Hom table."""
    q = f.quiver
    counts = [homalg.interval_hom_dim(u, f) for u in intervals_of(q)]
    pairs = []
    for u, row in zip(intervals_of(q), homalg._hom_table_inverse(q)):
        value = sum(a * c for a, c in zip(row, counts))
        assert value >= 0, (q.label(), str(u), value)
        if value:
            pairs.append((u, value))
    return RepClass(tuple(pairs))


def whole_quiver_subquotients(h):
    """Kernel, image and cokernel of h by elimination on every block and a solve on every arrow."""
    q = h.source.quiver
    out = []
    for bases, ambient in (([nullspace(m) for m in h.mats], h.source), ([column_space(m) for m in h.mats], h.target)):
        mats = []
        for k in range(q.n - 1):
            s, t = q.edge(k)
            mats.append(solve(bases[t - 1], ambient.mats[k].mul(bases[s - 1])))
        out.append(whole_quiver_identify(ExplicitRep(q, tuple(b.ncols for b in bases), tuple(mats))))
    projections = [left_nullspace(m) for m in h.mats]
    mats = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        rhs = projections[t - 1].mul(h.target.mats[k])
        mats.append(solve(projections[s - 1].transpose(), rhs.transpose()).transpose())
    out.append(whole_quiver_identify(ExplicitRep(q, tuple(p.nrows for p in projections), tuple(mats))))
    return tuple(out)


def test_subquotients_on_the_support_match_the_whole_quiver_route():
    # both unique maps of every small cover: X -> tau S and tau^- X -> S
    maps = {}
    for q, bd in small_covers():
        for src, dst in ((bd.x_class, tau_class(q, bd.s_class)), (tau_class(q, bd.x_class, "inverse"), bd.s_class)):
            maps.setdefault((q, src, dst), None)
    zero_blocks = 0
    for q, src, dst in maps:
        h = degen._unique_hom(q, src, dst)
        zero_blocks += sum(not any(map(any, m.rows)) for m in h.mats)
        found = tuple(homalg.iso_identify(homalg.basis_subquotient(h, which)) for which in ("kernel", "image", "cokernel"))
        assert found == whole_quiver_subquotients(h), (q.label(), str(src), str(dst))
    assert len(maps) > 1000 and zero_blocks > 0


def test_boundary_check_eliminates_no_matrix_with_an_empty_side(monkeypatch):
    covers = list(small_covers())
    for _, bd in covers:
        boundary_check(bd)  # the Hom, inverse Hom and translate tables are built here
    shapes = []
    real = linalg._eliminate

    def recording(m, full):
        shapes.append((m.nrows, m.ncols))
        return real(m, full)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    for _, bd in covers:
        assert boundary_check.__wrapped__(bd)
    assert len(covers) == 4466 and shapes
    assert all(rows and cols for rows, cols in shapes)


def test_boundary_check_catches_a_wrong_class_of_the_right_dimension():
    # a dimension-vector comparison alone passes these; the Hom counts of
    # the subquotient must tell the stored class from its alternative
    caught = {}
    for q, bd in small_covers():
        for field, label in (("x_ker", "Ker(X -> tau S)"), ("s_im", "Im(tau^- X -> S)"), ("s_quot", "S / Im")):
            stored = getattr(bd, field)
            if field in caught or not stored.pairs:
                continue
            others = [m for m in enumerate_rep_classes(q, stored.dim(q.n)) if m != stored]
            if others:
                with pytest.raises(InternalCheckError) as exc:
                    boundary_check(bd._replace(**{field: others[0]}))
                assert str(exc.value) == f"{label} = {stored}, stored {others[0]}"
                caught[field] = (q.label(), stored.text(), others[0].text())
        if len(caught) == 3:
            break
    assert len(caught) == 3, caught


def test_boundary_check_asks_only_the_cover_quivers_hom_table(monkeypatch):
    # the comparison reads [U, stored] from the cover's own Hom table: no
    # sub-quiver table and no inverse table is asked for
    covers = list(small_covers())
    asked, inverted = [], []
    real_table = homalg.hom_table
    monkeypatch.setattr(homalg, "hom_table", lambda q: asked.append(q) or real_table(q))
    monkeypatch.setattr(homalg, "_hom_table_inverse", lambda q: inverted.append(q))
    homalg.hom_vector.cache_clear()  # so that the tables are asked for again
    quivers = set()
    for q, bd in covers:
        assert boundary_check.__wrapped__(bd)
        assert set(asked) <= {q}, (q.label(), [p.label() for p in asked])
        quivers |= set(asked)
        asked.clear()
    assert inverted == [] and quivers == {q for q, _ in covers}


def test_bongartz_split_with_repeated_simple_classes():
    # common contains copies of both the x1 and s1 interval classes; the
    # valid split must send the s1-copy to the x side and vice versa
    m = cls((1, 2), (1, 1), (2, 2))
    n = RepClass.from_pairs([(Interval(1, 1), 2), (Interval(2, 2), 2)])
    bd = bongartz_data(A2, m, n)
    assert (bd.x1, bd.s1) == (Interval(2, 2), Interval(1, 1))
    assert bd.x_rest == cls((1, 1))
    assert bd.s_rest == cls((2, 2))
    assert boundary_check(bd)


def reference_split_common(q, common, x1, s1):
    """The first valid split in bitmask order, starting from everything on
    the x side, checked with class-level Ext, as a reference."""
    classes = common.intervals()
    cls_x1 = RepClass(((x1, 1),))
    cls_s1 = RepClass(((s1, 1),))
    for mask in range(1 << len(classes)):
        s_side = [u for i, u in enumerate(classes) if mask >> i & 1]
        x_side = [u for i, u in enumerate(classes) if not mask >> i & 1]
        x_rest = RepClass.from_pairs((u, common.mult(u)) for u in x_side)
        s_rest = RepClass.from_pairs((u, common.mult(u)) for u in s_side)
        if ext_dim(q, cls_s1, x_rest):
            continue
        if ext_dim(q, cls_x1, x_rest):
            continue
        if ext_dim(q, s_rest, cls_s1):
            continue
        if ext_dim(q, s_rest, cls_x1):
            continue
        if ext_dim(q, s_rest, x_rest):
            continue
        return x_rest, s_rest
    raise InternalCheckError(f"no valid split of {common} around ({x1}, {s1})")


def test_split_matches_reference_search():
    splits = 0
    for q in all_quivers(4):
        for d in vec_boxes(tuple([2] * q.n)):
            for m, n in degeneration_poset(q, d).covers:
                bd = bongartz_data(q, m, n)
                assert (bd.x_rest, bd.s_rest) == reference_split_common(q, bd.common, bd.x1, bd.s1)
                splits += 1
    assert splits == 4466


def test_split_without_valid_side_raises(monkeypatch):
    # with every Ext nonzero, [3,3] is forced onto the S side and is also
    # forbidden there
    monkeypatch.setattr(degen, "ext_intervals", lambda q, u, v: 1)
    with pytest.raises(InternalCheckError, match="no valid split"):
        degen._split_common(A3, cls((3, 3)), Interval(2, 2), Interval(1, 1))


def test_bongartz_reconstruction_and_conditions_sweep():
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            poset = degeneration_poset(q, d)
            for m, n in poset.covers:
                bd = bongartz_data(q, m, n)
                assert bd.middle.union(bd.common) == m
                assert RepClass.from_copies((bd.x1, bd.s1)).union(bd.common) == n
                assert bd.x_rest.union(bd.s_rest) == bd.common
                assert ext_dim(q, bd.s_class, bd.x_class) == 1
                assert ext_dim(q, RepClass(((bd.x1, 1),)), bd.x_rest) == 0
                assert ext_dim(q, bd.s_rest, RepClass(((bd.s1, 1),))) == 0
                assert boundary_check(bd)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bongartz_data_passes_boundary_check_a4_a5(data):
    # interval arithmetic against the explicit route on random covers of
    # A4/A5 orientations with d <= 2 componentwise
    size = data.draw(st.sampled_from((4, 5)))
    q = TypeAQuiver(size, data.draw(st.text(alphabet="FB", min_size=size - 1, max_size=size - 1)))
    d = tuple(data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)))
    covers = degeneration_poset(q, d).covers
    assume(covers)
    m, n = data.draw(st.sampled_from(covers))
    bd = bongartz_data(q, m, n)
    assert bd.middle.union(bd.common) == m
    assert (bd.x_rest, bd.s_rest) == reference_split_common(q, bd.common, bd.x1, bd.s1)
    assert boundary_check(bd)
