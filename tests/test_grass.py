import itertools
import sys
import time
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import grass
from quivergrass.cli import parse_quiver, parse_rep
from quivergrass.degen import bongartz_data, boundary_check, degeneration_poset
from quivergrass.grass import (
    PoincarePoly,
    betti_oracle,
    betti_recursion,
    betti_table,
    first_primes,
    gaussian_binomial,
    gr_interval,
    peel_summand,
    StratumRecord,
    point_count,
    strata_table,
)
from quivergrass.homalg import euler_form, ext_intervals
from quivergrass.quiver import (
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    intervals_of,
    semisimple_class,
    vec_boxes,
    vec_leq,
    vec_sub,
)

A2 = TypeAQuiver(2, "F")
A3 = TypeAQuiver(3, "FF")


def cls(*copies):
    return RepClass.from_copies([Interval(a, b) for a, b in copies])


def poly(*coeffs):
    return PoincarePoly.from_coeffs(coeffs)


def all_quivers(max_n):
    for n in range(1, max_n + 1):
        for flags in itertools.product("FB", repeat=n - 1):
            yield TypeAQuiver(n, "".join(flags))


def test_poly_arithmetic():
    p = poly(1, 2) * poly(1, 1)
    assert p == poly(1, 3, 2)
    assert (p - poly(1, 3, 2)) == PoincarePoly.zero()
    assert poly(1, 1).shift(2) == poly(0, 0, 1, 1)
    assert poly(1, 2, 1).eval_at(2) == 9
    assert poly(1, 1).leq(poly(1, 2)) and not poly(2).leq(poly(1, 5))
    assert poly(1, 0, 3).pretty() == "1 + 3q^2"
    assert poly(1, -1).pretty() == "1 - q"
    assert PoincarePoly.zero().pretty() == "0"
    with pytest.raises(ValueError):
        poly(1).shift(-1)


def test_gaussian_binomial():
    assert gaussian_binomial(3, 1) == poly(1, 1, 1)
    assert gaussian_binomial(4, 2) == poly(1, 1, 2, 1, 1)
    assert gaussian_binomial(2, 3) == PoincarePoly.zero()
    for n in range(6):
        for k in range(n + 1):
            for p in (2, 3, 5):
                assert gaussian_binomial(n, k).eval_at(p) == len(grass._subspaces(n, k, p))


def test_gr_interval_examples():
    assert gr_interval(A2, Interval(1, 2), (0, 0)) == PoincarePoly.one()
    assert gr_interval(A2, Interval(1, 2), (1, 0)) == PoincarePoly.zero()
    assert gr_interval(A2, Interval(1, 2), (0, 1)) == PoincarePoly.one()
    # backward arrow flips the closure direction
    b2 = TypeAQuiver(2, "B")
    assert gr_interval(b2, Interval(1, 2), (1, 0)) == PoincarePoly.one()
    assert gr_interval(b2, Interval(1, 2), (0, 1)) == PoincarePoly.zero()


def reference_peel_order(q, m, reverse=False):
    """Summand copies ordered so earlier ones have no extensions into later
    ones: a topological sort of the summand intervals under "B before A
    whenever Ext^1(A, B) != 0", least first (largest when reverse is set),
    copies of one interval adjacent."""
    classes = sorted(m.intervals())
    preds = {u: set() for u in classes}
    for a in classes:
        for b in classes:
            if a != b and ext_intervals(q, a, b):
                preds[a].add(b)
    order = []
    placed = set()
    while len(placed) < len(classes):
        ready = [u for u in classes if u not in placed and preds[u] <= placed]
        if not ready:
            raise InternalCheckError(f"extension cycle among summands of {m}")
        pick = max(ready) if reverse else min(ready)
        placed.add(pick)
        order.extend([pick] * m.mult(pick))
    return tuple(order)


def peel_path(q, m, reverse=False):
    """The successive peel_summand picks until the class is empty."""
    path = []
    while m.pairs:
        u = peel_summand(q, m, reverse)
        path.append(u)
        m = m.remove_one(u)
    return tuple(path)


def test_peel_order_examples():
    single = cls((1, 2))
    assert peel_path(A2, single) == (Interval(1, 2),)
    assert peel_path(A2, cls((1, 1), (2, 2))) == (Interval(2, 2), Interval(1, 1))
    assert peel_path(A3, cls((1, 2), (3, 3))) == (Interval(3, 3), Interval(1, 2))
    assert peel_summand(A2, cls((1, 1), (2, 2)), reverse=True) == Interval(2, 2)
    assert peel_summand(A3, cls((1, 1), (3, 3)), reverse=True) == Interval(3, 3)


def test_peel_summand_matches_reference_sort():
    checked = 0
    for q in all_quivers(4):
        for d in vec_boxes(tuple([2] * q.n)):
            for m in enumerate_rep_classes(q, d):
                if not m.pairs:
                    continue
                for reverse in (False, True):
                    expected = reference_peel_order(q, m, reverse)[0]
                    assert peel_summand(q, m, reverse) == expected, (q.label(), m.text(), reverse)
                    checked += 1
    assert checked == 7104


def test_peel_summand_without_candidate_raises(monkeypatch):
    monkeypatch.setattr(grass, "ext_intervals", lambda q, u, v: 1)
    with pytest.raises(InternalCheckError, match="extension cycle"):
        peel_summand(A2, cls((1, 1), (2, 2)))


@given(st.sampled_from(list(all_quivers(4))), st.data())
@settings(max_examples=50, deadline=None)
def test_peel_order_is_valid(q, data):
    intervals = list(intervals_of(q))
    copies = data.draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=5))
    m = RepClass.from_copies(copies)
    path = peel_path(q, m)
    assert sorted(path) == sorted(m.copies())
    for i, u in enumerate(path):
        for v in path[i + 1 :]:
            if u != v:
                assert ext_intervals(q, u, v) == 0


def test_betti_pinned_values():
    assert betti_recursion(A2, cls((1, 2), (1, 1)), (1, 1)) == poly(1, 1)
    p13 = RepClass.from_pairs([(Interval(1, 2), 3)])
    assert betti_recursion(A2, p13, (1, 2)) == poly(1, 2, 2, 1)
    mi = RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1), (Interval(2, 2), 1)])
    value = betti_recursion(A2, mi, (1, 2))
    assert value == poly(1, 2, 3, 1)
    assert value.eval_at(1) == 7


_REFERENCE_MEMO: dict = {}


def reference_betti(q, m, e, reverse=False):
    """The peeling recursion with a single-copy base case, one memo dict and
    every vector g <= e under the peeled interval tried against gr_interval."""
    if any(x < 0 for x in e) or not vec_leq(e, m.dim(q.n)):
        return PoincarePoly.zero()
    key = (q, m, e, reverse)
    hit = _REFERENCE_MEMO.get(key)
    if hit is not None:
        return hit
    if not m.pairs:
        result = PoincarePoly.one()
    elif len(m.copies()) == 1:
        result = gr_interval(q, m.pairs[0][0], e)
    else:
        quot = reference_peel_order(q, m, reverse)[0]
        rest = m.remove_one(quot)
        d_rest = rest.dim(q.n)
        ind = quot.indicator(q.n)
        result = PoincarePoly.zero()
        for g in itertools.product(*(range(min(a, b) + 1) for a, b in zip(e, ind))):
            f = vec_sub(e, g)
            if not vec_leq(f, d_rest):
                continue
            pf = reference_betti(q, rest, f, reverse)
            if pf and gr_interval(q, quot, g):
                exponent = euler_form(q, g, vec_sub(d_rest, f))
                assert exponent >= 0
                result = result + pf.shift(exponent)
    _REFERENCE_MEMO[key] = result
    return result


def test_betti_matches_reference_recursion():
    checked = 0
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            for m in enumerate_rep_classes(q, d):
                tables = {reverse: betti_table(q, m, reverse_peel=reverse) for reverse in (False, True)}
                for reverse, table in tables.items():
                    assert list(table) == list(vec_boxes(d))
                for e in vec_boxes(d):
                    for reverse in (False, True):
                        expected = reference_betti(q, m, e, reverse)
                        assert betti_recursion(q, m, e, reverse_peel=reverse) == expected, (
                            q.label(), m.text(), e, reverse
                        )
                        assert tables[reverse][e] == expected, (q.label(), m.text(), e, reverse)
                        checked += 1
    assert checked == 7820


@given(st.sampled_from(list(all_quivers(5))), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_betti_table_is_box_independent(q, data):
    d = tuple(data.draw(st.lists(st.integers(0, 2), min_size=q.n, max_size=q.n)))
    m = data.draw(st.sampled_from(enumerate_rep_classes(q, d)))
    lo = tuple(data.draw(st.integers(-1, x + 1)) for x in d)
    hi = tuple(data.draw(st.integers(a - 1, x + 1)) for a, x in zip(lo, d))
    box = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    for reverse in (False, True):
        table = betti_table(q, m, lo, hi, reverse_peel=reverse)
        full = betti_table(q, m, reverse_peel=reverse)
        assert list(table) == box
        for e in box:
            expected = reference_betti(q, m, e, reverse)
            assert table[e] == expected, (q.label(), m.text(), lo, hi, e, reverse)
            assert full.get(e, PoincarePoly.zero()) == expected


@pytest.fixture
def fresh_betti_tables():
    """Betti tables and peel terms computed under a patched Euler form must not
    outlive the test."""
    for memo in (grass._betti_table, grass._peel_terms):
        memo.cache_clear()
    yield
    for memo in (grass._betti_table, grass._peel_terms):
        memo.cache_clear()


def test_betti_negative_fiber_dimension_raises(monkeypatch, fresh_betti_tables):
    monkeypatch.setattr(grass, "euler_form", lambda q, d, e: -1)
    m = RepClass.from_pairs([(Interval(1, 2), 2), (Interval(2, 3), 1)])
    with pytest.raises(InternalCheckError, match="negative fiber dimension"):
        betti_table(A3, m)
    with pytest.raises(InternalCheckError, match="negative fiber dimension"):
        betti_recursion(A3, m, (1, 1, 0), reverse_peel=True)


def test_betti_table_too_many_copies_is_a_value_error():
    copies = sys.getrecursionlimit() + 1
    m = RepClass.from_pairs([(Interval(1, 1), copies)])
    with pytest.raises(ValueError, match=f"{copies} summand copies nest the peeling recursion too deep"):
        betti_table(TypeAQuiver(1), m)
    with pytest.raises(ValueError, match="length"):
        betti_table(A3, cls((1, 2)), (0, 0))


def test_betti_out_of_range_e_is_zero():
    m = RepClass.from_pairs([(Interval(1, 2), 2), (Interval(2, 3), 1)])
    for q in (A3, TypeAQuiver(3, "BF")):
        for e in ((-1, 0, 0), (0, -1, 1), (3, 0, 0), (1, 4, 1), (0, 0, 2), (2, 3, 2)):
            for reverse in (False, True):
                assert betti_recursion(q, m, e, reverse_peel=reverse) == PoincarePoly.zero()
        assert betti_recursion(q, RepClass.empty(), (0, -1, 0)) == PoincarePoly.zero()
    with pytest.raises(ValueError, match="length"):
        betti_recursion(A3, m, (1, 1))


def test_point_count_examples():
    p13 = RepClass.from_pairs([(Interval(1, 2), 3)])
    assert point_count(A2, p13, (0, 0), 2) == 1
    assert point_count(A2, p13, (1, 2), 2) == 21
    mi = RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1), (Interval(2, 2), 1)])
    assert point_count(A2, mi, (1, 2), 2) == 25
    with pytest.raises(ValueError):
        point_count(A2, p13, (1, 2), 4)


def _reduce_mod(vec, rows, pivots, p):
    """True when vec lies in the row space spanned by the echelon rows."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        if v[c]:
            coef = v[c]
            v = [(x - coef * y) % p for x, y in zip(v, row)]
    return not any(v)


def test_point_count_brute_force_cross_check(monkeypatch):
    """Check the closed forms and the parity walk against a direct enumeration."""

    def brute(q, m, e, p):
        from quivergrass.grass import _subspaces, _mat_mod, _apply

        d = m.dim(q.n)
        rep = explicit_of(q, m)
        mats = [_mat_mod(mat, p) for mat in rep.mats]
        spaces = [_subspaces(d[v], e[v], p) for v in range(q.n)]
        count = 0
        for combo in itertools.product(*spaces):
            ok = True
            for k in range(q.n - 1):
                s, t = q.edge(k)
                rows_s, _ = combo[s - 1]
                rows_t, pivots_t = combo[t - 1]
                for vec in rows_s:
                    if not _reduce_mod(_apply(mats[k], list(vec), p), rows_t, pivots_t, p):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
        return count

    a2b = TypeAQuiver(2, "B")
    left_big = RepClass.from_pairs([(Interval(1, 2), 1), (Interval(1, 1), 2)])
    right_big = RepClass.from_pairs([(Interval(1, 2), 1), (Interval(2, 2), 2)])
    chain3 = RepClass.from_pairs([(Interval(1, 1), 3), (Interval(1, 3), 1)])
    cases = [
        (A2, cls((1, 2), (1, 1)), (1, 1), 3),
        (A2, RepClass.from_pairs([(Interval(1, 2), 2)]), (1, 1), 2),
        (A3, cls((1, 3), (2, 2)), (1, 1, 1), 2),
        (TypeAQuiver(3, "FB"), cls((1, 2), (2, 3)), (1, 1, 1), 3),
        (a2b, cls((1, 2), (2, 2)), (1, 1), 5),
        # last vertex on the arrow's head, walked left to right
        (A2, right_big, (1, 1), 5),
        # larger Grassmannian first: the walk is reversed and ends on the arrow's tail
        (A2, left_big, (1, 0), 7),
        # last vertex on the arrow's tail, walked left to right
        (a2b, right_big, (0, 1), 7),
        # reversed walk ending on the arrow's head
        (a2b, left_big, (2, 1), 5),
        # three linked vertices (4,2)-(1,0)-(1,1), walked from vertex 3
        (TypeAQuiver(3, "FB"), chain3, (2, 0, 1), 5),
        (TypeAQuiver(3, "FB"), chain3, (2, 0, 1), 2),
        # (1,1)-(1,0)-(4,2), walked from vertex 1
        (TypeAQuiver(3, "FB"), RepClass.from_pairs([(Interval(1, 3), 1), (Interval(3, 3), 3)]), (1, 0, 2), 7),
        # both arrows leave the middle vertex: inner step against the arrow
        (TypeAQuiver(3, "BF"), RepClass.from_pairs([(Interval(1, 1), 2), (Interval(1, 3), 1)]), (1, 1, 0), 5),
        (TypeAQuiver(3, "BB"), RepClass.from_pairs([(Interval(1, 3), 1), (Interval(3, 3), 2)]), (0, 0, 2), 5),
    ]
    for q, m, e, p in cases:
        assert point_count(q, m, e, p) == brute(q, m, e, p), (q.label(), m.text(), e, p)

    # runs of three and four vertices: which parity class the walk enumerates
    # (0: the run's first vertex and every other one after it), and the arrows
    # at the vertices it counts in closed form, out of or into that vertex
    m3 = "[1,2],[2,2],[2,3],[3,3]"
    m4 = "[1,1],[1,2],[2,3],[3,4],[4,4]"
    walks = [
        ("A3:FB", m3, (1, 1, 1), 3, 0),  # middle: in, in
        ("A3:FF", m3, (1, 1, 1), 3, 0),  # middle: in, out
        ("A3:BF", m3, (0, 1, 1), 3, 0),  # middle: out, out
        # the same shapes with rank-2 arrows, where the subspaces meet at an angle
        ("A3:FB", "[1,3]x2,[2,2]x2", (1, 2, 1), 3, 0),
        ("A3:FF", "[1,3]x2,[2,2]x2", (1, 2, 1), 3, 0),
        ("A3:BF", "[1,3]x2,[2,2]x2", (1, 2, 1), 3, 0),
        ("A3:FF", "[1,1],[1,2],[2,2],[2,3],[3,3]x2", (1, 1, 1), 3, 1),  # ends: out, in
        ("A4:FFF", m4, (1, 1, 1, 1), 3, 0),  # between: in, out; end: in
        ("A4:FFB", m4, (1, 1, 1, 1), 3, 0),  # end: out
        ("A4:FBF", m4, (1, 1, 1, 1), 3, 0),  # between: in, in
        ("A4:BFF", m4, (1, 1, 1, 1), 3, 0),  # between: out, out
        ("A4:BFF", "[1,1],[1,3],[3,4],[4,4]", (1, 1, 1, 1), 3, 1),  # end: in
        ("A4:FFF", "[1,1],[1,2],[2,3],[3,4]", (1, 1, 1, 0), 3, 1),  # end: out; between: in, out
        ("A4:FFB", "[1,1],[1,2],[2,3],[3,4]", (1, 1, 1, 1), 3, 1),  # between: in, in
        ("A4:FBF", "[1,1],[1,3],[3,4],[4,4]", (1, 0, 1, 1), 3, 1),  # between: out, out
    ]
    original = grass._subspaces
    for label, rep, e, p, parity in walks:
        q = parse_quiver(label)
        m = parse_rep(rep, q)
        d = m.dim(q.n)
        (run,) = [run for run in grass._segments(q, m, d, e) if len(run) > 2]
        requested = set()
        monkeypatch.setattr(grass, "_subspaces", lambda n, k, p: requested.add((n, k, p)) or original(n, k, p))
        count = point_count(q, m, e, p)
        monkeypatch.setattr(grass, "_subspaces", original)
        assert requested == {(d[v - 1], e[v - 1], p) for v in run[parity::2]}, (label, rep, e)
        assert count == brute(q, m, e, p) > 0, (label, rep, e, p)


def test_face_rows_cut_out_the_preimage():
    # on A2:F with arrow 1 -> 2: seen from vertex 1, the face of a subspace U
    # at vertex 2 has constraint rows with common kernel A^-1(U); seen from
    # vertex 2, the face of U at vertex 1 has images spanning A U
    q = A2
    for p in (3, 5):
        for d1, d2 in ((2, 2), (2, 3), (3, 2), (1, 3)):
            for seed in range(3):
                a = [tuple((seed * i + i * j + j * j + 1) % p for j in range(d1)) for i in range(d2)]
                vectors = list(itertools.product(range(p), repeat=d1))
                for k in range(d2 + 1):
                    for rows, pivots in grass._subspaces(d2, k, p):
                        images, low, cons, cut = grass._face(q, [a], 2, 1, rows, pivots, p)
                        assert images == [] and low == 0 and cut == grass._rank_mod(cons, p)
                        for x in vectors:
                            inside = _reduce_mod(grass._apply(a, x, p), rows, pivots, p)
                            assert inside == all(sum(map(mul, y, x)) % p == 0 for y in cons), (p, a, rows, x)
                for k in range(d1 + 1):
                    for rows, pivots in grass._subspaces(d1, k, p):
                        images, low, cons, cut = grass._face(q, [a], 1, 2, rows, pivots, p)
                        assert cons == [] and cut == 0
                        assert images == [grass._apply(a, row, p) for row in rows] and low == grass._rank_mod(images, p)


def reference_segments(q, m, d, e, p):
    """Runs of vertices linked by arrows whose matrix mod p is nonzero, with
    e nonzero at the source and short of d at the target."""
    mats = [grass._mat_mod(mat, p) for mat in explicit_of(q, m).mats]
    active = []
    for k in range(q.n - 1):
        s, t = q.edge(k)
        nonzero = any(any(row) for row in mats[k])
        active.append(nonzero and e[s - 1] > 0 and e[t - 1] < d[t - 1])
    segments = [[1]]
    for v in range(2, q.n + 1):
        if active[v - 2]:
            segments[-1].append(v)
        else:
            segments.append([v])
    return segments


def test_segments_match_matrix_rule():
    checked = 0
    for q in all_quivers(4):
        for d in vec_boxes(tuple([2 if q.n < 4 else 1] * q.n)):
            for m in enumerate_rep_classes(q, d):
                for e in vec_boxes(d):
                    for p in (2, 3):
                        assert grass._segments(q, m, d, e) == reference_segments(q, m, d, e, p), (
                            q.label(), m.text(), e, p
                        )
                        checked += 1
    assert checked == 12124


@pytest.mark.parametrize(
    "label, rep, e, p, cost",
    [
        ("A2:F", "[1,2]x3", (1, 2), 7, 3363),
        ("A3:FF", "[1,3]x2,[2,2],[1,2]", (1, 2, 1), 2, 395),
        ("A4:FFB", "[1,1],[1,2],[2,2]x3", (1, 1, 0, 0), 5, 1098),
        ("A4:FBF", "[1,4]x2,[2,3]", (1, 1, 1, 1), 11, 21171),
        ("A3:BF", "[1,1]x2,[2,2]x2,[3,3]", (1, 1, 1), 13, 0),
        ("A5:FFBF", "[1,2],[2,4]x2,[4,5],[3,3]", (1, 1, 1, 1, 1), 7, 6727),
    ],
)
def test_enum_cost_pinned(label, rep, e, p, cost):
    # bench/build_universe.py selects and refuses oracle items by these values
    q = parse_quiver(label)
    assert grass._enum_cost(q, parse_rep(rep, q), e, p) == cost


def test_point_count_enumerates_only_one_parity_class(monkeypatch):
    requested = []
    original = grass._subspaces

    def recording(ambient, k, p):
        requested.append((ambient, k, p))
        return original(ambient, k, p)

    monkeypatch.setattr(grass, "_subspaces", recording)
    # a two-vertex run is counted in closed form: nothing is enumerated
    q = TypeAQuiver(3, "BB")
    m = RepClass.from_pairs([(Interval(1, 2), 1), (Interval(2, 2), 4)])
    assert point_count(q, m, (0, 4, 0), 13) == betti_recursion(q, m, (0, 4, 0)).eval_at(13)
    q = TypeAQuiver(3, "FF")
    m = RepClass.from_pairs([(Interval(1, 1), 4), (Interval(1, 2), 1)])
    assert point_count(q, m, (4, 0, 0), 13) == betti_recursion(q, m, (4, 0, 0)).eval_at(13)
    assert requested == []
    # three-vertex runs whose middle vertex is Gr(2, 4): only the ends are listed
    q = parse_quiver("A4:BBF")
    m = parse_rep("[1,3],[2,2]x3", q)
    assert point_count(q, m, (0, 2, 1, 0), 13) == betti_recursion(q, m, (0, 2, 1, 0)).eval_at(13)
    assert sorted(requested) == [(1, 0, 13), (1, 1, 13)]
    # here the middle vertex Gr(0, 1) is listed, and the ends Gr(2, 4), Gr(1, 1) are not
    requested.clear()
    q = parse_quiver("A4:FFB")
    m = parse_rep("[2,2]x3,[2,4]", q)
    assert point_count(q, m, (0, 2, 0, 1), 13) == betti_recursion(q, m, (0, 2, 0, 1)).eval_at(13)
    assert requested == [(1, 0, 13)]


def _sweep_with_long_runs():
    """(q, m, e) of A3 (d <= 2), A4 and A5 (d <= 1) with a run of three or more vertices."""
    for q, bound in [(q, 2) for q in all_quivers(3) if q.n == 3] + [(q, 1) for q in all_quivers(5) if q.n >= 4]:
        for d in vec_boxes((bound,) * q.n):
            for m in enumerate_rep_classes(q, d):
                for e in vec_boxes(d):
                    if max(map(len, grass._segments(q, m, d, e))) >= 3:
                        yield q, m, e


def test_point_count_exact_on_long_runs():
    checked = longest = 0
    for q, m, e in _sweep_with_long_runs():
        value = betti_recursion(q, m, e)
        longest = max(longest, *map(len, grass._segments(q, m, m.dim(q.n), e)))
        for p in (2, 3):
            assert point_count(q, m, e, p) == value.eval_at(p), (q.label(), m.text(), e, p)
            checked += 1
    assert (checked, longest) == (1576, 5)


def test_point_count_work_within_enum_cost(monkeypatch):
    # the budget guard charges _enum_cost; the walk lists subspaces of one
    # parity class and visits pairs of them through _between with two faces
    visits = []
    original_subspaces, original_between = grass._subspaces, grass._between

    def listing(ambient, k, p):
        spaces = original_subspaces(ambient, k, p)
        visits.append(len(spaces))
        return spaces

    def between(d_v, e_v, faces, p):
        visits.append(len(faces) - 1)
        return original_between(d_v, e_v, faces, p)

    monkeypatch.setattr(grass, "_subspaces", listing)
    monkeypatch.setattr(grass, "_between", between)
    for q, m, e in _sweep_with_long_runs():
        for p in (2, 3):
            visits.clear()
            point_count(q, m, e, p)
            assert sum(visits) <= grass._enum_cost(q, m, e, p), (q.label(), m.text(), e, p)


@given(st.lists(st.integers(0, 50), max_size=8), st.sets(st.integers(-30, 30), min_size=8, max_size=12))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_interpolate_recovers_integer_polynomials(coeffs, nodes):
    target = PoincarePoly.from_coeffs(coeffs)
    xs = sorted(nodes)[: max(1, len(coeffs))]
    raw = grass._interpolate([(x, target.eval_at(x)) for x in xs])
    assert len(raw) == len(xs) and all(type(c) is int for c in raw)
    assert PoincarePoly.from_coeffs(raw) == target


def test_interpolate_rejects_non_integer_polynomials():
    assert grass._interpolate([(0, 0), (2, 1)]) is None  # X / 2
    assert grass._interpolate([(2, 0), (3, 0), (5, 1)]) is None  # (X - 2)(X - 3) / 6
    assert grass._interpolate([(2, 1), (3, 1), (5, 7)]) == [7, -5, 1]
    assert grass._interpolate([]) == []


def test_betti_oracle_rejects_a_count_off_by_one(monkeypatch):
    q = parse_quiver("A3:FF")
    m = parse_rep("[1,2],[2,2],[2,3],[3,3]", q)
    e = (1, 1, 1)
    assert betti_oracle(q, m, e) == betti_recursion(q, m, e)
    primes = first_primes(sum(x * (y - x) for x, y in zip(e, m.dim(q.n))) + 2)
    original = grass.point_count
    for wrong in primes:
        monkeypatch.setattr(grass, "point_count", lambda q, m, e, p: original(q, m, e, p) + (p == wrong))
        with pytest.raises(InternalCheckError, match="interpolat"):
            betti_oracle(q, m, e)
    # a negative coefficient: the counts of 1 - q + q^2
    monkeypatch.setattr(grass, "point_count", lambda q, m, e, p: 1 - p + p * p)
    with pytest.raises(InternalCheckError, match="do not interpolate to Betti numbers"):
        betti_oracle(q, m, e)


@given(st.sampled_from([q for q in all_quivers(5) if q.n >= 2]), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_betti_oracle_matches_recursion_random(q, data):
    intervals = list(intervals_of(q))
    m = RepClass.from_copies(data.draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=4)))
    d = m.dim(q.n)
    boxes = [e for e in vec_boxes(d) if sum(x * (y - x) for x, y in zip(e, d)) <= 4]
    e = data.draw(st.sampled_from(boxes))
    assert betti_oracle(q, m, e) == betti_recursion(q, m, e)


def test_betti_oracle_examples():
    for q in all_quivers(3):
        for u in intervals_of(q):
            m = RepClass(((u, 1),))
            for e in vec_boxes(m.dim(q.n)):
                assert betti_oracle(q, m, e) == gr_interval(q, u, e)
    assert betti_oracle(A2, cls((1, 1), (2, 2)), (1, 1)) == PoincarePoly.one()
    m = RepClass.from_pairs([(Interval(1, 3), 2), (Interval(2, 3), 1), (Interval(1, 1), 1)])
    assert betti_oracle(A3, m, (1, 2, 2)) == betti_recursion(A3, m, (1, 2, 2))


def test_betti_oracle_matches_recursion_on_a4_sample():
    # deterministic sample covering every orientation of the 4-vertex quiver
    picks = [
        (cls((1, 4), (2, 3)), (1, 1, 1, 0)),
        (cls((1, 2), (2, 4), (3, 3)), (1, 1, 1, 1)),
        (RepClass.from_pairs([(Interval(1, 4), 2)]), (1, 1, 1, 1)),
        (cls((1, 1), (2, 2), (1, 3), (4, 4)), (1, 1, 1, 1)),
    ]
    for flags in itertools.product("FB", repeat=3):
        q = TypeAQuiver(4, "".join(flags))
        for m, e in picks:
            assert betti_oracle(q, m, e) == betti_recursion(q, m, e), (q.label(), m.text(), e)


def test_betti_oracle_budget_guard():
    p13 = RepClass.from_pairs([(Interval(1, 2), 3)])
    with pytest.raises(ValueError, match="budget"):
        betti_oracle(A2, p13, (1, 2), budget=1)


def test_point_count_matches_betti_eval():
    for q in [A2, TypeAQuiver(2, "B"), A3, TypeAQuiver(3, "BF")]:
        for d in vec_boxes(tuple([2] * q.n)):
            for m in enumerate_rep_classes(q, d):
                for e in vec_boxes(d):
                    value = betti_recursion(q, m, e)
                    for p in (2, 3):
                        assert value.eval_at(p) == point_count(q, m, e, p)


def test_peel_independence_sampled():
    for q in [A2, A3, TypeAQuiver(3, "BF")]:
        for d in vec_boxes(tuple([2] * q.n)):
            for m in enumerate_rep_classes(q, d):
                for e in vec_boxes(d):
                    assert betti_recursion(q, m, e) == betti_recursion(
                        q, m, e, reverse_peel=True
                    )


def test_semisimple_betti_is_gaussian_product():
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            top = semisimple_class(q, d)
            for e in vec_boxes(d):
                expected = PoincarePoly.one()
                for dv, ev in zip(d, e):
                    expected = expected * gaussian_binomial(dv, ev)
                assert betti_recursion(q, top, e) == expected


def test_strata_a2_examples():
    bd = bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2)))
    records = strata_table(bd, (1, 0))
    nonzero = [r for r in records if r.base_poly]
    assert len(nonzero) == 1
    rec = nonzero[0]
    assert (rec.f, rec.g, rec.i, rec.shift) == ((0, 0), (1, 0), 1, 0)
    assert rec.base_poly == PoincarePoly.one()

    records = strata_table(bd, (1, 1))
    nonzero = [r for r in records if r.base_poly]
    assert len(nonzero) == 1
    rec = nonzero[0]
    assert (rec.f, rec.g, rec.i, rec.shift) == ((0, 1), (1, 0), 0, 0)
    assert rec.base_poly == PoincarePoly.one()


def test_strata_a3_example():
    bd = bongartz_data(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 2), (3, 3)))
    records = strata_table(bd, (1, 0, 0))
    nonzero = [r for r in records if r.base_poly]
    assert len(nonzero) == 1
    rec = nonzero[0]
    assert (rec.f, rec.g, rec.i, rec.shift) == ((0, 0, 0), (1, 0, 0), 1, 0)
    assert rec.base_poly == PoincarePoly.one()


def test_strata_zero_records_have_zero_shift():
    bd = bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2)))
    for rec in strata_table(bd, (1, 1)):
        if not rec.base_poly:
            assert rec.shift == 0


def strata_sum(records, which=None):
    """Sum q^shift * base over the records, optionally filtered by i: the reference fold of a strata table."""
    total = PoincarePoly.zero()
    for rec in records:
        if (which is None or rec.i == which) and rec.base_poly:
            total = total + rec.base_poly.shift(rec.shift)
    return total


def strata_kernel_table(bd, lo=None, hi=None):
    """The i = 1 strata sums of bd, unpacked, at every lo <= e <= hi in lexicographic order, zeros included.

    The box defaults to 0 <= e <= dim m.  Entry e must equal
    strata_sum(strata_table(bd, e), 1).
    """
    q = bd.quiver
    lo = (0,) * q.n if lo is None else tuple(lo)
    dim_m = grass._cover_dim(bd)
    hi = dim_m if hi is None else tuple(hi)
    w, mask = grass.cover_slots(dim_m)
    sums1, _ = grass.strata_sums(bd, lo, hi, (w, mask))
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return {e: grass.unpack(sums1.get(e, 0), w) for e in box}


def reference_strata_table(bd, e):
    """Every split f + g = e computed in full, with no support restriction."""
    q = bd.quiver
    boundary_check(bd)
    x_class, s_class = bd.x_class, bd.s_class
    dim_x = x_class.dim(q.n)
    s_vec = bd.s_im.dim(q.n)
    records = []
    for f in itertools.product(*(range(x + 1) for x in e)):
        g = vec_sub(e, f)
        g_red = tuple(x - y for x, y in zip(g, s_vec))
        base1 = betti_recursion(q, bd.x_ker, f) * betti_recursion(q, bd.s_quot, g_red)
        product = betti_recursion(q, x_class, f) * betti_recursion(q, s_class, g)
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
        records.append(StratumRecord(f, g, 0, shift0, base0))
        records.append(StratumRecord(f, g, 1, shift1, base1))
    return tuple(records)


def test_strata_table_matches_reference_over_a1_a3():
    tables = 0
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            for m, n in degeneration_poset(q, d).covers:
                bd = bongartz_data(q, m, n)
                kernels = strata_kernel_table(bd)
                assert list(kernels) == list(vec_boxes(d))
                for e in vec_boxes(d):
                    expected = reference_strata_table(bd, e)
                    assert strata_table(bd, e) == expected, (q.label(), str(m), str(n), e)
                    assert kernels[e] == strata_sum(expected, 1), (q.label(), str(m), str(n), e)
                    tables += 1
    assert tables == 3936


@given(st.sampled_from([q for q in all_quivers(5) if q.n >= 4]), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_strata_kernel_table_matches_per_e_tables(q, data):
    d = tuple(data.draw(st.lists(st.integers(0, 2), min_size=q.n, max_size=q.n)))
    covers = degeneration_poset(q, d).covers
    if not covers:
        return
    m, n = data.draw(st.sampled_from(covers))
    bd = bongartz_data(q, m, n)
    kernels = strata_kernel_table(bd)
    assert list(kernels) == list(vec_boxes(d))
    for e in vec_boxes(d):
        assert kernels[e] == strata_sum(strata_table(bd, e), 1), (q.label(), str(m), str(n), e)
    # a box lo <= hi, possibly empty or past 0 <= e <= dim m, reads the
    # whole-box table there, zeros outside it, in the same key order
    lo = tuple(data.draw(st.integers(-1, x + 1)) for x in d)
    hi = tuple(data.draw(st.integers(a - 1, x + 2)) for a, x in zip(lo, d))
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    expected = [(e, kernels.get(e, PoincarePoly.zero())) for e in box]
    assert list(strata_kernel_table(bd, lo, hi).items()) == expected, (q.label(), str(m), str(n), lo, hi)
    # the walk over a box lo <= hi, possibly past dim m, is the whole-box walk
    # cut down to lo <= f + g <= hi
    lo = tuple(data.draw(st.integers(0, x + 1)) for x in d)
    hi = tuple(data.draw(st.integers(a, x + 2)) for a, x in zip(lo, d))
    slots = grass.cover_slots(d)
    whole = list(grass._strata_terms(bd, (0,) * q.n, d, slots))
    inside = [t for t in whole if all(a <= x + y <= b for a, x, y, b in zip(lo, t[0], t[1], hi))]
    assert list(grass._strata_terms(bd, lo, hi, slots)) == inside, (q.label(), str(m), str(n), lo, hi)


def test_strata_table_split_budget(monkeypatch):
    bd = bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2)))
    real_check = grass.boundary_check
    monkeypatch.setattr(grass, "boundary_check", lambda bd: pytest.fail("boundary_check ran before the budget"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="split count 1002001 exceeds budget"):
        strata_table(bd, (1000, 1000))
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(grass, "boundary_check", real_check)
    assert len(strata_table(bd, (10, 10))) == 242


def test_strata_negative_complement_raises(monkeypatch):
    # a stored x_ker larger than X makes the i = 1 base exceed the product
    bd = bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2)))
    bad = bd._replace(x_ker=bd.x_class.union(bd.x_class), s_im=RepClass.empty(), s_quot=bd.s_class)
    monkeypatch.setattr(grass, "boundary_check", lambda bd: True)
    with pytest.raises(InternalCheckError, match="negative count"):
        strata_table(bad, (1, 1))
    with pytest.raises(InternalCheckError, match="negative count"):
        strata_kernel_table(bad)


@given(st.lists(st.integers(0, 127), max_size=6), st.lists(st.integers(0, 127), max_size=6), st.integers(0, 3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_packed_polynomials_match_poincare_polys(a, b, k):
    # slots of 32 bits, 10 of them under the guard mask of (4, 4, 2)
    w, mask = 32, grass.guard_mask(32, (4, 4, 2))
    pa, pb = PoincarePoly.from_coeffs(a), PoincarePoly.from_coeffs(b)
    packed_a, packed_b = grass.pack(pa, w), grass.pack(pb, w)
    assert grass.unpack(packed_a, w) == pa
    assert grass.unpack(packed_a + packed_b, w) == pa + pb
    assert grass.unpack(packed_a * packed_b, w) == pa * pb
    assert grass.unpack(packed_a << w * k, w) == pa.shift(k)
    assert grass.packed_leq(packed_a, packed_b, mask) == pa.leq(pb)
    assert grass.packed_leq(packed_a << w * k, packed_a + (packed_b << w * k), mask) == pa.shift(k).leq(pa + pb.shift(k))


def test_pack_refuses_a_coefficient_at_the_guard_bit():
    assert grass.pack(poly(127, 0, 5), 8) == 127 + (5 << 16)
    for bad in (poly(128), poly(1, -1)):
        with pytest.raises(InternalCheckError, match="sets a guard bit at slot width 8"):
            grass.pack(bad, 8)


def test_stratum_rule_compares_slot_by_slot():
    # base1 = q is below the product 1 + q^2 as an int, but not in slot 1
    w, mask = 8, grass.guard_mask(8, (2, 2))
    product = grass.pack(poly(1, 0, 1), w)
    with pytest.raises(InternalCheckError, match=r"negative count at f=\(0, 0\), g=\(1, 1\): 1 - q \+ q\^2"):
        grass._stratum_rule((0, 0), (1, 1), product, grass.pack(poly(0, 1), w), 0, mask, w)
    assert grass._stratum_rule((0, 0), (1, 1), product, 1, 2, mask, w) == (grass.pack(poly(0, 0, 1), w), 2, 1, 3)


def test_verify_asks_betti_only_inside_the_dimension_box(monkeypatch):
    """Every packed table of a sweep lies inside 0 <= e <= dim m and uses the
    sweep's one slot width."""
    from quivergrass import specialize

    boxes = []
    real = grass.packed_betti_table

    def recording(q, m, lo, hi, w, **kwargs):
        boxes.append((q, m, lo, hi, w))
        return real(q, m, lo, hi, w, **kwargs)

    monkeypatch.setattr(grass, "packed_betti_table", recording)
    for q in all_quivers(3):
        if q.n == 3:
            assert not specialize.verify_theorem(q, (2, 2, 2)).failures
    assert boxes
    for q, m, lo, hi, w in boxes:
        assert all(0 <= a <= b for a, b in zip(lo, hi)) and vec_leq(hi, m.dim(q.n)), (q.label(), str(m), lo, hi)
        assert w == grass.slot_width((2, 2, 2)), (q.label(), str(m), w)


def test_verify_runs_each_cover_check_once(monkeypatch):
    """One boundary_check per cover, and the per-pair rule once on each support pair
    that the per-e tables visit over all e <= d."""
    from quivergrass import specialize

    checked, pairs = [], []
    real_check, real_rule = grass.boundary_check, grass._stratum_rule

    def recording_check(bd):
        checked.append(bd)
        return real_check(bd)

    def recording_rule(f, g, *args):
        pairs.append((f, g))
        return real_rule(f, g, *args)

    monkeypatch.setattr(grass, "boundary_check", recording_check)
    monkeypatch.setattr(grass, "_stratum_rule", recording_rule)
    q, d = TypeAQuiver(3, "FB"), (2, 2, 2)
    covers = degeneration_poset(q, d).covers
    assert not specialize.verify_theorem(q, d).failures
    assert checked == [bongartz_data(q, m, n) for m, n in covers]
    swept = len(pairs)
    per_cover = 0
    for m, n in covers:
        bd = bongartz_data(q, m, n)
        del pairs[:]
        strata_kernel_table(bd)
        whole = list(pairs)
        del pairs[:]
        for e in vec_boxes(d):
            strata_table(bd, e)
        assert sorted(whole) == sorted(pairs) and len(set(whole)) == len(whole), (str(m), str(n))
        per_cover += len(whole)
    assert swept == per_cover


def test_strata_reconstruction_sweep():
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            poset = degeneration_poset(q, d)
            for m, n in poset.covers:
                bd = bongartz_data(q, m, n)
                for e in vec_boxes(d):
                    records = strata_table(bd, e)
                    assert strata_sum(records) == betti_recursion(q, n, e)
                    assert strata_sum(records, 0) == betti_recursion(q, m, e)
                    for rec in records:
                        if rec.base_poly:
                            assert rec.shift >= 0
                            assert rec.base_poly.is_nonneg()


def test_first_primes():
    assert first_primes(5) == (2, 3, 5, 7, 11)


def test_zero_representation_grassmannian_is_a_point():
    zero = RepClass.empty()
    assert betti_recursion(A2, zero, (0, 0)) == PoincarePoly.one()
    assert betti_oracle(A2, zero, (0, 0)) == PoincarePoly.one()
    assert point_count(A2, zero, (0, 0), 2) == 1
    assert betti_recursion(A2, zero, (1, 0)) == PoincarePoly.zero()
