import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.degen import DegenPoset, bongartz_data, degeneration_poset
from quivergrass.grass import PoincarePoly, strata_table
from quivergrass.homalg import hom_basis
from quivergrass.linalg import Mat
from quivergrass.quiver import (
    ExplicitRep,
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    injective_intervals,
    intervals_of,
    projective_intervals,
    semisimple_class,
    vec_boxes,
    vec_leq,
    vec_sub,
)
from quivergrass.specialize import check_degeneration, verify_theorem

A2 = TypeAQuiver(2, "F")
A3 = TypeAQuiver(3, "FF")


def cls(*copies):
    return RepClass.from_copies([Interval(a, b) for a, b in copies])


def quiver_strategy(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.text(alphabet="FB", min_size=n - 1, max_size=n - 1))
    ).map(lambda t: TypeAQuiver(*t))


def class_strategy(q, max_total=5):
    intervals = list(intervals_of(q))
    return st.lists(st.sampled_from(intervals), min_size=0, max_size=max_total).map(
        RepClass.from_copies
    ).filter(lambda m: sum(m.dim(q.n)) <= max_total)


def test_quiver_validation():
    with pytest.raises(ValueError):
        TypeAQuiver(0, "")
    with pytest.raises(ValueError):
        TypeAQuiver(3, "F")
    with pytest.raises(ValueError):
        TypeAQuiver(2, "X")
    assert TypeAQuiver(1, "").label() == "A1"
    fb = TypeAQuiver(3, "FB")
    assert (fb.edge(0), fb.edge(1)) == ((1, 2), (3, 2))


def test_intervals_of():
    assert intervals_of(TypeAQuiver(1, "")) == (Interval(1, 1),)
    assert intervals_of(A2) == (Interval(1, 1), Interval(1, 2), Interval(2, 2))
    assert len(intervals_of(A3)) == 6


def test_dim_of():
    assert RepClass.empty().dim(2) == (0, 0)
    assert RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1)]).dim(2) == (3, 2)
    assert cls((1, 3), (2, 2)).dim(3) == (1, 2, 1)


def test_enumerate_rep_classes_examples():
    assert set(enumerate_rep_classes(A2, (1, 1))) == {cls((1, 2)), cls((1, 1), (2, 2))}
    got = enumerate_rep_classes(A3, (1, 1, 1))
    assert set(got) == {
        cls((1, 3)),
        cls((1, 2), (3, 3)),
        cls((1, 1), (2, 3)),
        cls((1, 1), (2, 2), (3, 3)),
    }
    assert enumerate_rep_classes(A3, (0, 0, 0)) == (RepClass.empty(),)


def brute_force_classes(q, d):
    """Independent enumeration: all tuples of intervals, deduplicated."""
    intervals = intervals_of(q)
    total = sum(d)
    found = set()

    def extend(start, remaining, chosen):
        if all(x == 0 for x in remaining):
            found.add(RepClass.from_copies(chosen))
            return
        for i in range(start, len(intervals)):
            u = intervals[i]
            if all(remaining[v - 1] >= 1 for v in range(u.a, u.b + 1)):
                rem = list(remaining)
                for v in range(u.a, u.b + 1):
                    rem[v - 1] -= 1
                extend(i, tuple(rem), chosen + [u])

    extend(0, d, [])
    return found


@pytest.mark.parametrize(
    "q,d",
    [
        (A2, (2, 1)),
        (A2, (2, 2)),
        (A3, (1, 2, 1)),
        (TypeAQuiver(3, "FB"), (2, 1, 1)),
        (TypeAQuiver(3, "BB"), (1, 1, 2)),
    ],
)
def test_enumerate_matches_brute_force(q, d):
    assert set(enumerate_rep_classes(q, d)) == brute_force_classes(q, d)


def test_enumerate_is_sorted_canonically():
    got = enumerate_rep_classes(A3, (1, 1, 1))
    assert list(got) == sorted(got, key=lambda m: m.pairs)


def reference_enumerate_rep_classes(q, d):
    """The walk that tries every multiplicity down to 0 at every interval,
    then sorts, as a reference."""
    intervals = intervals_of(q)
    found = []

    def walk(idx, remaining, chosen):
        if all(x == 0 for x in remaining):
            found.append(RepClass(tuple(chosen)))
            return
        if idx == len(intervals):
            return
        u = intervals[idx]
        cap = min(remaining[v - 1] for v in range(u.a, u.b + 1))
        for k in range(cap, -1, -1):
            if k:
                rem = list(remaining)
                for v in range(u.a, u.b + 1):
                    rem[v - 1] -= k
                chosen.append((u, k))
                walk(idx + 1, tuple(rem), chosen)
                chosen.pop()
            else:
                walk(idx + 1, remaining, chosen)

    walk(0, d, [])
    found.sort(key=lambda m: m.pairs)
    return tuple(found)


def test_enumerate_matches_reference_walk():
    cases = 0
    for n, top in ((1, 3), (2, 3), (3, 3), (4, 2)):
        for flags in itertools.product("FB", repeat=n - 1):
            q = TypeAQuiver(n, "".join(flags))
            for d in vec_boxes((top,) * n):
                assert enumerate_rep_classes(q, d) == reference_enumerate_rep_classes(q, d), (q.label(), d)
                cases += 1
    assert cases == 940


def test_enumerate_pinned_size():
    assert len(enumerate_rep_classes(TypeAQuiver(5, "FFFF"), (6,) * 5)) == 27027


def test_explicit_of_examples():
    e = explicit_of(A2, cls((1, 2)))
    assert e.dims == (1, 1)
    assert [[int(x) for x in row] for row in e.mats[0].rows] == [[1]]
    e = explicit_of(A2, cls((1, 1), (2, 2)))
    assert e.dims == (1, 1)
    assert [[int(x) for x in row] for row in e.mats[0].rows] == [[0]]
    # canonical summand order puts [1,1] before [1,2]
    e = explicit_of(A2, cls((1, 2), (1, 1)))
    assert e.dims == (2, 1)
    assert [[int(x) for x in row] for row in e.mats[0].rows] == [[0, 1]]


@given(quiver_strategy().flatmap(lambda q: st.tuples(st.just(q), class_strategy(q))))
@settings(max_examples=60, deadline=None)
def test_explicit_dims_match(pair):
    q, m = pair
    assert explicit_of(q, m).dims == m.dim(q.n)


def test_repclass_multiset_semantics():
    m = RepClass.from_copies([Interval(1, 2), Interval(1, 1), Interval(1, 2)])
    assert m.pairs == ((Interval(1, 1), 1), (Interval(1, 2), 2))
    assert m == RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1)])
    assert m.difference(cls((1, 2))).pairs == ((Interval(1, 1), 1), (Interval(1, 2), 1))
    with pytest.raises(ValueError):
        m.difference(cls((2, 2)))
    assert m.intersection(cls((1, 2), (2, 2))) == cls((1, 2))


def test_repclass_hash_is_stable_across_constructions():
    m = RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1), (Interval(2, 3), 1)])
    built = [
        RepClass.from_copies([Interval(2, 3), Interval(1, 2), Interval(1, 1), Interval(1, 2)]),
        cls((1, 2), (1, 2)).union(cls((2, 3), (1, 1))),
        m.union(cls((3, 3))).difference(cls((3, 3))),
        pickle.loads(pickle.dumps(m)),
    ]
    hash(m)
    built.append(pickle.loads(pickle.dumps(m)))  # pickled after its hash was taken
    for other in built:
        assert other == m and hash(other) == hash(m) and other.pairs == m.pairs
    assert len({m, *built}) == 1
    assert m != m.remove_one(Interval(1, 1)) and m != cls((1, 2))
    assert hash(RepClass.empty()) == hash(m.difference(m))


@pytest.mark.parametrize(
    "value, bad",
    [
        (TypeAQuiver(3, "FB"), lambda: TypeAQuiver(3, "FX")),
        (Interval(2, 3), lambda: Interval(3, 2)),
        (RepClass.from_copies([Interval(1, 2), Interval(2, 2)]), lambda: RepClass.from_pairs([(Interval(1, 1), -1)])),
        (Mat.from_rows([[1, 2], [3, 4]]), lambda: Mat.from_rows([[1], [2, 3]])),
        (explicit_of(A3, cls((1, 2), (2, 3))), lambda: ExplicitRep(A2, (1, 1), (Mat.from_rows([[1, 1]]),))),
    ],
    ids=["TypeAQuiver", "Interval", "RepClass", "Mat", "ExplicitRep"],
)
def test_value_types_are_immutable_slotted_tuples(value, bad):
    with pytest.raises(ValueError):
        bad()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert type(value).__slots__ == () and not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)


def test_unpickling_runs_the_constructor_checks():
    # tuple.__new__ skips the checks in __new__; loading calls __new__ again
    forged_values = (
        tuple.__new__(TypeAQuiver, (2, "FX")),
        tuple.__new__(Interval, (3, 2)),
        tuple.__new__(ExplicitRep, (A2, (1, 1), (Mat.from_rows([[1, 1]]),))),
    )
    for forged in forged_values:
        data = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(data)


def _cover_report():
    return check_degeneration(A2, cls((1, 2)), cls((1, 1), (2, 2)), (1, 1))


RECORDS = {
    "ExplicitHom": lambda: hom_basis(explicit_of(A2, cls((1, 2))), explicit_of(A2, cls((1, 2), (2, 2))))[0],
    "BongartzData": lambda: bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2))),
    "StratumRecord": lambda: strata_table(bongartz_data(A2, cls((1, 2)), cls((1, 1), (2, 2))), (1, 1))[-1],
    "CoverCheck": lambda: _cover_report().chain[0],
    "SpecializationReport": _cover_report,
    "VerifySummary": lambda: verify_theorem(A3, (1, 1, 1)),
}


@pytest.mark.parametrize("build", list(RECORDS.values()), ids=list(RECORDS))
def test_records_are_immutable_slotted_tuples(build):
    record = build()
    field = record._fields[-1]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record).__slots__ == () and not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)


def test_degen_poset_caches_leq_in_an_immutable_tuple():
    poset = degeneration_poset(A3, (1, 1, 1))
    assert isinstance(poset, tuple) and "__slots__" not in vars(DegenPoset)
    assert poset.leq is poset.leq
    for name in ("nodes", "leq", "extra"):
        with pytest.raises(AttributeError):
            setattr(poset, name, ())
    with pytest.raises(AttributeError):
        del poset.leq
    assert poset.leq is poset.leq
    copy = pickle.loads(pickle.dumps(poset))
    assert copy == poset and hash(copy) == hash(poset)
    assert copy.leq == poset.leq and copy.leq is copy.leq


def test_poincare_poly_is_an_immutable_slotted_value():
    p = PoincarePoly.from_coeffs((1, 2, 1, 0))
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.extra = 1
    assert PoincarePoly.__slots__ == ("coeffs",) and not hasattr(p, "__dict__")
    assert p.coeffs == (1, 2, 1) and repr(p) == "PoincarePoly(coeffs=(1, 2, 1))"
    assert p == PoincarePoly((1, 2, 1)) and p != PoincarePoly((1, 2)) and p != (1, 2, 1)
    assert hash(p) == hash(((1, 2, 1),))
    copy = pickle.loads(pickle.dumps(p))
    assert type(copy) is PoincarePoly and copy == p and hash(copy) == hash(p)
    assert not PoincarePoly.zero() and PoincarePoly.one()
    # no tuple base: * is the product, so an int factor and ordering are errors
    assert p * p == PoincarePoly((1, 4, 6, 4, 1))
    with pytest.raises(TypeError):
        3 * p
    with pytest.raises(TypeError):
        p < p


def test_vec_sub_rejects_negative():
    with pytest.raises(ValueError):
        vec_sub((1, 0), (0, 1))
    assert vec_sub((2, 1), (1, 1)) == (1, 0)
    with pytest.raises(ValueError):
        vec_leq((1,), (1, 2))


def test_projective_injective_intervals():
    assert projective_intervals(A2) == (Interval(1, 2), Interval(2, 2))
    assert injective_intervals(A2) == (Interval(1, 1), Interval(1, 2))
    fb = TypeAQuiver(3, "FB")
    assert projective_intervals(fb) == (Interval(1, 2), Interval(2, 2), Interval(2, 3))
    assert injective_intervals(fb) == (Interval(1, 1), Interval(1, 3), Interval(3, 3))


def test_semisimple_class():
    assert semisimple_class(A3, (2, 0, 1)) == RepClass.from_pairs(
        [(Interval(1, 1), 2), (Interval(3, 3), 1)]
    )


def test_zero_representation_is_valid():
    zero = RepClass.empty()
    assert zero.dim(3) == (0, 0, 0)
    e = explicit_of(A3, zero)
    assert e.dims == (0, 0, 0)
