"""Acceptance suite: one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
The sweeps are desk scale: small quivers, componentwise-bounded dimension
vectors, exhaustive subdimensions.
"""

import itertools
import json
import time
from functools import cache

from quivergrass import cli
from quivergrass.cli import parse_rep
from quivergrass.degen import bongartz_data, boundary_check, degeneration_poset
from quivergrass.grass import (
    PoincarePoly,
    betti_oracle,
    betti_recursion,
    betti_table,
    peel_summand,
    point_count,
)
from quivergrass.homalg import (
    ext_dim,
    ext_intervals,
    euler_form,
    hom_dim,
    hom_dim_classes,
    tau,
)
from quivergrass.quiver import (
    Interval,
    RepClass,
    TypeAQuiver,
    enumerate_rep_classes,
    explicit_of,
    intervals_of,
    projective_intervals,
    vec_boxes,
)
from quivergrass.specialize import check_degeneration, verify_theorem


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def all_quivers(max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        for flags in itertools.product("FB", repeat=n - 1):
            yield TypeAQuiver(n, "".join(flags))


def all_dims(n, total_max):
    for d in itertools.product(range(total_max + 1), repeat=n):
        if sum(d) <= total_max:
            yield d


def sweep_quiver_dims():
    """The main verification domain: n <= 3 all orientations with d <= 2
    componentwise, plus equioriented A4 with d <= (2,2,2,2)."""
    for q in all_quivers(3):
        for d in vec_boxes(tuple([2] * q.n)):
            yield q, d
    q4 = TypeAQuiver(4, "FFF")
    for d in vec_boxes((2, 2, 2, 2)):
        yield q4, d


@cache
def sweep_summaries():
    return tuple(verify_theorem(q, d) for q, d in sweep_quiver_dims())


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    cases = 0
    for q in all_quivers(3, min_n=2):
        for d in all_dims(q.n, 5):
            for m in enumerate_rep_classes(q, d):
                for e in vec_boxes(d):
                    cases += 1
                    recursion = betti_recursion(q, m, e)
                    oracle = betti_oracle(q, m, e)
                    if recursion != oracle:
                        _report(
                            "1 oracle equivalence",
                            False,
                            f"{q.label()} {m} e={e}: {recursion} != {oracle}",
                        )
    elapsed = time.monotonic() - start
    _report("1 oracle equivalence", True, f"{cases} cases, {elapsed:.1f}s")


def test_criterion_2_specialization_monotone():
    start = time.monotonic()
    failures = [
        msg
        for summary in sweep_summaries()
        for msg in summary.failures
        if msg.startswith("monotonicity")
    ]
    checks = sum(summary.cover_checks for summary in sweep_summaries())
    _report(
        "2 specialization monotone",
        not failures,
        f"{checks} cover checks, {len(failures)} failures, {time.monotonic() - start:.1f}s",
    )


def test_criterion_3_kernel_decomposition():
    failures = [
        msg
        for summary in sweep_summaries()
        for msg in summary.failures
        if msg.startswith("kernel identity")
    ]
    checks = sum(summary.cover_checks for summary in sweep_summaries())
    _report(
        "3 kernel decomposition",
        not failures,
        f"{checks} cover checks, {len(failures)} failures",
    )


def test_criterion_4_grassmannian_product_bound():
    failures = [
        msg
        for summary in sweep_summaries()
        for msg in summary.failures
        if "bound" in msg or "semisimple" in msg
    ]
    checks = sum(summary.bound_checks for summary in sweep_summaries())
    _report(
        "4 product-of-Grassmannians bound",
        not failures,
        f"{checks} bound checks, {len(failures)} failures",
    )


def test_criterion_5_minimal_degeneration_data():
    start = time.monotonic()
    covers = 0
    for q, d in sweep_quiver_dims():
        poset = degeneration_poset(q, d)
        for m, n in poset.covers:
            covers += 1
            bd = bongartz_data(q, m, n)
            cls_x1 = RepClass(((bd.x1, 1),))
            cls_s1 = RepClass(((bd.s1, 1),))
            ok = (
                bd.middle == m.difference(bd.common)
                and cls_x1.union(cls_s1) == n.difference(bd.common)
                and ext_dim(q, bd.s_class, bd.x_class) == ext_dim(q, cls_s1, cls_x1) == 1
                and ext_dim(q, cls_x1, bd.x_rest) == 0
                and ext_dim(q, bd.s_rest, cls_s1) == 0
                and boundary_check(bd)
            )
            if not ok:
                _report("5 minimal degeneration data", False, f"{q.label()} cover ({m}, {n})")
    _report(
        "5 minimal degeneration data",
        True,
        f"{covers} covers, {time.monotonic() - start:.1f}s",
    )


def test_criterion_6_pinned_values():
    q = TypeAQuiver(2, "F")
    flag = RepClass.from_pairs([(Interval(1, 2), 3)])
    degenerate = RepClass.from_pairs(
        [(Interval(1, 2), 2), (Interval(1, 1), 1), (Interval(2, 2), 1)]
    )
    e = (1, 2)
    expected_flag = PoincarePoly.from_coeffs((1, 2, 2, 1))
    expected_degenerate = PoincarePoly.from_coeffs((1, 2, 3, 1))
    checks = {
        "betti flag": betti_recursion(q, flag, e) == expected_flag,
        "oracle flag": betti_oracle(q, flag, e) == expected_flag,
        "betti degenerate": betti_recursion(q, degenerate, e) == expected_degenerate,
        "oracle degenerate": betti_oracle(q, degenerate, e) == expected_degenerate,
        "euler characteristic": betti_recursion(q, degenerate, e).eval_at(1) == 7,
        "kernel": check_degeneration(q, flag, degenerate, e).kernel
        == PoincarePoly.from_coeffs((0, 0, 1)),
        "point count": point_count(q, flag, e, 2) == 21,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report("6 pinned values", not bad, "all bit-exact" if not bad else f"failed: {bad}")


def test_criterion_7_structural_invariants():
    start = time.monotonic()

    # Ext-graph acyclicity: peeling every interval until none is left must succeed
    for q in all_quivers(5):
        rest = RepClass.from_copies(intervals_of(q))
        peeled = 0
        while rest.pairs:
            rest = rest.remove_one(peel_summand(q, rest))
            peeled += 1
        assert peeled == len(intervals_of(q))

    # peel-order independence of the Betti recursion, one whole table per direction
    peel_pairs = 0
    for q in all_quivers(4):
        for d in all_dims(q.n, 5):
            for m in enumerate_rep_classes(q, d):
                forward, reverse = betti_table(q, m), betti_table(q, m, reverse_peel=True)
                for e in vec_boxes(d):
                    peel_pairs += 1
                    assert forward[e] == reverse[e], (q.label(), str(m), e)

    # hereditary identity at the class level, plus the explicit cross-check
    hereditary = 0
    explicit_checked = 0
    for q in all_quivers(4):
        classes = [m for d in all_dims(q.n, 5) for m in enumerate_rep_classes(q, d)]
        for m in classes:
            for n in classes:
                hereditary += 1
                h = hom_dim_classes(q, m, n)
                assert h - euler_form(q, m.dim(q.n), n.dim(q.n)) >= 0, (q.label(), str(m), str(n))
                budget = 6 if q.n <= 3 else 4
                if sum(m.dim(q.n)) + sum(n.dim(q.n)) <= budget:
                    explicit_checked += 1
                    assert h == hom_dim(explicit_of(q, m), explicit_of(q, n))

    # Auslander-Reiten formula at dimension level
    ar_pairs = 0
    for q in all_quivers(4):
        for s in intervals_of(q):
            if s in projective_intervals(q):
                continue
            shifted = RepClass(((tau(q, s), 1),))
            for x in intervals_of(q):
                ar_pairs += 1
                assert ext_intervals(q, s, x) == hom_dim_classes(
                    q, RepClass(((x, 1),)), shifted
                )

    # parse/print round trips for every canonical class
    parsed = 0
    for q in all_quivers(4):
        for d in all_dims(q.n, 5):
            for m in enumerate_rep_classes(q, d):
                parsed += 1
                assert parse_rep(m.text(), q) == m

    _report(
        "7 structural invariants",
        True,
        f"peel {peel_pairs}, hereditary {hereditary} ({explicit_checked} explicit), "
        f"AR {ar_pairs}, parse {parsed}, {time.monotonic() - start:.1f}s",
    )


def test_criterion_8_pbw_nine_median_genocchi(tmp_path):
    # the PBW-degenerate flag variety of SL_10: its Euler characteristic is
    # the normalized median Genocchi number h_10, through the whole pbw route
    from test_specialize import normalized_median_genocchi

    start = time.monotonic()
    path = tmp_path / "pbw9.json"
    code = cli.main(["pbw", "--n", "9", "--i", "1,2,3,4,5,6,7,8", "--json", str(path)])
    payload = json.loads(path.read_text(encoding="utf-8"))
    euler = sum(payload["p_rep"]["coefficients"])
    ok = code == 0 and payload["monotone"] and payload["identity_ok"]
    ok = ok and euler == normalized_median_genocchi(10) == 391888514
    _report("8 pbw n=9 median Genocchi", ok, f"p_rep(1) = {euler}, {time.monotonic() - start:.1f}s")
