import concurrent.futures
import itertools
import math
import time
from fractions import Fraction

import pytest

from quivergrass import cli, degen, grass, homalg, quiver, specialize
from quivergrass.degen import bongartz_data, boundary_check, degeneration_poset, hom_leq, local_covers
from quivergrass.grass import PoincarePoly, betti_recursion
from quivergrass.quiver import Interval, RepClass, TypeAQuiver, vec_boxes
from quivergrass.specialize import (
    check_degeneration,
    pbw_rep,
    saturated_chain,
    verify_theorem,
)

A2 = TypeAQuiver(2, "F")
A3 = TypeAQuiver(3, "FF")


def cls(*copies):
    return RepClass.from_copies([Interval(a, b) for a, b in copies])


def poly(*coeffs):
    return PoincarePoly.from_coeffs(coeffs)


def cover_report(q, m, n, e):
    """check_degeneration on a cover, whose chain is the one link m -> n."""
    report = check_degeneration(q, m, n, e)
    (link,) = report.chain
    assert (link.m, link.n, link.kernel) == (m, n, report.kernel)
    assert (link.p_m, link.p_n) == (report.p_m, report.p_n)
    return report


def test_check_cover_a2_examples():
    m, n = cls((1, 2)), cls((1, 1), (2, 2))
    report = cover_report(A2, m, n, (1, 0))
    assert (report.p_n, report.p_m) == (poly(1), PoincarePoly.zero())
    assert report.kernel == poly(1)
    assert report.monotone and report.identity_ok

    report = cover_report(A2, m, n, (1, 1))
    assert report.p_n == report.p_m == poly(1)
    assert report.kernel == PoincarePoly.zero()
    assert report.monotone and report.identity_ok


def test_check_cover_a3_example():
    report = cover_report(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 2), (3, 3)), (1, 0, 0))
    assert (report.p_n, report.p_m) == (poly(1), PoincarePoly.zero())
    assert report.kernel == poly(1)
    assert report.monotone and report.identity_ok


def test_check_degeneration_trivial():
    m = cls((1, 2))
    report = check_degeneration(A2, m, m, (1, 0))
    assert report.chain == ()
    assert report.kernel == PoincarePoly.zero()
    assert report.monotone and report.identity_ok


def test_check_degeneration_chain_of_two():
    report = check_degeneration(A3, cls((1, 3)), cls((1, 1), (2, 2), (3, 3)), (1, 1, 1))
    assert len(report.chain) == 2
    assert report.p_m == poly(1) and report.p_n == poly(1)
    assert report.monotone and report.identity_ok


def test_check_degeneration_single_link():
    report = check_degeneration(A2, cls((1, 2)), cls((1, 1), (2, 2)), (1, 0))
    assert len(report.chain) == 1
    assert report.kernel == poly(1)


def test_check_degeneration_rejects_incomparable():
    with pytest.raises(ValueError):
        check_degeneration(A3, cls((1, 2), (3, 3)), cls((1, 1), (2, 3)), (1, 1, 1))


def test_chain_kernels_telescope():
    from quivergrass.quiver import semisimple_class

    for q in [A2, A3]:
        d = tuple([2] * q.n)
        poset = degeneration_poset(q, d)
        minima = [
            m
            for m in poset.nodes
            if all(not hom_leq(q, other, m) for other in poset.nodes if other != m)
        ]
        assert len(minima) == 1
        top = semisimple_class(q, d)
        for e in vec_boxes(d):
            report = check_degeneration(q, minima[0], top, e)
            total = PoincarePoly.zero()
            for link in report.chain:
                total = total + link.kernel
            assert total == report.kernel


def test_saturated_chain_is_saturated():
    chain = saturated_chain(A3, cls((1, 3)), cls((1, 1), (2, 2), (3, 3)))
    poset = degeneration_poset(A3, (1, 1, 1))
    assert len(chain) == 3
    for a, b in zip(chain, chain[1:]):
        assert (a, b) in poset.covers
        assert b in local_covers(A3, a)
        bongartz_data(A3, a, b)
    with pytest.raises(ValueError, match="is not a cover of the degeneration poset"):
        bongartz_data(A3, chain[0], chain[2])


def test_saturated_chain_takes_first_cover_below_target():
    # reference: scan the covers in order for the first one from the current
    # class whose upper end is still below the target
    for orient in ("FF", "FB", "BF", "BB"):
        q = TypeAQuiver(3, orient)
        poset = degeneration_poset(q, (2, 2, 2))
        for m, n in itertools.product(poset.nodes, repeat=2):
            if not hom_leq(q, m, n):
                continue
            expected = [m]
            while expected[-1] != n:
                expected.append(
                    next(c for a, c in poset.covers if a == expected[-1] and hom_leq(q, c, n))
                )
            assert saturated_chain(q, m, n) == tuple(expected)


def test_verify_theorem_a2():
    summary = verify_theorem(A2, (1, 1))
    assert summary.covers == 1
    assert summary.cover_checks == 4
    assert summary.failures == ()


def test_verify_theorem_a3():
    summary = verify_theorem(A3, (1, 1, 1))
    assert summary.covers == 4
    assert summary.cover_checks == 32
    assert summary.failures == ()


def test_verify_theorem_a1_vacuous():
    summary = verify_theorem(TypeAQuiver(1, ""), (3,))
    assert summary.covers == 0
    assert summary.cover_checks == 0
    assert summary.failures == ()


def test_verify_theorem_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        verify_theorem(A3, (1, 1, 1), budget=10)


def test_verify_theorem_parallel_matches_serial():
    serial = verify_theorem(A3, (1, 1, 1), jobs=1)
    parallel = verify_theorem(A3, (1, 1, 1), jobs=2)
    assert serial.kernels == parallel.kernels
    assert serial.failures == parallel.failures


def test_verify_theorem_rejects_jobs_below_one():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            verify_theorem(A3, (1, 1, 1), jobs=jobs)


def test_verify_theorem_pool_size_is_capped(monkeypatch):
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = verify_theorem(A3, (1, 1, 1), jobs=1)
    covers = serial.covers
    assert covers > 3
    for cpus, jobs, workers in (
        (2, 10**9, [2]),
        (64, 10**9, [covers]),
        (64, 3, [3]),
        (1, 10**9, []),
        (64, 1, []),
    ):
        monkeypatch.setattr(specialize, "default_jobs", lambda: cpus)
        requested.clear()
        summary = verify_theorem(A3, (1, 1, 1), jobs=jobs)
        assert requested == workers, (cpus, jobs)
        assert summary == serial


def test_pbw_rep_examples():
    rep, d, e = pbw_rep(2, (1,))
    assert rep == RepClass.from_pairs(
        [(Interval(1, 2), 2), (Interval(1, 1), 1), (Interval(2, 2), 1)]
    )
    assert d == (3, 3) and e == (1, 2)

    rep, d, e = pbw_rep(3, (1,))
    assert rep == RepClass.from_pairs(
        [(Interval(1, 3), 3), (Interval(1, 1), 1), (Interval(2, 3), 1)]
    )
    assert d == (4, 4, 4) and e == (1, 2, 3)

    rep, d, _ = pbw_rep(3, (1, 2))
    assert rep == RepClass.from_pairs(
        [
            (Interval(1, 3), 2),
            (Interval(1, 1), 1),
            (Interval(2, 3), 1),
            (Interval(1, 2), 1),
            (Interval(3, 3), 1),
        ]
    )
    assert d == (4, 4, 4)


def test_pbw_rep_rejects_malformed():
    with pytest.raises(ValueError):
        pbw_rep(3, (2, 1))
    with pytest.raises(ValueError):
        pbw_rep(3, (0,))
    with pytest.raises(ValueError):
        pbw_rep(2, ())
    with pytest.raises(ValueError):
        pbw_rep(2, (1, 1))


def test_pbw_chain_property():
    for n in range(2, 6):
        q = TypeAQuiver(n, "F" * (n - 1))
        flag = RepClass.from_pairs([(Interval(1, n), n + 1)])
        for k in range(1, n):
            for i_tuple in itertools.combinations(range(1, n), k):
                rep, d, _ = pbw_rep(n, i_tuple)
                assert rep.dim(n) == d
                assert hom_leq(q, flag, rep)


def test_pbw_pinned_kernel():
    rep, _, e = pbw_rep(2, (1,))
    flag = RepClass.from_pairs([(Interval(1, 2), 3)])
    report = check_degeneration(A2, flag, rep, e)
    assert report.kernel == poly(0, 0, 1)
    assert report.monotone and report.identity_ok
    assert betti_recursion(A2, rep, e) - betti_recursion(A2, flag, e) == poly(0, 0, 1)


# (chain links, kernel coefficients) of pbw --n 5 for every tuple, as the
# global-poset route (the whole A5:FFFF 6^5 poset, 27 027 classes) gave them
PBW5_KERNELS = {
    (1,): (1, [0, 0, 1, 4, 10, 19, 29, 37, 40, 37, 29, 19, 10, 4, 1]),
    (2,): (1, [0, 0, 1, 5, 14, 28, 44, 57, 62, 57, 44, 28, 14, 5, 1]),
    (3,): (1, [0, 0, 1, 5, 14, 28, 44, 57, 62, 57, 44, 28, 14, 5, 1]),
    (4,): (1, [0, 0, 1, 4, 10, 19, 29, 37, 40, 37, 29, 19, 10, 4, 1]),
    (1, 2): (3, [0, 0, 2, 9, 25, 51, 83, 112, 127, 122, 98, 65, 34, 13, 3]),
    (1, 3): (3, [0, 0, 2, 9, 25, 51, 83, 112, 127, 121, 96, 62, 31, 11, 2]),
    (1, 4): (3, [0, 0, 2, 8, 21, 41, 65, 86, 96, 91, 72, 47, 24, 9, 2]),
    (2, 3): (3, [0, 0, 2, 10, 29, 61, 102, 141, 163, 158, 127, 83, 42, 15, 3]),
    (2, 4): (3, [0, 0, 2, 9, 25, 51, 83, 112, 127, 121, 96, 62, 31, 11, 2]),
    (3, 4): (3, [0, 0, 2, 9, 25, 51, 83, 112, 127, 122, 98, 65, 34, 13, 3]),
    (1, 2, 3): (6, [0, 0, 3, 14, 41, 88, 152, 218, 263, 267, 225, 154, 81, 30, 6]),
    (1, 2, 4): (6, [0, 0, 3, 13, 37, 77, 130, 182, 215, 214, 177, 119, 61, 22, 4]),
    (1, 3, 4): (6, [0, 0, 3, 13, 37, 77, 130, 182, 215, 214, 177, 119, 61, 22, 4]),
    (2, 3, 4): (6, [0, 0, 3, 14, 41, 88, 152, 218, 263, 267, 225, 154, 81, 30, 6]),
    (1, 2, 3, 4): (10, [0, 0, 4, 18, 54, 118, 211, 313, 394, 418, 370, 266, 146, 56, 10]),
}


def test_pbw_n5_kernels_pinned():
    q = TypeAQuiver(5, "FFFF")
    flag = RepClass.from_pairs([(Interval(1, 5), 6)])
    for i_tuple, (links, kernel) in PBW5_KERNELS.items():
        rep, _, e = pbw_rep(5, i_tuple)
        report = check_degeneration(q, flag, rep, e)
        assert (len(report.chain), list(report.kernel.coeffs)) == (links, kernel), i_tuple
        assert report.monotone and report.identity_ok


def test_chain_route_builds_no_poset(monkeypatch, capsys):
    def refuse(q, d):
        raise AssertionError("a whole degeneration poset was built for one chain")

    for module in (degen, specialize, cli):
        monkeypatch.setattr(module, "degeneration_poset", refuse)
    # cached covers and decompositions would hide a poset built inside them
    local_covers.cache_clear()
    bongartz_data.cache_clear()
    report = check_degeneration(A3, cls((1, 3)), cls((1, 1), (2, 2), (3, 3)), (1, 1, 0))
    assert len(report.chain) == 2 and report.monotone and report.identity_ok
    assert cli.main(["pbw", "--n", "4", "--i", "1,2,3"]) == 0
    argv = ["strata", "--quiver", "A3:FF", "--m", "[1,2],[3,3]", "--n", "[1,1],[2,2],[3,3]", "--sub", "1,1,0"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_chain_route_builds_no_stratum_records(monkeypatch, capsys):
    def refuse(bd, e):
        raise AssertionError("stratum records were built for a chain check")

    assert not any(hasattr(specialize, name) for name in ("strata_table", "strata_sum", "StratumRecord"))
    for module in (grass, cli):
        monkeypatch.setattr(module, "strata_table", refuse)
    report = check_degeneration(A3, cls((1, 3)), cls((1, 1), (2, 2), (3, 3)), (1, 1, 0))
    assert len(report.chain) == 2 and report.monotone and report.identity_ok
    assert cli.main(["pbw", "--n", "4", "--i", "1,2,3"]) == 0
    assert capsys.readouterr().err == ""
    # the cost follows the support pairs, not the size of e
    for e in ((1000, 1000), (10**20, 0)):
        start = time.perf_counter()
        report = check_degeneration(A2, cls((1, 2)), cls((1, 1), (2, 2)), e)
        assert time.perf_counter() - start < 1.0, e
        (link,) = report.chain
        assert not link.kernel and link.monotone and link.identity_ok, e


def test_specialize_holds_no_packed_name():
    # the packing of polynomials into ints is known in grass alone
    packed = ("cover_slots", "guard_mask", "pack", "packed_betti_table", "packed_leq", "slot_width", "strata_sums", "unpack")
    assert not any(hasattr(specialize, name) for name in packed)


def test_check_degeneration_reads_each_chain_node_once(monkeypatch):
    calls = []
    real = specialize.betti_recursion

    def recording(q, m, e, **kwargs):
        calls.append(m)
        return real(q, m, e, **kwargs)

    monkeypatch.setattr(specialize, "betti_recursion", recording)
    q, flag = TypeAQuiver(4, "FFF"), RepClass.from_pairs([(Interval(1, 4), 5)])
    rep, _, e = pbw_rep(4, (1, 2, 3))
    report = check_degeneration(q, flag, rep, e)
    assert len(report.chain) == 6 and report.monotone and report.identity_ok
    assert calls == list(saturated_chain(q, flag, rep))
    # a chain of no links is its one node
    del calls[:]
    assert check_degeneration(A2, cls((1, 2)), cls((1, 2)), (1, 1)).kernel == PoincarePoly.zero()
    assert calls == [cls((1, 2))]


def normalized_median_genocchi(j):
    """h_j = B_(j+1)(1) / 2^j, for B_1 = 1 and B_(i+1)(x) = (x+1)((x+1) B_i(x+1) - x B_i(x)).

    B_i(1) runs through the median Genocchi numbers 1, 2, 8, 56, 608, ...
    (Dumont, Randrianarivony 1994), and h_(k+1) is the Euler characteristic
    of the PBW-degenerate flag variety of SL_(k+1) (Feigin 2011).  The
    polynomials are lists of integer coefficients, lowest degree first.
    """
    b = [1]
    for _ in range(j):
        shifted = [0] * len(b)  # B(x + 1), by binomial expansion
        for i, c in enumerate(b):
            for k in range(i + 1):
                shifted[k] += math.comb(i, k) * c
        inner = [a + c - d for a, c, d in zip([0] + shifted, shifted + [0], [0] + b)]
        b = [a + c for a, c in zip([0] + inner, inner + [0])]
    h, remainder = divmod(sum(b), 2**j)
    assert remainder == 0
    return h


def test_normalized_median_genocchi_values():
    # Feigin's table; h_10 was first reached here by pbw --n 9
    assert [normalized_median_genocchi(j) for j in range(1, 11)] == [
        1, 2, 7, 38, 295, 3098, 42271, 726734, 15366679, 391888514
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_pbw_full_flag_euler_characteristics(k):
    # at q = 1, P(pbw class) is the Euler characteristic of the PBW-degenerate
    # flag variety of SL_(k+1), the median Genocchi number h_(k+1), and
    # P(flag) that of the flag variety, (k+1)!
    q = TypeAQuiver(k, "F" * (k - 1))
    rep, _, e = pbw_rep(k, tuple(range(1, k)))
    report = check_degeneration(q, RepClass.from_pairs([(Interval(1, k), k + 1)]), rep, e)
    median_genocchi = normalized_median_genocchi(k + 1)
    assert (report.p_n.eval_at(1), report.p_m.eval_at(1)) == (median_genocchi, math.factorial(k + 1))
    assert len(report.p_n.coeffs) - 1 == len(report.p_m.coeffs) - 1 == k * (k + 1) // 2
    assert report.monotone and report.identity_ok


@pytest.mark.parametrize("k", [7, 8])
def test_pbw_rep_euler_characteristic_by_recursion(k):
    # the Betti recursion alone, without the chain check, on the two flags
    # past the chain test above
    q = TypeAQuiver(k, "F" * (k - 1))
    rep, _, e = pbw_rep(k, tuple(range(1, k)))
    assert betti_recursion(q, rep, e).eval_at(1) == normalized_median_genocchi(k + 1)


def test_integral_checks_build_no_fraction(monkeypatch):
    # the explicit linear algebra of boundary_check is integral on these
    # inputs, so fraction-free elimination must not build a single Fraction
    # (dense Fraction elimination built 25 832 and 18 456 here)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def cold_run(run):
        # cached Hom tables, translates and checks would hide the work
        for module in (quiver, homalg, degen, grass):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting_new)
            run()
        return len(built)

    def every_cover_a2_a3():
        for n in (2, 3):
            for flags in itertools.product("FB", repeat=n - 1):
                q = TypeAQuiver(n, "".join(flags))
                for d in vec_boxes((2,) * n):
                    for m, c in degeneration_poset(q, d).covers:
                        assert boundary_check(bongartz_data(q, m, c))

    def pbw4_chain():
        rep, _, e = pbw_rep(4, (1, 2, 3))
        report = check_degeneration(TypeAQuiver(4, "FFF"), RepClass.from_pairs([(Interval(1, 4), 5)]), rep, e)
        assert report.monotone and report.identity_ok

    assert cold_run(every_cover_a2_a3) == 0
    assert cold_run(pbw4_chain) == 0
