"""Fault injection into the packed cover check.

Each test breaks one input of the packed Betti tables, the strata walk or
the per-cover identities, and asserts that verify exits 1: with an
internal-check error for a check that raises, or with the failure it
collects.  Caches that a fault could fill are cleared before and after.
"""

import json

import pytest

from quivergrass import cli, grass, specialize
from quivergrass.quiver import Interval, RepClass, TypeAQuiver

VERIFY_A2 = ["verify", "--quiver", "A2:F", "--dim", "2,2", "--jobs", "1"]


@pytest.fixture(autouse=True)
def fresh_tables():
    for memo in (grass._betti_table, grass._peel_terms):
        memo.cache_clear()
    yield
    for memo in (grass._betti_table, grass._peel_terms):
        memo.cache_clear()


def internal_check(capsys, argv):
    """The internal-check message of a main(argv) call that must exit 1 with one."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "internal-check"
    return error["message"]


def verify_failures(capsys, argv):
    """The failures of a verify run that must exit 1 with some."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    failures = json.loads(captured.out)["failures"]
    assert failures
    return failures


def patch_boundary_class(monkeypatch, field, wrong):
    """bongartz_data, as the cover check reads it, with one boundary class replaced by wrong(bd)."""
    real = grass.bongartz_data

    def patched(q, m, n):
        bd = real(q, m, n)
        return bd._replace(**{field: wrong(bd)})

    monkeypatch.setattr(grass, "bongartz_data", patched)


def test_wrong_x_ker_is_caught_twice(monkeypatch, capsys):
    # x_ker is nonzero on both covers of A2:F at (2, 2); boundary_check
    # rejects it emptied, and without boundary_check the strata walk does: a
    # product that was all i = 1 becomes an i = 0 base over a pairing of -1
    patch_boundary_class(monkeypatch, "x_ker", lambda bd: RepClass.empty())
    assert internal_check(capsys, VERIFY_A2).startswith("Ker(X -> tau S)")
    monkeypatch.setattr(grass, "boundary_check", lambda bd: True)
    assert internal_check(capsys, VERIFY_A2).startswith("negative affine shift")


def test_wrong_s_quot_is_caught_twice(monkeypatch, capsys):
    # s_quot is nonzero on one cover of A2:F at (2, 2); boundary_check
    # rejects it emptied, and without boundary_check the i = 1 identity does
    patch_boundary_class(monkeypatch, "s_quot", lambda bd: RepClass.empty())
    assert internal_check(capsys, VERIFY_A2).startswith("S / Im")
    monkeypatch.setattr(grass, "boundary_check", lambda bd: True)
    failures = verify_failures(capsys, VERIFY_A2)
    assert all(failure.startswith("kernel identity fails") for failure in failures), failures


def test_negative_complement_is_caught(monkeypatch, capsys):
    # an x_ker larger than X makes an i = 1 base exceed its product
    patch_boundary_class(monkeypatch, "x_ker", lambda bd: bd.x_ker.union(bd.x_class))
    monkeypatch.setattr(grass, "boundary_check", lambda bd: True)
    assert "stratum complement has a negative count" in internal_check(capsys, VERIFY_A2)


BUMPED = (1, 1)


def bump_tables(monkeypatch, amount, classes=None):
    """The packed tables of the sweep's classes, with amount added at e = BUMPED
    for the given classes (every node when None).

    Only classes of the sweep's dimension vector are bumped: the nodes, among
    them every cover's m and n.  X, S, x_ker and s_quot of the strata walk are
    strictly smaller, so their tables stay as they are.
    """
    real = grass.packed_betti_table

    def bumped(q, m, lo, hi, w, **kwargs):
        table = dict(real(q, m, lo, hi, w, **kwargs))
        if m.dim(q.n) == (2, 2) and (classes is None or m in classes):
            table[BUMPED] = table.get(BUMPED, 0) + amount
        return table

    monkeypatch.setattr(grass, "packed_betti_table", bumped)


def a2_poset():
    return specialize.degeneration_poset(TypeAQuiver(2, "F"), (2, 2))


def identity_failures(failures):
    return [f for f in failures if f.startswith("kernel identity")]


def test_perturbed_table_entry_fails_only_the_i0_identity(monkeypatch, capsys):
    # P(m, e) and P(n, e) both one higher at e = (1, 1): the kernel and the
    # i = 1 identity stay as they are, so only the i = 0 identity sees it
    bump_tables(monkeypatch, 1)
    failures = verify_failures(capsys, VERIFY_A2)
    expected = [f"kernel identity fails: {m} -> {n} at e={BUMPED}" for m, n in a2_poset().covers]
    assert identity_failures(failures) == expected
    assert not any(f.startswith("monotonicity") for f in failures)


def test_perturbed_top_entry_fails_the_i1_identity_and_the_bound(monkeypatch, capsys):
    # only the semisimple class, which is no cover's source, one higher: the
    # kernels into it move, so the i = 1 identity fails there, and its table
    # leaves the product of Grassmannians
    poset = a2_poset()
    (top,) = [node for node in poset.nodes if all(m != node for m, _ in poset.covers)]
    bump_tables(monkeypatch, 1, {top})
    failures = verify_failures(capsys, VERIFY_A2)
    expected = [f"kernel identity fails: {m} -> {n} at e={BUMPED}" for m, n in poset.covers if n == top]
    assert expected and identity_failures(failures) == expected
    assert f"Grassmannian-product bound fails: {top} at e={BUMPED}" in failures
    assert f"semisimple class misses the product bound at e={BUMPED}" in failures


def test_perturbed_source_entry_fails_monotonicity(monkeypatch, capsys):
    # the least class, a source of covers only, 100 higher in its constant
    # term (still below the guard bit of the 8-bit slots of (2, 2))
    poset = a2_poset()
    (bottom,) = [node for node in poset.nodes if all(n != node for _, n in poset.covers)]
    bump_tables(monkeypatch, 100, {bottom})
    failures = verify_failures(capsys, VERIFY_A2)
    expected = [f"monotonicity fails: {m} -> {n} at e={BUMPED}" for m, n in poset.covers if m == bottom]
    assert expected and [f for f in failures if f.startswith("monotonicity")] == expected


def test_negative_fiber_is_caught(monkeypatch, capsys):
    monkeypatch.setattr(grass, "euler_form", lambda q, d, e: -1)
    assert internal_check(capsys, VERIFY_A2).startswith("negative fiber dimension")


def test_too_narrow_slot_width_sets_a_guard_bit(monkeypatch, capsys):
    # Gr(10, 20) has Betti numbers far above 2^7, the guard bit of an 8-bit slot
    monkeypatch.setattr(grass, "slot_width", lambda d: 8)
    with pytest.raises(grass.InternalCheckError, match="sets a guard bit at slot width 8"):
        grass.betti_table(TypeAQuiver(1), RepClass.from_pairs([(Interval(1, 1), 20)]))
    assert "sets a guard bit at slot width 8" in internal_check(
        capsys, ["verify", "--quiver", "A1", "--dim", "20", "--jobs", "1"]
    )
    # here the Betti numbers of X, S, x_ker and s_quot stay at most 5, while
    # P(m) reaches 156 in its i = 0 strata sum
    q = TypeAQuiver(2, "F")
    m, n = (RepClass.from_pairs([(Interval(a, b), k) for a, b, k in pairs]) for pairs in (
        [(1, 1, 5), (1, 2, 2), (2, 2, 6)], [(1, 1, 6), (1, 2, 1), (2, 2, 7)]
    ))
    with pytest.raises(grass.InternalCheckError, match="a strata sum at e=.* sets a guard bit at slot width 8"):
        grass.strata_sums(grass.bongartz_data(q, m, n), (0, 0), (7, 8), grass.cover_slots(m.dim(q.n)))
