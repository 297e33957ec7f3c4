"""Numerical shadow of specialization maps along degenerations.

For a degeneration m -> n the restriction map on cohomology of the quiver
Grassmannians is surjective; at the level of graded dimensions that means
P(n, e) dominates P(m, e) coefficientwise, and for a minimal degeneration
the difference is exactly the i = 1 part of the strata table, while P(m, e)
is its i = 0 part.  Arbitrary degenerations reduce to chains of covers.
Every route checks a cover with one function, grass.cover_rows, over a box
of e: verify_theorem over 0 <= e <= d, check_degeneration over [e, e] at
each chain link.  The semisimple class tops every poset, so every P(m, e)
is dominated by a product of Gaussian binomials (grass.product_bound_rows).
This module sees polynomials, verdicts and failure strings only; the packed
arithmetic of both checks stays in grass.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .degen import degeneration_poset, hom_leq, local_covers
from .grass import PoincarePoly, betti_recursion, cover_rows, product_bound_rows
from .quiver import (
    InternalCheckError,
    Interval,
    RepClass,
    TypeAQuiver,
    semisimple_class,
)


class CoverCheck(namedtuple("CoverCheck", "m n e p_n p_m kernel monotone identity_ok")):
    """One minimal degeneration m -> n probed at subdimension e.

    kernel is p_n - p_m; identity_ok holds both strata identities, the
    kernel against the i = 1 sum and p_m against the i = 0 sum.
    """

    __slots__ = ()


class SpecializationReport(
    namedtuple("SpecializationReport", "quiver m n e chain p_n p_m kernel monotone identity_ok")
):
    """A degeneration m -> n checked at e along a saturated chain, one CoverCheck per link."""

    __slots__ = ()


def saturated_chain(q: TypeAQuiver, m: RepClass, n: RepClass) -> tuple[RepClass, ...]:
    """A chain m = C0 < C1 < ... < Ck = n of covers, chosen greedily.

    At each step the first cover of the current class (local_covers, in
    canonical node order) still below n is taken; no poset is built.
    """
    if m.dim(q.n) != n.dim(q.n):
        raise ValueError("classes have different dimension vectors")
    if not hom_leq(q, m, n):
        raise ValueError(f"{m} does not degenerate to {n}")
    chain = [m]
    while chain[-1] != n:
        step = next((c for c in local_covers(q, chain[-1]) if hom_leq(q, c, n)), None)
        if step is None:
            raise ValueError(f"no saturated chain from {chain[-1]} to {n}")
        chain.append(step)
    return tuple(chain)


def check_degeneration(q: TypeAQuiver, m: RepClass, n: RepClass, e: tuple[int, ...]) -> SpecializationReport:
    """Check an arbitrary degeneration by composing along a saturated chain.

    The polynomial of each chain node at e is read once.
    """
    chain = saturated_chain(q, m, n)
    polys = [betti_recursion(q, c, e) for c in chain]
    checks = tuple(
        CoverCheck(a, b, e, p_b, p_a, *row[1:])
        for a, b, p_a, p_b in zip(chain, chain[1:], polys, polys[1:])
        for row in cover_rows((q, a, b, e, e))  # the one row of the box [e, e]
    )
    p_m, p_n = polys[0], polys[-1]
    kernel = p_n - p_m
    monotone = all(c.monotone for c in checks) and p_m.leq(p_n)
    identity_ok = all(c.identity_ok for c in checks)
    return SpecializationReport(q, m, n, e, checks, p_n, p_m, kernel, monotone, identity_ok)


class VerifySummary(
    namedtuple("VerifySummary", "quiver d nodes covers cover_checks bound_checks failures kernels")
):
    """A verify sweep of dimension d: the counts, the failure strings, and
    (m, n, e, kernel) for every cover check."""

    __slots__ = ()


VERIFY_WORK_BUDGET = 500_000


def verify_theorem(
    q: TypeAQuiver, d: tuple[int, ...], jobs: int = 1, budget: int = VERIFY_WORK_BUDGET
) -> VerifySummary:
    """Sweep every cover and every e <= d; also bound every node by the
    semisimple product of Gaussian binomials.

    Failures are collected, not raised: a failure would falsify the
    implementation, so the summary reports them for inspection.  The covers
    run in a process pool of min(jobs, covers, CPUs) workers when that is
    more than one; jobs below 1 is a ValueError.  A rough
    work estimate (the poset, the covers and nodes at every e, and the
    Gaussian binomials of the bounds) is compared against the budget first;
    raise it explicitly for larger-than-desk-scale sweeps.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    poset = degeneration_poset(q, d)
    # the bounds fill the q-binomial memo: per vertex about (d_v + 1)^2
    # entries of up to d_v^2 // 4 + 1 coefficients
    binomials = sum((x + 1) ** 2 * (x * x // 4 + 1) for x in d)
    work = len(poset.nodes) ** 2 + (len(poset.nodes) + len(poset.covers)) * math.prod(x + 1 for x in d) + binomials
    if work > budget:
        raise ValueError(f"estimated sweep size {work} exceeds budget {budget}")
    failures: list[str] = []
    kernels: list[tuple[RepClass, RepClass, tuple[int, ...], PoincarePoly]] = []
    tasks = [(q, m, n, (0,) * q.n, d) for (m, n) in poset.covers]
    workers = min(jobs, len(tasks), default_jobs())
    if workers > 1:
        # imported here so that a serial sweep or any other route never loads
        # the process-pool stack (concurrent.futures.process, multiprocessing)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(cover_rows, tasks))
    else:
        results = [cover_rows(t) for t in tasks]
    cover_checks = 0
    for (m, n), rows in zip(poset.covers, results):
        for e, kernel, monotone, identity_ok in rows:
            cover_checks += 1
            kernels.append((m, n, e, kernel))
            if not monotone:
                failures.append(f"monotonicity fails: {m} -> {n} at e={e}")
            if not identity_ok:
                failures.append(f"kernel identity fails: {m} -> {n} at e={e}")
    top = semisimple_class(q, d)
    bound_checks = 0
    for node, e, within, exact in product_bound_rows(q, d, poset.nodes):
        bound_checks += 1
        if not within:
            failures.append(f"Grassmannian-product bound fails: {node} at e={e}")
        if node == top and not exact:
            failures.append(f"semisimple class misses the product bound at e={e}")
    return VerifySummary(
        q,
        d,
        len(poset.nodes),
        len(poset.covers),
        cover_checks,
        bound_checks,
        tuple(failures),
        tuple(kernels),
    )


def default_jobs() -> int:
    return os.cpu_count() or 1


def pbw_rep(n: int, i_tuple: tuple[int, ...]) -> tuple[RepClass, tuple[int, ...], tuple[int, ...]]:
    """Degenerate flag representation on the equioriented A_n quiver.

    For 1 <= i_1 < ... < i_k <= n-1 the class is
    P_1^(n+1-k) + sum over l of (I_{i_l} + P_{i_l + 1}), with ambient
    dimension (n+1, ..., n+1) and flag dimensions (1, 2, ..., n).  The full
    projective class P_1^(n+1) degenerates to it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = len(i_tuple)
    if k < 1 or k > n - 1:
        raise ValueError("tuple length must be between 1 and n-1")
    if any(i < 1 or i > n - 1 for i in i_tuple) or any(
        a >= b for a, b in zip(i_tuple, i_tuple[1:])
    ):
        raise ValueError("tuple entries must be strictly increasing in 1..n-1")
    q = TypeAQuiver(n, "F" * (n - 1))
    projective = lambda j: Interval(j, n)
    injective = lambda j: Interval(1, j)
    pairs = [(projective(1), n + 1 - k)]
    for i in i_tuple:
        pairs.append((injective(i), 1))
        pairs.append((projective(i + 1), 1))
    rep = RepClass.from_pairs(pairs)
    d = tuple(n + 1 for _ in range(n))
    e = tuple(range(1, n + 1))
    if rep.dim(n) != d:
        raise InternalCheckError(f"pbw class has dimension {rep.dim(n)}, expected {d}")
    flag_class = RepClass.from_pairs([(projective(1), n + 1)])
    if not hom_leq(q, flag_class, rep):
        raise InternalCheckError("full projective class does not degenerate to the pbw class")
    return rep, d, e
