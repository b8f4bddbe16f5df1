"""Metamorphic checks: relations between two engine runs that follow from the
definitions alone.  They need no oracle, so they reach whatever the engine
can build."""

import itertools
import random

import pytest

from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import RW, proportion_rw
from aprop.proportion_sim import SIM, proportion_sim
from aprop.verdicts import POLICIES
from aprop.verify import bundled_algebra, bundled_algebra_names, random_relabeling

from test_arrow_memo import QUOTIENT_PAIRS
from test_clone import named_algebra, with_op


def relation_pairs(ctx):
    """The (rel_a, rel_b) pairs of every relation class, and of those with a
    rewrite witness."""
    every = {(rc.rel_a, rc.rel_b) for rc in ctx.relations}
    witnessed = {(rc.rel_a, rc.rel_b) for rc in ctx.relations if rc.has_rewrite_witness}
    return every, witnessed


@pytest.mark.parametrize(
    "name, counts",
    [(name, (1, 2, 3)) for name in [*bundled_algebra_names(), "CS3", "Z3", "A3:collapse-1"]]
    # with a constant, the empty occurrence set is a rewrite side
    + [("CS3+z", (1, 2, 3)), ("PCOMM+z", (1, 2, 3)), ("CS4", (1, 2))],
    ids=[*bundled_algebra_names(), "CS3", "Z3", "A3:collapse-1", "CS3+z", "PCOMM+z", "CS4"],
)
def test_relation_classes_grow_with_the_variables(name, counts):
    """A term over v variables is a term over v + 1 with the same relation,
    and a rewrite pair over v stays one over v + 1, so the relation classes
    at v, and the rewrite-witnessed ones, are among those at v + 1."""
    alg_a, alg_b = QUOTIENT_PAIRS[name] if name in QUOTIENT_PAIRS else (named_algebra(name), None)
    fewer = None
    for max_vars in counts:
        ctx = build_pair_context(alg_a, alg_b, Bounds(max_vars=max_vars))
        assert ctx.saturated
        more = relation_pairs(ctx)
        if fewer is not None:
            assert fewer[0] <= more[0], max_vars
            assert fewer[1] <= more[1], max_vars
        fewer = more


@pytest.mark.parametrize(
    "name, counts",
    [(name, (2, 3, 4)) for name in bundled_algebra_names()] + [("CS4", (2, 3))],
    ids=[*bundled_algebra_names(), "CS4"],
)
def test_unary_relation_classes_are_the_same_from_two_variables(name, counts):
    """Every op of these algebras has rank at most 1, so a term has at most
    one variable and a term pair at most two.  Renaming variables keeps a
    pair's relations and whether the right term's variables lie among the
    left's, so from two variables on the relation classes, and the
    rewrite-witnessed ones, do not change with the variable count; nor do
    the verdicts, which read only those: the quadruple tables of ``sim``
    under both policies and of ``rw`` are the same at every count."""
    alg = named_algebra(name)
    assert all(rank <= 1 for _, rank in alg.language.symbols)
    at = {}
    for max_vars in counts:
        ctx = build_pair_context(alg, bounds=Bounds(max_vars=max_vars))
        assert ctx.saturated
        tables = [SIM.table(ctx, policy) for policy in POLICIES] + [RW.table(ctx, None)]
        at[max_vars] = (relation_pairs(ctx), tables)
    assert all(found == at[counts[0]] for found in at.values())


@pytest.mark.parametrize("name, policies", [
    ("A2:collapse-3", POLICIES),
    ("collapse-1:EAABB", POLICIES),
    # binary, 144 classes and 90 relation classes: past the two-algebra oracle
    ("Z4:Z3", ("all",)),
], ids=["A2:collapse-3", "collapse-1:EAABB", "Z4:Z3"])
def test_relabeling_the_first_algebra_keeps_every_verdict(name, policies):
    """An isomorphism h of A carries every term's table on A to its table on
    hA, so each relation class of (A, B) is one of (hA, B) with its A half
    relabeled: a:b against c:d on (A, B) is ha:hb against c:d on (hA, B)
    under ``rw`` and under ``sim`` with the ``all`` policy.

    Under ``literal`` the competitor skipped is the arrow of B with the left
    arrow's element names, which relabeling A can move.  It holds for the two
    quotient pairs here, but not in general: on ``Z4:Z3`` 11 of its 144
    quadruples differ at this relabeling, and on ``A3:collapse-1`` some
    differ at 6 of the seeds 0 to 7."""
    alg_a, alg_b = QUOTIENT_PAIRS.get(name) or map(named_algebra, name.split(":"))
    h = random_relabeling(alg_a, random.Random(name))
    ctx = build_pair_context(alg_a, alg_b)
    relabeled = build_pair_context(h.target, alg_b)
    for a, b, c, d in itertools.product(alg_a.universe, alg_a.universe,
                                        alg_b.universe, alg_b.universe):
        image = (h(a), h(b), c, d)
        for policy in policies:
            assert bool(proportion_sim(a, b, c, d, ctx, policy)) == bool(
                proportion_sim(*image, relabeled, policy)), (a, b, c, d, policy)
        assert bool(proportion_rw(a, b, c, d, ctx)) == bool(
            proportion_rw(*image, relabeled)), (a, b, c, d)


@pytest.mark.parametrize("name", [
    name for name in bundled_algebra_names()
    if any(rank == 1 for _, rank in bundled_algebra(name).language.symbols)
])
def test_a_derived_op_keeps_every_relation_and_verdict(name):
    """An op interpreted by a term operation of the clone adds no term
    operation, so the relation classes are those of the same pairs of term
    operations, and so is every ``sim`` verdict.  ff = f∘f uses its variable
    as f(f(x)) does, so each class also keeps its occurrence sets: the
    rewrite-witnessed classes and every ``rw`` verdict stay too.  q(x, y) =
    f(x) drops y, so q(x0, x1) gives f(x0) a new occurrence set, and only
    the ``sim`` side is kept."""
    alg = named_algebra(name)
    f = next(sym for sym, rank in alg.language.symbols if rank == 1)

    def verdicts(algebra):
        ctx = build_pair_context(algebra, bounds=Bounds(max_vars=2))
        assert ctx.saturated
        sim = [SIM.table(ctx, policy) for policy in POLICIES]
        return relation_pairs(ctx), sim, RW.table(ctx, None)

    pairs, sim, rw = verdicts(alg)
    ff = with_op(alg, "ff", 1, lambda x: alg.apply(f, (alg.apply(f, (x,)),)))
    assert verdicts(ff) == (pairs, sim, rw)
    (every, _), sim_q, _ = verdicts(with_op(alg, "q", 2, lambda x, y: alg.apply(f, (x,))))
    assert (every, sim_q) == (pairs[0], sim)
