"""Axioms as queries over the decided quadruple tables, against their statements.

``STATEMENTS`` states every schema as a short-circuit enumeration of its
instances, and ``enumerate_statement`` runs it, counting each proportion it
evaluates.  ``check_axiom`` reads the tables instead: the schemata of at most
four variables bit by bit, the two transitivity schemata by joins of rows.
Every ``CheckReport`` field must agree, counterexample and ``instances``
included.  The enumeration decides through the verdict path on a context of
its own, so it never reads a table or the memo behind one.
"""

import random
from itertools import product

import pytest
from test_arrow_memo import QUOTIENT_PAIRS
from test_clone import generated_algebra

from aprop.algebras import parse_spec_file
from aprop.clone import Bounds, build_pair_context
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    CheckReport,
    check_axiom,
    random_algebra,
)

POLICIES = ("literal", "all")

# name -> (instances(A, B, S), violated(p, ab, ba, *xs)), as in the paper.
STATEMENTS = {
    "p-reflexivity": (
        lambda A, B, S: product(A, repeat=2),
        lambda p, ab, ba, a, b: not p(ab, (a, b, a, b)),
    ),
    "p-symmetry": (
        lambda A, B, S: product(A, A, B, B),
        lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ba, (c, d, a, b)),
    ),
    "inner-p-symmetry": (
        lambda A, B, S: product(A, A, B, B),
        lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ab, (b, a, d, c)),
    ),
    "p-determinism": (
        lambda A, B, S: product(A, repeat=2),
        lambda p, ab, ba, a, d: p(ab, (a, a, a, d)) != (d == a),
    ),
    "inner-p-reflexivity": (
        lambda A, B, S: product(A, B),
        lambda p, ab, ba, a, c: not p(ab, (a, a, c, c)),
    ),
    "central-permutation": (
        lambda A, B, S: product(A, repeat=4),
        lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ab, (a, c, b, d)),
    ),
    "strong-inner-p-reflexivity": (
        lambda A, B, S: product(A, repeat=3),
        lambda p, ab, ba, a, c, d: d != c and p(ab, (a, a, c, d)),
    ),
    "strong-p-reflexivity": (
        lambda A, B, S: product(A, repeat=3),
        lambda p, ab, ba, a, b, d: d != b and p(ab, (a, b, a, d)),
    ),
    "p-commutativity": (
        lambda A, B, S: product(S, repeat=2),
        lambda p, ab, ba, a, b: not p(ab, (a, b, b, a)),
    ),
    "p-transitivity": (
        lambda A, B, S: product(A, A, B, B, B, B),
        lambda p, ab, ba, a, b, c, d, e, f: p(ab, (a, b, c, d))
        and p(ab, (c, d, e, f)) and not p(ab, (a, b, e, f)),
    ),
    "inner-p-transitivity": (
        lambda A, B, S: (
            (a, b, c, d, e, f) for a, b, e, c, d, f in product(A, A, A, B, B, B)
        ),
        lambda p, ab, ba, a, b, c, d, e, f: p(ab, (a, b, c, d))
        and p(ab, (b, e, d, f)) and not p(ab, (a, e, c, f)),
    ),
    "central-p-transitivity": (
        lambda A, B, S: product(A, S, S, B),
        lambda p, ab, ba, a, b, c, d: p(ab, (a, b, b, c))
        and p(ab, (b, c, c, d)) and not p(ab, (a, b, c, d)),
    ),
}


def enumerate_statement(name, holds, A, B, ab, ba):
    """(first counterexample or None, proportions evaluated up to it), where
    ``holds(side, q)`` decides q on ``ab`` or ``ba``."""
    instances, violated = STATEMENTS[name]
    count = 0

    def p(side, q):
        nonlocal count
        count += 1
        return holds(side, q)

    shared = tuple(e for e in A if e in B)
    for xs in instances(A, B, shared):
        if violated(p, ab, ba, *xs):
            return xs, count
    return None, count


def expected_report(name, ctx, framework, policy) -> CheckReport:
    """The report of the statement's enumeration, deciding each quadruple once
    through ``FRAMEWORKS[framework].decide``."""
    decide, decided = FRAMEWORKS[framework].decide, {}

    def holds(side, q):
        key = (side is ctx, q)
        if key not in decided:
            decided[key] = bool(decide(q, side, policy))
        return decided[key]

    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    ce, instances = enumerate_statement(name, holds, A, B, ctx, ctx.swapped())
    return CheckReport(
        schema=name,
        framework=framework,
        policy=policy,
        algebras=tuple(sorted({ctx.alg_a.name, ctx.alg_b.name})),
        holds=ce is None,
        counterexample=ce,
        instances=instances,
        max_vars=ctx.bounds.max_vars,
        exact=ctx.saturated,
    )


def test_every_schema_has_a_statement():
    assert STATEMENTS.keys() == AXIOM_SCHEMATA.keys()


def assert_queries_match(make_context, schemata) -> None:
    fast, slow = make_context(), make_context()
    for name, framework, policy in product(schemata, FRAMEWORKS, POLICIES):
        assert check_axiom(name, fast, framework, policy) == expected_report(
            name, slow, framework, policy
        ), (name, framework, policy)


@pytest.mark.parametrize("seed", range(40))
def test_queries_match_the_statements_on_random_algebras(seed):
    alg = random_algebra(random.Random(seed))
    assert_queries_match(lambda: build_pair_context(alg, bounds=Bounds()), AXIOM_SCHEMATA)


@pytest.mark.parametrize("name,max_vars", [("Z3", 2), ("J3", 2), ("CS3", 1)])
def test_queries_match_the_statements_on_generated_algebras(name, max_vars):
    alg = generated_algebra(name)
    assert_queries_match(
        lambda: build_pair_context(alg, bounds=Bounds(max_vars=max_vars)), AXIOM_SCHEMATA
    )


@pytest.mark.parametrize("pair", sorted(QUOTIENT_PAIRS))
def test_queries_match_the_statements_on_quotient_pairs(pair):
    arity2 = [name for name, s in AXIOM_SCHEMATA.items() if s.context_arity == 2]
    assert_queries_match(lambda: build_pair_context(*QUOTIENT_PAIRS[pair], Bounds()), arity2)


def bits(*pairs, n=2):
    """A row with the bits of the (c, d) ranks in ``pairs``."""
    return sum(1 << (c * n + d) for c, d in pairs)


U = ("x", "y")
# Handcrafted tables on U, rows ranked xx, xy, yx, yy.  Neither schema can
# be violated by its first or its last instance, where p1 and p3 (or p2 and
# p3) read one quadruple, so "first" and "last" are the first and the last
# instance that can be a counterexample at all.
HANDCRAFTED = {
    # xx:xy, xy:xx, not xx:xx, at (ab, cd, ef) = (xx, xy, xx)
    "p-transitivity: first": (
        (bits((0, 1)), bits((0, 0)), 0, 0), ("x", "x", "x", "y", "x", "x")
    ),
    # yy:yx, yx:yy, not yy:yy, at (yy, yx, yy)
    "p-transitivity: last": (
        (0, 0, bits((1, 0), (1, 1)), bits((1, 0))), ("y", "y", "y", "x", "y", "y")
    ),
    "p-transitivity: absent, full": ((bits((0, 0), (0, 1), (1, 0), (1, 1)),) * 4, None),
    "p-transitivity: absent, identity": (
        (bits((0, 0)), bits((0, 1)), bits((1, 0)), bits((1, 1))), None
    ),
    # xx:xy, xx:yx, not xx:xx, at (a, b, e, c, d, f) = (x, x, x, x, y, x)
    "inner-p-transitivity: first": (
        (bits((0, 1), (1, 0)), 0, 0, 0), ("x", "x", "x", "y", "x", "x")
    ),
    # yy:yx, yy:xy, not yy:yy, at (y, y, y, y, x, y)
    "inner-p-transitivity: last": (
        (0, 0, 0, bits((0, 0), (0, 1), (1, 0))), ("y", "y", "y", "x", "y", "y")
    ),
    "inner-p-transitivity: absent, full": ((bits((0, 0), (0, 1), (1, 0), (1, 1)),) * 4, None),
    "inner-p-transitivity: absent, c = d": ((bits((0, 0), (1, 1)),) * 4, None),
}


@pytest.mark.parametrize("case", HANDCRAFTED)
def test_transitivity_joins_on_handcrafted_tables(case):
    name = case.split(":")[0]
    rows, counterexample = HANDCRAFTED[case]

    def holds(side, q):
        a, b, c, d = (U.index(e) for e in q)
        return rows[a * 2 + b] >> (c * 2 + d) & 1 == 1

    expected = enumerate_statement(name, holds, U, U, None, None)
    assert expected[0] == counterexample
    assert AXIOM_SCHEMATA[name].join(rows, U, U) == expected


def test_the_two_sides_of_a_pair_keep_their_own_tables():
    """On (P, Q) and its mirror (Q, P) every table bit is the verdict of its
    quadruple there, and the two sides disagree on some quadruple."""
    spec = parse_spec_file(
        "algebra P { universe: a, b; op f/1: a -> b, b -> a; }"
        "algebra Q { universe: a, b; op f/1: a -> a, b -> b; }"
    )
    ctx = build_pair_context(spec.algebras["P"], spec.algebras["Q"])
    for fw, policy in product(FRAMEWORKS.values(), POLICIES):
        verdicts = {}
        for side in (ctx, ctx.swapped()):
            rows = fw.arrows.table(side, policy)
            A, B = side.alg_a.universe, side.alg_b.universe
            ranked = zip(product(A, A), rows)
            for ((a, b), row), ((k, (c, d))) in product(ranked, enumerate(product(B, B))):
                got = row >> k & 1 == 1
                assert got == bool(fw.decide((a, b, c, d), side, policy))
                verdicts[side is ctx, (a, b, c, d)] = got
        assert any(
            verdicts[True, q] != verdicts[False, q]
            for q in product("ab", repeat=4)
        )
