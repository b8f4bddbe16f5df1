"""The joins of the four-variable schemata on handcrafted tables.

Each case gives a table, and for p-symmetry on two algebras the table of
the mirror side, with the first counterexample and the proportions the
short-circuit enumeration of the statement reads up to it, worked out by
hand: two per instance for a ``!=`` statement; for central-p-transitivity,
all n instances of a block (a, b, c) read p1 alone when a:b ~ b:c fails,
and otherwise each reads 1 + [p1] + [p1 and p2].  The statement's own
enumeration must agree.  On a quotient pair, only p-symmetry builds the
table of the mirror side.
"""

from itertools import product

import pytest
from test_arrow_memo import QUOTIENT_PAIRS
from test_axiom_query import POLICIES, enumerate_statement, expected_report

from aprop.clone import Bounds, build_pair_context
from aprop.verify import AXIOM_SCHEMATA, FRAMEWORKS, check_axiom

U = ("x", "y")
V = ("u", "v", "w")


def bits(*pairs, n=2):
    """A row with the bits of the (c, d) ranks in ``pairs``."""
    return sum(1 << (c * n + d) for c, d in pairs)


FULL = (bits((0, 0), (0, 1), (1, 0), (1, 1)),) * 4
IDENTITY = (bits((0, 0)), bits((0, 1)), bits((1, 0)), bits((1, 1)))

# name: case -> (rows, mirror or None, counterexample, instances).  Tables on
# U rank rows xx, xy, yx, yy.  An instance whose two or three quadruples
# coincide cannot be violated, so "first" and "last" are the first and the
# last instance that can be a counterexample at all.
CASES = {
    # xx:xy but not xy:xx, at the second instance
    "p-symmetry: first": ((bits((0, 1)), 0, 0, 0), None, ("x", "x", "x", "y"), 4),
    # yx:yy but not yy:yx; (y, y, y, x) is caught as (y, x, y, y), the 12th instance
    "p-symmetry: last": ((0, 0, bits((1, 1)), 0), None, ("y", "x", "y", "y"), 24),
    "p-symmetry: absent": (IDENTITY, None, None, 32),
    # xx:xy but not xx:yx, at the second instance
    "inner-p-symmetry: first": ((bits((0, 1)), 0, 0, 0), None, ("x", "x", "x", "y"), 4),
    # yy:xy but not yy:yx, at the 14th instance
    "inner-p-symmetry: last": ((0, 0, 0, bits((0, 1))), None, ("y", "y", "x", "y"), 28),
    "inner-p-symmetry: absent": (IDENTITY, None, None, 32),
    # xx:yx but not xy:xx, at the third instance
    "central-permutation: first": ((bits((1, 0)), 0, 0, 0), None, ("x", "x", "y", "x"), 6),
    # yx:yy but not yy:xy, at the 12th instance
    "central-permutation: last": ((0, 0, bits((1, 1)), 0), None, ("y", "x", "y", "y"), 24),
    # a:b ~ c:d exactly when d = a, which b and c do not touch
    "central-permutation: absent": (
        (bits((0, 0), (1, 0)),) * 2 + (bits((0, 1), (1, 1)),) * 2, None, None, 32
    ),
    # block (x, x, x) reads 2; then xx:xy, xy:yx, not xx:yx reads 3
    "central-p-transitivity: first": (
        (bits((0, 1)), bits((1, 0)), 0, 0), None, ("x", "x", "y", "x"), 5
    ),
    # five blocks with p1 false read 2 each; (y, x, y) reads 2 + 2; then
    # (y, y, x, x) reads 2 and yy:yx, yx:xy, not yy:xy reads 3
    "central-p-transitivity: last": (
        (0, 0, bits((0, 1)), bits((1, 0))), None, ("y", "y", "x", "y"), 19
    ),
    "central-p-transitivity: absent, full": (FULL, None, None, 48),
    "central-p-transitivity: absent, empty": ((0, 0, 0, 0), None, None, 16),
}

# On A = U and B = V, 4 rows of 9 bits against a mirror of 9 rows of 4 bits.
# xy:uw holds on both sides.  vv:yx holds on the mirror side only, at the
# 23rd instance (y, x, v, v); a join that read its own rows would find no
# counterexample.
TWO_ALGEBRAS = {
    "p-symmetry: mirror": (
        (0, bits((0, 2), n=3), 0, 0),
        (0, 0, bits((0, 1)), 0, bits((1, 0)), 0, 0, 0, 0),
        ("y", "x", "v", "v"),
        46,
    ),
    "p-symmetry: mirror, absent": (
        (0, bits((0, 2), n=3), 0, 0),
        (0, 0, bits((0, 1)), 0, 0, 0, 0, 0, 0),
        None,
        72,
    ),
    # xy:uv and yx:vu; xx:vw but not xx:wv, at the sixth instance
    "inner-p-symmetry: two algebras": (
        (bits((1, 2), n=3), bits((0, 1), n=3), bits((1, 0), n=3), 0),
        None,
        ("x", "x", "v", "w"),
        12,
    ),
}


def reader(rows, A, B):
    """``holds(q)``: the bit of q = (a, b, c, d) in the table ``rows`` of (A, B)."""

    def holds(q):
        a, b, c, d = A.index(q[0]), A.index(q[1]), B.index(q[2]), B.index(q[3])
        return rows[a * len(A) + b] >> (c * len(B) + d) & 1 == 1

    return holds


def check(name, A, B, rows, mirror, counterexample, instances):
    here = reader(rows, A, B)
    there = here if mirror is None else reader(mirror, B, A)
    statement = enumerate_statement(
        name, lambda side, q: (here if side == "ab" else there)(q), A, B, "ab", "ba"
    )
    assert statement == (counterexample, instances)
    join = AXIOM_SCHEMATA[name].join
    got = join(rows, A, B) if mirror is None else join(rows, A, B, mirror)
    assert got == (counterexample, instances)


@pytest.mark.parametrize("case", CASES)
def test_joins_on_one_algebra(case):
    check(case.split(":")[0], U, U, *CASES[case])


@pytest.mark.parametrize("case", TWO_ALGEBRAS)
def test_joins_on_two_algebras(case):
    check(case.split(":")[0], U, V, *TWO_ALGEBRAS[case])


@pytest.mark.parametrize("pair", ["A3:collapse-1", "collapse-1:A3"])
def test_only_p_symmetry_builds_the_mirror_table(pair):
    """On two algebras a lone check builds the table of the (B, A) side only
    for p-symmetry, the one schema that reads it; every report is that of the
    statement's own enumeration, which reads both sides through verdicts."""
    slow = build_pair_context(*QUOTIENT_PAIRS[pair], Bounds())
    for framework, policy in product(FRAMEWORKS, POLICIES):
        for name in ("inner-p-transitivity", "inner-p-reflexivity", "p-symmetry"):
            ctx = build_pair_context(*QUOTIENT_PAIRS[pair], Bounds())
            assert ctx.swapped() is not ctx
            report = check_axiom(name, ctx, framework, policy)
            assert report == expected_report(name, slow, framework, policy)
            assert len(ctx.quad_tables) == 1
            assert len(ctx.swapped().quad_tables) == (name == "p-symmetry")
