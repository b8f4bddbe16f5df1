"""Relation classes keep their relations as one int over the arrows of the
build; ``rel_a``/``rel_b`` are decoded on read and the masks are bit columns
of the ints.  Both are checked against the relations of the witness terms'
own value tables (``algebras.term_table``), and against a context rebuilt
from relation classes made of frozensets."""

import itertools

import pytest

from aprop.algebras import term_table
from aprop.clone import Bounds, PairContext, RelationClass, build_pair_context
from aprop.verify import bundled_algebra_names

from test_arrow_memo import QUOTIENT_PAIRS
from test_clone import named_algebra

CASES = (
    [((name,), 2) for name in bundled_algebra_names()]
    # two algebras, read from both sides
    + [(QUOTIENT_PAIRS[name], 2) for name in ("A2:collapse-3", "collapse-1:EAABB")]
    # 289 arrows, and 25 + 256 arrows in two halves: relation ints of several
    # 64-bit words, the B half starting inside a byte
    + [(("Z17",), 1), (("Z5", "Z16"), 1)]
)


def build(algs, max_vars):
    algs = [named_algebra(alg) if isinstance(alg, str) else alg for alg in algs]
    return build_pair_context(*algs, bounds=Bounds(max_vars=max_vars))


def case_id(case):
    algs, max_vars = case
    return "+".join(alg if isinstance(alg, str) else alg.name for alg in algs) + f"@{max_vars}"


@pytest.mark.parametrize("algs, max_vars", CASES, ids=map(case_id, CASES))
def test_relations_and_masks_are_those_of_the_witness_tables(algs, max_vars):
    """On each side, a class's relation is {(s(o), t(o))} over the
    assignments o, and its masks hold exactly the arrows of those relations,
    the trivial class left out."""
    ctx = build(algs, max_vars)
    variables = tuple(range(max_vars))
    for side in (ctx, ctx.swapped()):
        alg = side.alg_a
        tables = {}

        def table(term):
            if term not in tables:
                tables[term] = term_table(term, alg, variables)
            return tables[term]

        own = "rel_a" if alg is ctx.clone.alg_a else "rel_b"
        cont = dict.fromkeys(itertools.product(alg.universe, repeat=2), 0)
        jus = dict(cont)
        for i, rc in enumerate(ctx.relations):
            s, t = rc.witness
            relation = frozenset(zip(table(s), table(t)))
            assert getattr(rc, own) == relation, (i, str(rc))
            if not rc.trivial:
                for arrow in relation:
                    cont[arrow] |= 1 << i
                    jus[arrow] |= rc.has_rewrite_witness << i
        assert side.cont_masks == cont
        assert side.jus_masks == jus


def test_one_algebra_decodes_one_relation_for_both_halves():
    ctx = build(("PTRANS",), 2)
    assert all(rc.rel_b is rc.rel_a for rc in ctx.relations)


@pytest.mark.parametrize(
    "algs, max_vars",
    [(("PTRANS",), 2), (QUOTIENT_PAIRS["A2:collapse-3"], 2), (("Z5", "Z16"), 1)],
    ids=["PTRANS@2", "A2:collapse-3@2", "Z5+Z16@1"],
)
def test_classes_built_from_frozensets_give_the_same_masks(algs, max_vars):
    """A relation class made of frozensets gets its int from the encoder; the
    masks of a context of such classes equal the built context's, and so do
    the classes and their reprs."""
    ctx = build(algs, max_vars)
    rebuilt = PairContext(ctx.alg_a, ctx.alg_b, ctx.clone, [
        RelationClass(rc.rel_a, rc.rel_b, rc.witness, rc.trivial, rc.rewrite_witness)
        for rc in ctx.relations
    ])
    assert rebuilt.relations == ctx.relations
    assert list(map(repr, rebuilt.relations)) == list(map(repr, ctx.relations))
    assert all(rc.key is None for rc in rebuilt.relations)
    for got, want in ((rebuilt, ctx), (rebuilt.swapped(), ctx.swapped())):
        assert got.cont_masks == want.cont_masks
        assert got.jus_masks == want.jus_masks
