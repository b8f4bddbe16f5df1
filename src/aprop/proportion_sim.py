"""Arrow justifications and the similarity-based proportion a:b ~ c:d.

An arrow generalization s -> t justifies a -> b when (a, b) lies in its
induced relation {(s(o), t(o))}; both terms see one shared assignment.
The four directed arrow comparisons combine into the quaternary relation.
Maximality ranges over competitor arrows of the right-hand algebra.
"""

from __future__ import annotations

import itertools

from .algebras import Element, FiniteAlgebra, term_table
from .clone import PairContext
from .similarity import is_characteristic_set
from .terms import ArrowPattern
from .verdicts import ArrowRelation, CompetitorPolicy, ProportionVerdict, check_policy

__all__ = [
    "Arrow",
    "SIM",
    "arrow_lesssim",
    "proportion_sim",
    "is_characteristic_justification_set",
    "solve_sim",
    "pattern_relation",
]

Arrow = tuple[Element, Element]


def _operands(ar1: Arrow, ar2: Arrow, side: PairContext, policy: CompetitorPolicy) -> tuple:
    # The competitors are every arrow of B: the keys of cont_b, in order.
    right = side.swapped().cont_masks
    return side.cont_masks[ar1], right, right, ar1 if policy == "literal" else None


SIM = ArrowRelation("<~", "->".join, _operands)


def arrow_lesssim(
    ar1: Arrow,
    ar2: Arrow,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> ProportionVerdict:
    """Directed arrow comparison ar1 <~ ar2 over (A, B)."""
    check_policy(policy)
    return SIM.verdict(ar1, ar2, ctx, policy)


def proportion_sim(
    a: Element,
    b: Element,
    c: Element,
    d: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> ProportionVerdict:
    """The similarity-based analogical proportion a:b ~ c:d over (A, B)."""
    return ProportionVerdict.of_conjuncts(SIM, (a, b, c, d), ctx, policy)


def pattern_relation(
    p: ArrowPattern, alg: FiniteAlgebra
) -> frozenset[tuple[Element, Element]]:
    """The binary relation {(s(o), t(o))} with one shared assignment."""
    variables = tuple(dict.fromkeys(p.lhs.variables() + p.rhs.variables()))
    return frozenset(zip(term_table(p.lhs, alg, variables), term_table(p.rhs, alg, variables)))


def is_characteristic_justification_set(
    patterns: list[ArrowPattern] | tuple[ArrowPattern, ...],
    ar1: Arrow,
    ar2: Arrow,
    ctx: PairContext,
) -> bool:
    """Whether the pattern set pins ar2 uniquely among all arrows of B.

    Unlike the element-level notion, the quantifier here has no exclusion:
    it ranges over every arrow of the right-hand algebra.
    """
    patterns = list(patterns)
    rels_a = [pattern_relation(p, ctx.alg_a) for p in patterns]
    rels_b = (
        rels_a if ctx.alg_b is ctx.alg_a else [pattern_relation(p, ctx.alg_b) for p in patterns]
    )
    arrows = itertools.product(ctx.alg_b.universe, repeat=2)
    return is_characteristic_set(rels_a, rels_b, ar1, ar2, arrows)


def solve_sim(
    a: Element,
    b: Element,
    c: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> list[Element]:
    """All d in B with a:b ~ c:d, in universe order."""
    holds = SIM.decider(ctx, policy)
    return [d for d in ctx.alg_b.universe if holds((a, b, c, d))]
