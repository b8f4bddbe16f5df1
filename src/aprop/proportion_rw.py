"""Rewrite justifications and the entailment relation a:b :: c:d.

Justifications here are rewrite rules s ->> t (every variable of t occurs
in s).  The maximality quantifier varies only the fourth element, with the
third held fixed; this is the operational difference from the
similarity-based relation and the source of their divergence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import (
    Element,
    FiniteAlgebra,
    evaluate,
    solution_set,
    unique_solution_elements,
)
from .clone import PairContext
from .terms import RewriteRule, Term
from .verdicts import HOLDING, ArrowRelation, ProportionVerdict

__all__ = [
    "Arrow",
    "RW",
    "arrow_proportion_rw",
    "proportion_rw",
    "jus_membership_via_solutions",
    "rule_in_jus",
    "is_characteristic_r_justification_set",
    "uniqueness_lemma_check",
    "UniquenessReport",
    "solve_rw",
]

Arrow = tuple[Element, Element]


def _operands(ar1: Arrow, ar2: Arrow, side: PairContext, policy: str) -> tuple:
    # The competitors are the arrows c -> d' of B, c = ar2[0], in order.
    competitors = [(ar2[0], d) for d in side.alg_b.universe]
    return side.bitmasks("jus_a")[ar1], side.bitmasks("jus_b"), competitors, None


RW = ArrowRelation(":.", "->".join, _operands, "d-only")


def arrow_proportion_rw(ar1: Arrow, ar2: Arrow, ctx: PairContext) -> ProportionVerdict:
    """The arrow proportion ar1 transforms-as ar2, decided by d-maximality."""
    return RW.verdict(ar1, ar2, ctx, "d-only")


def proportion_rw(
    a: Element, b: Element, c: Element, d: Element, ctx: PairContext
) -> ProportionVerdict:
    """The entailment relation a:b :: c:d over (A, B)."""
    return ProportionVerdict.of_conjuncts(RW, (a, b, c, d), ctx, "d-only")


def rule_in_jus(
    rule: RewriteRule,
    ar: Arrow,
    alg: FiniteAlgebra,
) -> bool:
    """Direct membership of s ->> t in Jus(a -> b), by enumerating assignments."""
    variables = rule.lhs.variables()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        o = dict(zip(variables, values))
        if evaluate(rule.lhs, alg, o) == ar[0] and evaluate(rule.rhs, alg, o) == ar[1]:
            return True
    return False


def jus_membership_via_solutions(
    s: Term,
    t: Term,
    a: Element,
    b: Element,
    c: Element,
    d: Element,
    alg_a: FiniteAlgebra,
    alg_b: FiniteAlgebra,
) -> bool:
    """Membership of s ->> t in Jus(a->b :. c->d) via solution-set intersection.

    Both solution sets are taken over the variable tuple of s; since every
    variable of t occurs in s, t simply ignores the unused coordinates.
    """
    rule = RewriteRule(s, t)  # validates the variable-containment condition
    variables = rule.lhs.variables()
    in_a = bool(
        solution_set(s, a, alg_a, variables) & solution_set(t, b, alg_a, variables)
    )
    in_b = bool(
        solution_set(s, c, alg_b, variables) & solution_set(t, d, alg_b, variables)
    )
    return in_a and in_b


def is_characteristic_r_justification_set(
    rules: list[RewriteRule] | tuple[RewriteRule, ...],
    ar1: Arrow,
    ar2: Arrow,
    alg_a: FiniteAlgebra,
    alg_b: FiniteAlgebra,
) -> bool:
    """Whether the rule set pins d uniquely while c stays fixed."""
    rules = list(rules)
    if not all(rule_in_jus(r, ar1, alg_a) and rule_in_jus(r, ar2, alg_b) for r in rules):
        return False
    c, d = ar2
    for d2 in alg_b.universe:
        if d2 == d:
            continue
        if all(rule_in_jus(r, (c, d2), alg_b) for r in rules):
            return False
    return True


@dataclass(frozen=True)
class UniquenessReport:
    rule: str
    quadruple: tuple[Element, Element, Element, Element]
    member: bool
    premise_arrow: bool       # member and c in 1_B(s)
    conclusion_arrow: bool    # a->b :. c->d
    premise_full: bool        # member and all four injectivity conditions
    conclusion_full: bool     # a:b :: c:d
    arrow_violation: bool
    full_violation: bool

    @property
    def violation(self) -> bool:
        return self.arrow_violation or self.full_violation


def uniqueness_lemma_check(
    rule: RewriteRule,
    a: Element,
    b: Element,
    c: Element,
    d: Element,
    ctx: PairContext,
) -> UniquenessReport:
    """Evaluate both implications of the uniqueness result on one instance.

    A reported violation would indicate a framework bug, not a property of
    the inputs.
    """
    alg_a, alg_b = ctx.alg_a, ctx.alg_b
    member = rule_in_jus(rule, (a, b), alg_a) and rule_in_jus(rule, (c, d), alg_b)
    premise_arrow = member and c in unique_solution_elements(rule.lhs, alg_b)
    premise_full = (
        member
        and a in unique_solution_elements(rule.lhs, alg_a)
        and b in unique_solution_elements(rule.rhs, alg_a)
        and c in unique_solution_elements(rule.lhs, alg_b)
        and d in unique_solution_elements(rule.rhs, alg_b)
    )
    # read from the memo of arrow codes, without building verdicts
    conclusion_arrow = RW.code((a, b), (c, d), ctx, "d-only")[0] in HOLDING
    conclusion_full = RW.decider(ctx, "d-only")(ctx, (a, b, c, d))
    return UniquenessReport(
        rule=str(rule),
        quadruple=(a, b, c, d),
        member=member,
        premise_arrow=premise_arrow,
        conclusion_arrow=conclusion_arrow,
        premise_full=premise_full,
        conclusion_full=conclusion_full,
        arrow_violation=premise_arrow and not conclusion_arrow,
        full_violation=premise_full and not conclusion_full,
    )


def solve_rw(a: Element, b: Element, c: Element, ctx: PairContext) -> list[Element]:
    """All d in B with a:b :: c:d, in universe order."""
    holds = RW.decider(ctx, "d-only")
    return [d for d in ctx.alg_b.universe if holds(ctx, (a, b, c, d))]
