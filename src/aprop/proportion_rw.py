"""Rewrite justifications and the entailment relation a:b :: c:d.

Justifications here are rewrite rules s ->> t (every variable of t occurs
in s).  The maximality quantifier varies only the fourth element, with the
third held fixed; this is the operational difference from the
similarity-based relation and the source of their divergence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebras import Element, FiniteAlgebra, term_table
from .clone import PairContext
from .similarity import is_characteristic_set
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
    return side.jus_masks[ar1], side.swapped().jus_masks, competitors, None


RW = ArrowRelation(":.", "->".join, _operands, "d-only")


def arrow_proportion_rw(ar1: Arrow, ar2: Arrow, ctx: PairContext) -> ProportionVerdict:
    """The arrow proportion ar1 transforms-as ar2, decided by d-maximality."""
    return RW.verdict(ar1, ar2, ctx, "d-only")


def proportion_rw(
    a: Element, b: Element, c: Element, d: Element, ctx: PairContext
) -> ProportionVerdict:
    """The entailment relation a:b :: c:d over (A, B)."""
    return ProportionVerdict.of_conjuncts(RW, (a, b, c, d), ctx, "d-only")


def _tables(s: Term, t: Term, alg: FiniteAlgebra, variables: tuple[int, ...]) -> tuple:
    """For the rule s ->> t, the value tables of s and t over ``variables``."""
    return term_table(s, alg, variables), term_table(t, alg, variables)


def rule_in_jus(
    rule: RewriteRule,
    ar: Arrow,
    alg: FiniteAlgebra,
) -> bool:
    """Direct membership of s ->> t in Jus(a -> b): one assignment sends s to a, t to b."""
    a, b = ar
    return (a, b) in zip(*_tables(rule.lhs, rule.rhs, alg, rule.lhs.variables()))


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
    variables = s.variables()
    if not set(t.variables()) <= set(variables):
        raise ValueError(f"not a rewrite rule: {s} ->> {t}")

    def solutions(table: tuple, e: Element) -> set[int]:
        # each assignment with value e, by its rank in the table's product order
        return {i for i, v in enumerate(table) if v == e}

    s_a, t_a = _tables(s, t, alg_a, variables)
    s_b, t_b = (s_a, t_a) if alg_b is alg_a else _tables(s, t, alg_b, variables)
    in_a = bool(solutions(s_a, a) & solutions(t_a, b))
    in_b = bool(solutions(s_b, c) & solutions(t_b, d))
    return in_a and in_b


def is_characteristic_r_justification_set(
    rules: list[RewriteRule] | tuple[RewriteRule, ...],
    ar1: Arrow,
    ar2: Arrow,
    alg_a: FiniteAlgebra,
    alg_b: FiniteAlgebra,
) -> bool:
    """Whether the rule set pins d uniquely while c stays fixed."""
    rels_a = [set(zip(*_tables(r.lhs, r.rhs, alg_a, r.lhs.variables()))) for r in rules]
    rels_b = (
        rels_a if alg_b is alg_a
        else [set(zip(*_tables(r.lhs, r.rhs, alg_b, r.lhs.variables()))) for r in rules]
    )
    competitors = [(ar2[0], d) for d in alg_b.universe]
    return is_characteristic_set(rels_a, rels_b, ar1, ar2, competitors)


def _rule_facts(rule: RewriteRule, alg: FiniteAlgebra) -> tuple[set, set, set]:
    """The premise facts of s ->> t on ``alg``, from the value tables of s and t
    over the variables of s: the pairs (s(o), t(o)), the elements with one
    solution of s, and those with one solution of t over t's own variables.
    e = t(x) has one solution exactly when e fills |U|^free cells of t's
    table, where free counts the variables of s that t lacks.
    """
    s_table, t_table = _tables(rule.lhs, rule.rhs, alg, rule.lhs.variables())
    once = len(alg.universe) ** (len(rule.lhs.variables()) - len(rule.rhs.variables()))
    return (
        set(zip(s_table, t_table)),
        {e for e, n in Counter(s_table).items() if n == 1},
        {e for e, n in Counter(t_table).items() if n == once},
    )


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

    The member and premise fields are set lookups in the rule's premise facts
    on each algebra (``_rule_facts``), built from the value tables of s and t
    on the first check of the rule on ``ctx`` and kept in ``ctx.rule_facts``;
    ``conclusion_arrow`` reads the memo of ``RW.code`` and
    ``conclusion_full`` one bit of ``RW.table(ctx, "d-only")``, row (a, b)
    and column (c, d), through ``RW.bit``.  A reported violation would indicate a framework bug,
    not a property of the inputs.
    """
    # the arrow conclusion from the memo of arrow codes, the full one as one
    # bit of the decided quadruple table; neither builds a verdict
    conclusion_arrow = RW.code((a, b), (c, d), ctx, "d-only")[0] in HOLDING
    conclusion_full = RW.bit(ctx, "d-only")(a, b, c, d)
    # the facts are stored only once built, and after the conclusions, so a
    # call that raises stores nothing
    name = str(rule)
    facts = ctx.rule_facts.get(name)
    if facts is None:
        on_a = _rule_facts(rule, ctx.alg_a)
        on_b = on_a if ctx.alg_b is ctx.alg_a else _rule_facts(rule, ctx.alg_b)
        facts = ctx.rule_facts[name] = (name, on_a, on_b)
    name, (pairs_a, once_s_a, once_t_a), (pairs_b, once_s_b, once_t_b) = facts
    member = (a, b) in pairs_a and (c, d) in pairs_b
    premise_arrow = member and c in once_s_b
    premise_full = premise_arrow and a in once_s_a and b in once_t_a and d in once_t_b
    return UniquenessReport(
        rule=name,
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
    return [d for d in ctx.alg_b.universe if holds((a, b, c, d))]
