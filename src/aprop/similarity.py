"""Element-level generalization sets and the similarity relation.

An element's generalization set is the set of denotation classes whose image
contains it.  A class is trivial in a pair of algebras when it generalizes
every element on both sides.  The directed relation compares shared
generalization sets against those of competitor elements; similarity is the
symmetric conjunction.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .algebras import Element, FiniteAlgebra, evaluate
from .clone import PairContext
from .terms import Term
from .verdicts import CompetitorPolicy, ProportionVerdict, check_policy

__all__ = [
    "lesssim",
    "similar",
    "is_characteristic_generalization_set",
]


def lesssim(
    a: Element,
    b: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> ProportionVerdict:
    """The directed relation a <~ b over (A, B)."""
    check_policy(policy)
    if a not in ctx.alg_a.index:
        raise KeyError(f"unknown element {a!r}")
    if b not in ctx.alg_b.index:
        raise KeyError(f"unknown element {b!r}")
    classes = ctx.clone.classes
    return ProportionVerdict.of_maximality(
        ctx.bitmasks("elem_up_a")[a], ctx.bitmasks("elem_up_b"), b, ctx.alg_b.universe, str,
        lambda i: classes[i].witness, ctx, policy, a if policy == "literal" else None,
    )


def similar(
    a: Element,
    b: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> ProportionVerdict:
    """a <~ b over (A, B) and b <~ a over (B, A); the first that fails decides."""
    verdicts = []
    for x, y, side in ((a, b, ctx), (b, a, ctx.swapped())):
        verdicts.append(lesssim(x, y, side, policy))
        if not verdicts[-1]:
            return replace(
                verdicts[-1], reason="conjunct-failed", failed_conjunct=f"{x} <~ {y}",
                witness=None, comparisons=(),
            )
    return replace(verdicts[0], comparisons=())


def generalizes(t: Term, a: Element, alg: FiniteAlgebra) -> bool:
    """Whether a = t(o) for some assignment o, by direct enumeration."""
    variables = t.variables()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        if evaluate(t, alg, dict(zip(variables, values))) == a:
            return True
    return False


def is_characteristic_generalization_set(
    terms: list[Term] | set[Term] | tuple[Term, ...],
    a: Element,
    b: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> bool:
    """Whether the term set pins b uniquely among competitor elements."""
    check_policy(policy)
    terms = list(terms)
    if not all(
        generalizes(t, a, ctx.alg_a) and generalizes(t, b, ctx.alg_b) for t in terms
    ):
        return False
    for b2 in ctx.alg_b.universe:
        if b2 == b:
            continue
        if policy == "literal" and b2 == a:
            continue
        if all(
            generalizes(t, a, ctx.alg_a) and generalizes(t, b2, ctx.alg_b)
            for t in terms
        ):
            return False
    return True
