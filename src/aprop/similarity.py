"""Element-level generalization sets and the similarity relation.

An element's generalization set is the set of denotation classes whose image
contains it.  A class is trivial in a pair of algebras when it generalizes
every element on both sides.  The directed relation compares shared
generalization sets against those of competitor elements; similarity is the
symmetric conjunction.
"""

from __future__ import annotations

from .algebras import Element, FiniteAlgebra, term_table
from .clone import PairContext
from .terms import Term
from .verdicts import CompetitorPolicy, ProportionVerdict, _decide, check_policy

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
    classes, universe = ctx.clone.classes, ctx.alg_b.universe
    left, right = ctx.elem_up_masks[a], ctx.swapped().elem_up_masks
    skip = a if policy == "literal" else None
    return ProportionVerdict.of_maximality(
        left, right, b, universe, str, lambda i: classes[i].witness, ctx, policy, skip,
        _decide(left, right, universe, skip)[ctx.alg_b.index[b]],
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
            return verdicts[-1]._replace(
                reason="conjunct-failed", failed_conjunct=f"{x} <~ {y}", witness=None,
                comparisons=(),
            )
    return verdicts[0]._replace(comparisons=())


def generalizes(t: Term, a: Element, alg: FiniteAlgebra) -> bool:
    """Whether a = t(o) for some assignment o: a is in t's value table."""
    return a in term_table(t, alg, t.variables())


def is_characteristic_generalization_set(
    terms: list[Term] | set[Term] | tuple[Term, ...],
    a: Element,
    b: Element,
    ctx: PairContext,
    policy: CompetitorPolicy = "literal",
) -> bool:
    """Whether the term set pins b uniquely among competitor elements."""
    check_policy(policy)
    images_a = [set(term_table(t, ctx.alg_a, t.variables())) for t in terms]
    images_b = (
        images_a if ctx.alg_b is ctx.alg_a
        else [set(term_table(t, ctx.alg_b, t.variables())) for t in terms]
    )
    skip = a if policy == "literal" else None
    competitors = [e for e in ctx.alg_b.universe if e != skip]
    return is_characteristic_set(images_a, images_b, a, b, competitors)


def is_characteristic_set(left: list, right: list, x, y, competitors) -> bool:
    """Whether x is in every set of ``left``, y in every set of ``right``,
    and no competitor other than y is in every set of ``right``.

    The element, arrow and rule notions differ only in their sets (term
    images, pattern relations, rule relations) and their competitors.
    """
    return (
        all(x in s for s in left)
        and all(y in s for s in right)
        and not any(all(e in s for s in right) for e in competitors if e != y)
    )
