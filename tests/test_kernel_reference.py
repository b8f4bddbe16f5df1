"""The maximality kernel and the shared swap against the loops they replaced.

The functions below are copies of the three competitor loops (``lesssim``,
``arrow_lesssim``, ``arrow_proportion_rw``), the two four-conjunct drivers,
``similar`` and ``_swap_context`` as they were before the kernel existed.
The only edits are names: the drivers and ``similar`` call the copies, the
two ``_base`` helpers are told apart, ``ctx.arrows_b`` (since removed) is the
same product of the universe of B, and ``ctx.swapped()`` is the copied
``_swap_context(ctx)``, which builds a swapped context with its own classes,
relation classes and indexes.  Every verdict field must agree, on every arrow
pair, element pair and quadruple, under both competitor policies.
"""

import itertools

import pytest
from test_clone import generated_algebra

from aprop.clone import (
    Bounds,
    CloneResult,
    DenotationClass,
    PairContext,
    RelationClass,
    build_pair_context,
)
from aprop.proportion_rw import arrow_proportion_rw, proportion_rw
from aprop.proportion_sim import arrow_lesssim, proportion_sim
from aprop.similarity import lesssim, similar
from aprop.verdicts import ProportionVerdict, check_policy
from aprop.verify import bundled_algebra, bundled_algebra_names, quotient_homomorphisms


def _swap_context(ctx: PairContext) -> PairContext:
    if not hasattr(ctx, "_swapped"):
        swapped_clone = CloneResult(
            ctx.alg_b,
            ctx.alg_a,
            ctx.clone.bounds,
            [
                DenotationClass(c.table_b, c.table_a, c.depth_found, dict(c.witnesses))
                for c in ctx.clone.classes
            ],
            ctx.clone.saturated,
            ctx.clone.depth_reached,
        )
        relations = [
            RelationClass(rc.rel_b, rc.rel_a, rc.witness, rc.trivial, rc.rewrite_witness)
            for rc in ctx.relations
        ]
        swapped = PairContext(ctx.alg_b, ctx.alg_a, swapped_clone, relations)
        swapped._swapped = ctx  # type: ignore[attr-defined]
        ctx._swapped = swapped  # type: ignore[attr-defined]
    return ctx._swapped  # type: ignore[attr-defined]


def _verdict_base(ctx: PairContext):
    return dict(
        exact=ctx.saturated,
        max_vars=ctx.bounds.max_vars,
        depth=ctx.clone.depth_reached,
    )


def ref_lesssim(a, b, ctx, policy="literal"):
    check_policy(policy)
    if a not in ctx.alg_a.index:
        raise KeyError(f"unknown element {a!r}")
    if b not in ctx.alg_b.index:
        raise KeyError(f"unknown element {b!r}")
    base = _verdict_base(ctx)
    set_a = ctx.elem_up_a[a]
    set_b = ctx.elem_up_b[b]
    if not set_a and not set_b:
        return ProportionVerdict(True, "all-trivial", policy=policy, **base)
    shared = set_a & set_b
    if not shared:
        return ProportionVerdict(False, "empty-intersection", policy=policy, **base)
    witness = str(ctx.clone.classes[min(shared)].witness)
    comparisons = []
    for b2 in ctx.alg_b.universe:
        if policy == "literal" and b2 == a:
            continue
        other = set_a & ctx.elem_up_b[b2]
        comparisons.append(f"{b2}:{'sub' if shared <= other else 'nosub'}")
        if shared <= other and not other <= shared:
            return ProportionVerdict(
                False,
                "dominated",
                policy=policy,
                witness=witness,
                competitor=b2,
                comparisons=tuple(comparisons),
                **base,
            )
    return ProportionVerdict(
        True, "maximal", policy=policy, witness=witness,
        comparisons=tuple(comparisons), **base,
    )


def ref_similar(a, b, ctx, policy="literal"):
    forward = ref_lesssim(a, b, ctx, policy)
    if not forward:
        return ProportionVerdict(
            False, "conjunct-failed", failed_conjunct=f"{a} <~ {b}",
            policy=policy, competitor=forward.competitor, **_verdict_base(ctx),
        )
    backward = ref_lesssim(b, a, _swap_context(ctx), policy)
    if not backward:
        return ProportionVerdict(
            False, "conjunct-failed", failed_conjunct=f"{b} <~ {a}",
            policy=policy, competitor=backward.competitor, **_verdict_base(ctx),
        )
    return ProportionVerdict(
        True, forward.reason, policy=policy, witness=forward.witness,
        **_verdict_base(ctx),
    )


def _base(ctx: PairContext):
    return dict(
        exact=ctx.saturated,
        max_vars=ctx.bounds.max_vars,
        depth=ctx.clone.depth_reached,
    )


def _fmt(ar) -> str:
    return f"{ar[0]}->{ar[1]}"


def ref_arrow_lesssim(ar1, ar2, ctx, policy="literal"):
    check_policy(policy)
    base = _base(ctx)
    set1 = ctx.cont_a[ar1]
    set2 = ctx.cont_b[ar2]
    if not set1 and not set2:
        return ProportionVerdict(True, "all-trivial", policy=policy, **base)
    shared = set1 & set2
    if not shared:
        return ProportionVerdict(False, "empty-intersection", policy=policy, **base)
    witness = str(ctx.relations[min(shared)])
    comparisons = []
    for e in itertools.product(ctx.alg_b.universe, repeat=2):
        if policy == "literal" and e == ar1:
            continue
        other = set1 & ctx.cont_b[e]
        comparisons.append(f"{_fmt(e)}:{'sub' if shared <= other else 'nosub'}")
        if shared <= other and not other <= shared:
            return ProportionVerdict(
                False,
                "dominated",
                policy=policy,
                witness=witness,
                competitor=_fmt(e),
                comparisons=tuple(comparisons),
                **base,
            )
    return ProportionVerdict(
        True, "maximal", policy=policy, witness=witness,
        comparisons=tuple(comparisons), **base,
    )


def ref_proportion_sim(a, b, c, d, ctx, policy="literal"):
    swapped = _swap_context(ctx)
    conjuncts = [
        (f"{a}->{b} <~ {c}->{d}", (a, b), (c, d), ctx),
        (f"{b}->{a} <~ {d}->{c}", (b, a), (d, c), ctx),
        (f"{c}->{d} <~ {a}->{b}", (c, d), (a, b), swapped),
        (f"{d}->{c} <~ {b}->{a}", (d, c), (b, a), swapped),
    ]
    witness = None
    for name, ar1, ar2, context in conjuncts:
        verdict = ref_arrow_lesssim(ar1, ar2, context, policy)
        if not verdict:
            return ProportionVerdict(
                False, "conjunct-failed", failed_conjunct=name,
                policy=policy, competitor=verdict.competitor,
                witness=verdict.witness, **_base(ctx),
            )
        witness = witness or verdict.witness
    return ProportionVerdict(
        True, "maximal" if witness else "all-trivial",
        policy=policy, witness=witness, **_base(ctx),
    )


def _rw_base(ctx: PairContext):
    return dict(
        exact=ctx.saturated,
        max_vars=ctx.bounds.max_vars,
        depth=ctx.clone.depth_reached,
        policy="d-only",
    )


def ref_arrow_proportion_rw(ar1, ar2, ctx):
    base = _rw_base(ctx)
    set1 = ctx.jus_a[ar1]
    set2 = ctx.jus_b[ar2]
    if not set1 and not set2:
        return ProportionVerdict(True, "all-trivial", **base)
    shared = set1 & set2
    if not shared:
        return ProportionVerdict(False, "empty-intersection", **base)
    witness = str(ctx.relations[min(shared)])
    c = ar2[0]
    comparisons = []
    for d2 in ctx.alg_b.universe:
        other = set1 & ctx.jus_b[(c, d2)]
        comparisons.append(f"{c}->{d2}:{'sub' if shared <= other else 'nosub'}")
        if shared <= other and not other <= shared:
            return ProportionVerdict(
                False, "dominated", witness=witness,
                competitor=f"{c}->{d2}", comparisons=tuple(comparisons), **base,
            )
    return ProportionVerdict(
        True, "maximal", witness=witness, comparisons=tuple(comparisons), **base
    )


def ref_proportion_rw(a, b, c, d, ctx):
    swapped = _swap_context(ctx)
    conjuncts = [
        (f"{a}->{b} :. {c}->{d}", (a, b), (c, d), ctx),
        (f"{b}->{a} :. {d}->{c}", (b, a), (d, c), ctx),
        (f"{c}->{d} :. {a}->{b}", (c, d), (a, b), swapped),
        (f"{d}->{c} :. {b}->{a}", (d, c), (b, a), swapped),
    ]
    witness = None
    for name, ar1, ar2, context in conjuncts:
        verdict = ref_arrow_proportion_rw(ar1, ar2, context)
        if not verdict:
            return ProportionVerdict(
                False, "conjunct-failed", failed_conjunct=name,
                competitor=verdict.competitor, witness=verdict.witness,
                **_rw_base(ctx),
            )
        witness = witness or verdict.witness
    return ProportionVerdict(
        True, "maximal" if witness else "all-trivial", witness=witness, **_rw_base(ctx)
    )


# --- cases ----------------------------------------------------------------------


def cases():
    out = [(name, bundled_algebra(name), None, 2) for name in bundled_algebra_names()]
    for key in ("CS3@1", "Z2@2", "J3@2"):
        name, max_vars = key.split("@")
        out.append((key, generated_algebra(name), None, int(max_vars)))
    for name in bundled_algebra_names():
        alg = bundled_algebra(name)
        if len(alg.universe) <= 4:
            for h in quotient_homomorphisms(alg):
                out.append((f"{name}/{h.name}", h.source, h.target, 2))
    return out


CASES = cases()


@pytest.mark.parametrize(
    "alg_a, alg_b, max_vars", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_kernel_matches_replaced_loops(alg_a, alg_b, max_vars):
    ctx = build_pair_context(alg_a, alg_b, Bounds(max_vars=max_vars))
    # The reference reads a copied swap, so it needs a context of its own.
    ref = build_pair_context(alg_a, alg_b, Bounds(max_vars=max_vars))
    ua, ub = ctx.alg_a.universe, ctx.alg_b.universe
    policies = ("literal", "all")
    for side, ref_side in ((ctx, ref), (ctx.swapped(), _swap_context(ref))):
        for ar1 in itertools.product(side.alg_a.universe, repeat=2):
            for ar2 in itertools.product(side.alg_b.universe, repeat=2):
                for policy in policies:
                    assert arrow_lesssim(ar1, ar2, side, policy) == ref_arrow_lesssim(
                        ar1, ar2, ref_side, policy
                    )
                assert arrow_proportion_rw(ar1, ar2, side) == ref_arrow_proportion_rw(
                    ar1, ar2, ref_side
                )
        for a in side.alg_a.universe:
            for b in side.alg_b.universe:
                for policy in policies:
                    assert lesssim(a, b, side, policy) == ref_lesssim(a, b, ref_side, policy)
                    assert similar(a, b, side, policy) == ref_similar(a, b, ref_side, policy)
    for a, b in itertools.product(ua, repeat=2):
        for c, d in itertools.product(ub, repeat=2):
            for policy in policies:
                assert proportion_sim(a, b, c, d, ctx, policy) == ref_proportion_sim(
                    a, b, c, d, ref, policy
                )
            assert proportion_rw(a, b, c, d, ctx) == ref_proportion_rw(a, b, c, d, ref)
