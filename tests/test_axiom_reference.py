"""The table of axiom schemata against the chain of loops it replaced.

``ref_check_axiom`` and its helper ``_shared`` below are copies of
``check_axiom`` as it was before the schemata carried their own statements:
one hand-written loop per schema, with optional (B, C) and (A, C) contexts.
The only edit is the name of ``check_axiom``.  ``_Prop`` is a copy of the
cache it decided through, which built a verdict per quadruple through
``FRAMEWORKS``; ``check_axiom`` now reads the contexts' memo of arrow codes
and builds none.  Every
``CheckReport`` field must agree, for every schema, framework and competitor
policy, on the bundled algebras and on (algebra, quotient) pairs.
"""

import itertools

import pytest

from aprop.algebras import AlgebraSpecError, Element, FiniteAlgebra
from aprop.clone import Bounds, PairContext, build_pair_context
from aprop.verdicts import CompetitorPolicy, check_policy
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    CheckReport,
    bundled_algebra,
    bundled_algebra_names,
    check_axiom,
    quotient_homomorphisms,
)


Quadruple = tuple[Element, Element, Element, Element]


class _Prop:
    """Cached proportion decisions of one framework over fixed contexts."""

    def __init__(self, framework: str, policy: CompetitorPolicy):
        if framework not in FRAMEWORKS:
            raise ValueError(f"unknown framework {framework!r}")
        check_policy(policy)
        self.decide = FRAMEWORKS[framework].decide
        self.policy = policy
        self.cache: dict[tuple[int, Quadruple], bool] = {}
        self.instances = 0

    def __call__(self, ctx: PairContext, q: Quadruple) -> bool:
        key = (id(ctx), q)
        if key not in self.cache:
            self.cache[key] = bool(self.decide(q, ctx, self.policy))
        self.instances += 1
        return self.cache[key]


def _shared(alg_a: FiniteAlgebra, alg_b: FiniteAlgebra) -> tuple[Element, ...]:
    return tuple(e for e in alg_a.universe if e in alg_b.index)


def ref_check_axiom(
    name: str,
    ctx: PairContext,
    ctx_bc: PairContext | None = None,
    ctx_ac: PairContext | None = None,
    framework: str = "sim",
    policy: CompetitorPolicy = "literal",
) -> CheckReport:
    """Exhaustively check one axiom schema, returning the first counterexample.

    ``ctx`` is the (A, B) context.  Three-context schemata additionally take
    (B, C) and (A, C) contexts; both default to ``ctx``, which covers the
    single-algebra case.  Single-algebra schemata require A and B to agree.
    """
    if name not in AXIOM_SCHEMATA:
        raise ValueError(f"unknown axiom {name!r}")
    schema = AXIOM_SCHEMATA[name]
    ctx_bc = ctx_bc if ctx_bc is not None else ctx
    ctx_ac = ctx_ac if ctx_ac is not None else ctx
    if schema.context_arity == 1 and ctx.alg_a.universe != ctx.alg_b.universe:
        raise ValueError(f"{name} is stated over a single algebra")
    p = _Prop(framework, policy)
    A = ctx.alg_a.universe
    B = ctx.alg_b.universe
    C = ctx_bc.alg_b.universe
    ce: tuple[Element, ...] | None = None

    if name == "p-reflexivity":
        for a, b in itertools.product(A, repeat=2):
            if not p(ctx, (a, b, a, b)):
                ce = (a, b)
                break
    elif name == "p-symmetry":
        swapped = ctx.swapped()
        for a, b, c, d in itertools.product(A, A, B, B):
            if p(ctx, (a, b, c, d)) != p(swapped, (c, d, a, b)):
                ce = (a, b, c, d)
                break
    elif name == "inner-p-symmetry":
        for a, b, c, d in itertools.product(A, A, B, B):
            if p(ctx, (a, b, c, d)) != p(ctx, (b, a, d, c)):
                ce = (a, b, c, d)
                break
    elif name == "p-determinism":
        for a, d in itertools.product(A, repeat=2):
            if p(ctx, (a, a, a, d)) != (d == a):
                ce = (a, d)
                break
    elif name == "inner-p-reflexivity":
        for a, c in itertools.product(A, B):
            if not p(ctx, (a, a, c, c)):
                ce = (a, c)
                break
    elif name == "central-permutation":
        for a, b, c, d in itertools.product(A, repeat=4):
            if p(ctx, (a, b, c, d)) != p(ctx, (a, c, b, d)):
                ce = (a, b, c, d)
                break
    elif name == "strong-inner-p-reflexivity":
        for a, c, d in itertools.product(A, repeat=3):
            if d != c and p(ctx, (a, a, c, d)):
                ce = (a, c, d)
                break
    elif name == "strong-p-reflexivity":
        for a, b, d in itertools.product(A, repeat=3):
            if d != b and p(ctx, (a, b, a, d)):
                ce = (a, b, d)
                break
    elif name == "p-commutativity":
        for a, b in itertools.product(_shared(ctx.alg_a, ctx.alg_b), repeat=2):
            if not p(ctx, (a, b, b, a)):
                ce = (a, b)
                break
    elif name == "p-transitivity":
        for a, b, c, d, e, f in itertools.product(A, A, B, B, C, C):
            if (
                p(ctx, (a, b, c, d))
                and p(ctx_bc, (c, d, e, f))
                and not p(ctx_ac, (a, b, e, f))
            ):
                ce = (a, b, c, d, e, f)
                break
    elif name == "inner-p-transitivity":
        for a, b, e, c, d, f in itertools.product(A, A, A, B, B, B):
            if (
                p(ctx, (a, b, c, d))
                and p(ctx, (b, e, d, f))
                and not p(ctx, (a, e, c, f))
            ):
                ce = (a, b, c, d, e, f)
                break
    elif name == "central-p-transitivity":
        shared_ab = _shared(ctx.alg_a, ctx.alg_b)
        shared_bc = _shared(ctx_bc.alg_a, ctx_bc.alg_b)
        for a, b, c, d in itertools.product(A, shared_ab, shared_bc, C):
            if (
                p(ctx, (a, b, b, c))
                and p(ctx_bc, (b, c, c, d))
                and not p(ctx_ac, (a, b, c, d))
            ):
                ce = (a, b, c, d)
                break

    names = {ctx.alg_a.name, ctx.alg_b.name, ctx_bc.alg_b.name}
    return CheckReport(
        schema=name,
        framework=framework,
        policy=policy,
        algebras=tuple(sorted(names)),
        holds=ce is None,
        counterexample=ce,
        instances=p.instances,
        max_vars=ctx.bounds.max_vars,
        exact=ctx.saturated and ctx_bc.saturated and ctx_ac.saturated,
    )


@pytest.fixture(autouse=True)
def decide_each_quadruple_once(monkeypatch):
    """Both checkers read one memo of verdicts: what they must agree on is
    which instances they enumerate and which of those they report."""
    import aprop.verify

    memo = {}

    def memoized(decide):
        def decide_once(*args):
            key = (decide, id(args[4]), args[:4], args[5:])
            if key not in memo:
                memo[key] = decide(*args)
            return memo[key]

        return decide_once

    for name in ("proportion_sim", "proportion_rw"):
        monkeypatch.setattr(aprop.verify, name, memoized(getattr(aprop.verify, name)))


FIELDS = ("holds", "counterexample", "instances", "exact", "algebras", "max_vars")


def assert_same(report: CheckReport, ref: CheckReport) -> None:
    for field in FIELDS:
        assert getattr(report, field) == getattr(ref, field), (report.schema, field)
    assert (report.schema, report.framework, report.policy) == (
        ref.schema, ref.framework, ref.policy
    )


def small_bundled() -> list[str]:
    return [n for n in bundled_algebra_names() if len(bundled_algebra(n).universe) <= 4]


@pytest.mark.parametrize("name", small_bundled())
def test_table_matches_the_loops_on_bundled_algebras(name):
    ctx = build_pair_context(bundled_algebra(name), bounds=Bounds())
    for schema, framework, policy in itertools.product(
        AXIOM_SCHEMATA, ("sim", "rw"), ("literal", "all")
    ):
        assert_same(
            check_axiom(schema, ctx, framework=framework, policy=policy),
            ref_check_axiom(schema, ctx, framework=framework, policy=policy),
        )


# The two larger algebras whose counterexamples the reordered
# inner-p-transitivity and p-transitivity statements decide.
@pytest.mark.parametrize("name, policy", [("IPTRANS", "literal"), ("PTRANS", "all")])
def test_table_matches_the_loops_on_the_transitivity_algebras(name, policy):
    ctx = build_pair_context(bundled_algebra(name), bounds=Bounds())
    for schema, framework in itertools.product(AXIOM_SCHEMATA, ("sim", "rw")):
        assert_same(
            check_axiom(schema, ctx, framework=framework, policy=policy),
            ref_check_axiom(schema, ctx, framework=framework, policy=policy),
        )


def quotient_pairs() -> list[tuple[str, FiniteAlgebra, FiniteAlgebra]]:
    return [
        (f"{name}/{h.name}", h.source, h.target)
        for name in small_bundled()
        for h in quotient_homomorphisms(bundled_algebra(name))
    ]


QUOTIENT_PAIRS = quotient_pairs()


@pytest.mark.parametrize(
    "alg_a, alg_b", [c[1:] for c in QUOTIENT_PAIRS], ids=[c[0] for c in QUOTIENT_PAIRS]
)
def test_table_matches_the_loops_on_quotient_pairs(alg_a, alg_b):
    ctx = build_pair_context(alg_a, alg_b, Bounds())
    for schema in AXIOM_SCHEMATA.values():
        if schema.context_arity != 2:
            # read with C = B, the statement needs A = B
            with pytest.raises(AlgebraSpecError):
                check_axiom(schema.name, ctx)
            continue
        for framework, policy in itertools.product(("sim", "rw"), ("literal", "all")):
            assert_same(
                check_axiom(schema.name, ctx, framework=framework, policy=policy),
                ref_check_axiom(schema.name, ctx, framework=framework, policy=policy),
            )
