import itertools

from aprop.proportion_sim import (
    arrow_lesssim,
    is_characteristic_justification_set,
    pattern_relation,
    proportion_sim,
    solve_sim,
)
from aprop.terms import ArrowPattern, parse_term


def justifications(ctx, ids):
    return [str(ctx.relations[i]) for i in sorted(ids)]


class TestArrowUpSet:
    def test_a1_diagonal_arrow(self, contexts):
        ctx = contexts("A1")
        assert justifications(ctx, ctx.cont_a[("a", "a")]) == ["x0 -> x0"]
        assert ctx.cont_b[("a", "a")] == ctx.cont_a[("a", "a")]

    def test_a1_off_diagonal_arrow_only_trivial(self, contexts):
        ctx = contexts("A1")
        assert ctx.cont_a[("a", "d")] == frozenset()
        assert all(rc.trivial for rc in ctx.relations if ("a", "d") in rc.rel_a)

    def test_a2_arrow_justified_by_f(self, contexts):
        ctx = contexts("A2", max_vars=1)
        assert justifications(ctx, ctx.cont_a[("a", "b")]) == ["x0 -> f(x0)"]


class TestArrowLesssim:
    def test_a1_determinism_failure(self, contexts):
        # (a->a) up (a->d) holds no non-trivial class while (a->a) up (a->a)
        # does, so the comparison fails
        ctx = contexts("A1")
        verdict = arrow_lesssim(("a", "a"), ("a", "d"), ctx)
        assert not verdict
        assert verdict.reason == "empty-intersection"

    def test_self_comparison(self, contexts):
        for name in ("A1", "A2", "EAABB"):
            ctx = contexts(name)
            for ar in ctx.cont_a:
                assert arrow_lesssim(ar, ar, ctx)

    def test_eaabb_dominated(self, contexts):
        ctx = contexts("EAABB")
        verdict = arrow_lesssim(("a", "a"), ("b", "b"), ctx)
        assert not verdict
        assert verdict.reason == "dominated"


class TestProportionSim:
    def test_a1_paper_quadruples(self, contexts):
        ctx = contexts("A1")
        assert proportion_sim("a", "b", "c", "d", ctx)
        assert proportion_sim("a", "c", "b", "d", ctx)
        assert not proportion_sim("a", "a", "a", "d", ctx)

    def test_a2_rejected(self, contexts):
        assert not proportion_sim("a", "b", "c", "d", contexts("A2"))

    def test_a3_branching_rejected(self, contexts):
        assert not proportion_sim("a", "b", "a", "c", contexts("A3"))

    def test_failed_conjunct_named(self, contexts):
        verdict = proportion_sim("a", "a", "a", "d", contexts("A1"))
        assert verdict.failed_conjunct is not None

    def test_policy_changes_sirefl(self, contexts):
        # the literal competitor reading accepts a:a ~ c:d here, the
        # all-competitors reading rejects it
        ctx = contexts("SIREFL")
        assert proportion_sim("a", "a", "c", "d", ctx, "literal")
        assert not proportion_sim("a", "a", "c", "d", ctx, "all")


class TestPatternRelation:
    def test_shared_assignment(self, contexts):
        ctx = contexts("A2")
        p = ArrowPattern(
            parse_term("x0", ctx.alg_a.language),
            parse_term("f(x0)", ctx.alg_a.language),
        )
        assert pattern_relation(p, ctx.alg_a) == frozenset(
            (e, ctx.alg_a.apply("f", (e,))) for e in ctx.alg_a.universe
        )

    def test_independent_variables_give_product(self, contexts):
        ctx = contexts("A1")
        p = ArrowPattern(
            parse_term("x0", ctx.alg_a.language),
            parse_term("x1", ctx.alg_a.language),
        )
        assert pattern_relation(p, ctx.alg_a) == frozenset(
            itertools.product(ctx.alg_a.universe, repeat=2)
        )


class TestCharacteristicJustifications:
    def test_identity_not_characteristic(self, contexts):
        ctx = contexts("EAABB")
        lang = ctx.alg_a.language
        j = [ArrowPattern(parse_term("x0", lang), parse_term("x0", lang))]
        assert not is_characteristic_justification_set(j, ("a", "a"), ("b", "b"), ctx)

    def test_graph_of_f_not_characteristic_in_a2(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        j = [ArrowPattern(parse_term("x0", lang), parse_term("f(x0)", lang))]
        assert not is_characteristic_justification_set(j, ("a", "b"), ("a", "b"), ctx)


class TestSolveSim:
    def test_determinism_instance(self, contexts):
        assert solve_sim("a", "a", "a", contexts("A1")) == ["a"]

    def test_a1_solution_contains_d(self, contexts):
        assert "d" in solve_sim("a", "b", "c", contexts("A1"))

    def test_eaabb_excludes_b(self, contexts):
        assert "b" not in solve_sim("a", "a", "b", contexts("EAABB"))
