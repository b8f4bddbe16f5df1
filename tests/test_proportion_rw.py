import gc
import itertools
import random
import weakref

import pytest
from test_acceptance import rules_to_depth
from test_arrow_memo import QUOTIENT_PAIRS

from aprop.algebras import term_table
from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import (
    RW,
    arrow_proportion_rw,
    is_characteristic_r_justification_set,
    jus_membership_via_solutions,
    proportion_rw,
    rule_in_jus,
    solve_rw,
    uniqueness_lemma_check,
)
from aprop.proportion_sim import is_characteristic_justification_set, proportion_sim
from aprop.terms import App, ArrowPattern, RewriteRule, Var, parse_term
from aprop.verdicts import HOLDING
from aprop.verify import bundled_algebra, bundled_algebra_names


def justifications(ctx, ids):
    return [str(ctx.relations[i]) for i in sorted(ids)]


class TestJusSet:
    def test_identity_rule_on_loops(self, contexts):
        ctx = contexts("A1")
        assert "x0 -> x0" in justifications(ctx, ctx.jus_a[("a", "a")])

    def test_a2_arrow(self, contexts):
        ctx = contexts("A2", max_vars=1)
        got = ctx.jus_a[("a", "b")]
        assert "x0 -> f(x0)" in justifications(ctx, got)
        assert got <= ctx.cont_a[("a", "b")]
        assert all(ctx.relations[i].has_rewrite_witness for i in got)

    def test_empty_language_off_diagonal_empty(self, contexts):
        ctx = contexts("A1")
        assert ctx.jus_a[("a", "b")] == ctx.jus_b[("a", "b")] == frozenset()


class TestArrowProportionRw:
    def test_eaabb_diagonals(self, contexts):
        assert arrow_proportion_rw(("a", "a"), ("b", "b"), contexts("EAABB"))

    def test_ptrans_g_chain(self, contexts):
        ctx = contexts("PTRANS")
        assert arrow_proportion_rw(("a", "b"), ("c", "d"), ctx)

    def test_ptrans_composite_justification(self, contexts):
        # the composite x0 -> g(h(x0)) maps a to b and e to f at once, so the
        # joint justification set of these seemingly disconnected arrows is
        # non-empty and the arrow proportion holds
        ctx = contexts("PTRANS")
        verdict = arrow_proportion_rw(("a", "b"), ("e", "f"), ctx)
        assert verdict
        assert "g(h(x0))" in verdict.witness


class TestProportionRw:
    def test_divergence_from_sim(self, contexts):
        ctx = contexts("EAABB")
        assert proportion_rw("a", "a", "b", "b", ctx)
        assert not proportion_sim("a", "a", "b", "b", ctx)

    def test_inner_p_reflexivity(self, contexts):
        for name in ("A1", "A2", "A3", "EAABB", "PCOMM", "PTRANS"):
            ctx = contexts(name)
            for a, c in itertools.product(ctx.alg_a.universe, repeat=2):
                assert proportion_rw(a, a, c, c, ctx)

    def test_a1_all_trivial(self, contexts):
        verdict = proportion_rw("a", "b", "c", "d", contexts("A1"))
        assert verdict
        assert verdict.reason == "all-trivial"


class TestJusMembership:
    def test_identity(self, contexts):
        ctx = contexts("A2")
        x0 = parse_term("x0", ctx.alg_a.language)
        assert jus_membership_via_solutions(
            x0, x0, "a", "a", "c", "c", ctx.alg_a, ctx.alg_b
        )

    def test_f_rule_positive(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        s, t = parse_term("x0", lang), parse_term("f(x0)", lang)
        assert jus_membership_via_solutions(s, t, "a", "b", "c", "c", ctx.alg_a, ctx.alg_b)

    def test_f_rule_negative(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        s, t = parse_term("x0", lang), parse_term("f(x0)", lang)
        assert not jus_membership_via_solutions(
            s, t, "b", "a", "c", "c", ctx.alg_a, ctx.alg_b
        )

    def test_rejects_non_rule(self, contexts):
        ctx = contexts("A1")
        lang = ctx.alg_a.language
        with pytest.raises(ValueError):
            jus_membership_via_solutions(
                parse_term("x0", lang), parse_term("x1", lang),
                "a", "b", "c", "d", ctx.alg_a, ctx.alg_b,
            )

    def test_non_rule_message_is_that_of_rewrite_rule(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        for s, t in (("x0", "x1"), ("f(x0)", "f(x1)"), ("f(f(x1))", "x0")):
            s, t = parse_term(s, lang), parse_term(t, lang)
            with pytest.raises(ValueError) as want:
                RewriteRule(s, t)
            with pytest.raises(ValueError) as got:
                jus_membership_via_solutions(s, t, "a", "b", "c", "d", ctx.alg_a, ctx.alg_b)
            assert str(got.value) == str(want.value) == f"not a rewrite rule: {s} ->> {t}"

    def test_agrees_with_direct_membership(self, contexts):
        ctx = contexts("EAABB")
        lang = ctx.alg_a.language
        rules = [
            RewriteRule(parse_term(s, lang), parse_term(t, lang))
            for s, t in (("x0", "x0"), ("x0", "f(x0)"), ("f(x0)", "x0"), ("f(x0)", "f(x0)"))
        ]
        for rule in rules:
            for a, b, c, d in itertools.product(ctx.alg_a.universe, repeat=4):
                direct = rule_in_jus(rule, (a, b), ctx.alg_a) and rule_in_jus(
                    rule, (c, d), ctx.alg_b
                )
                via = jus_membership_via_solutions(
                    rule.lhs, rule.rhs, a, b, c, d, ctx.alg_a, ctx.alg_b
                )
                assert direct == via


class TestCharacteristicRJustifications:
    def test_identity_characteristic_in_eaabb(self, contexts):
        ctx = contexts("EAABB")
        lang = ctx.alg_a.language
        x0 = parse_term("x0", lang)
        rules = [RewriteRule(x0, x0)]
        assert is_characteristic_r_justification_set(
            rules, ("a", "a"), ("b", "b"), ctx.alg_a, ctx.alg_b
        )

    def test_f_rule_pins_image_in_a2(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        rules = [RewriteRule(parse_term("x0", lang), parse_term("f(x0)", lang))]
        assert is_characteristic_r_justification_set(
            rules, ("a", "b"), ("a", "b"), ctx.alg_a, ctx.alg_b
        )


class TestUniquenessLemma:
    def test_warning_wul_reproduction(self, contexts):
        # the rewrite-framework conclusion holds while the corresponding
        # similarity-side characteristic check fails
        ctx = contexts("EAABB")
        lang = ctx.alg_a.language
        x0 = parse_term("x0", lang)
        report = uniqueness_lemma_check(RewriteRule(x0, x0), "a", "a", "b", "b", ctx)
        assert report.premise_full
        assert report.conclusion_full
        assert not report.violation
        pattern = [ArrowPattern(x0, x0)]
        assert not is_characteristic_justification_set(
            pattern, ("a", "a"), ("b", "b"), ctx
        )

    def test_vacuous_when_not_member(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        rule = RewriteRule(parse_term("x0", lang), parse_term("f(x0)", lang))
        report = uniqueness_lemma_check(rule, "b", "a", "c", "c", ctx)
        assert not report.member
        assert not report.violation

    def test_premise_one_instance(self, contexts):
        ctx = contexts("A2")
        lang = ctx.alg_a.language
        rule = RewriteRule(parse_term("x0", lang), parse_term("f(x0)", lang))
        report = uniqueness_lemma_check(rule, "a", "b", "c", "c", ctx)
        assert report.premise_arrow
        assert report.conclusion_arrow


def pair_context(name):
    """A bundled algebra's context, or a quotient pair's, at two variables."""
    if name in QUOTIENT_PAIRS:
        return build_pair_context(*QUOTIENT_PAIRS[name], Bounds(max_vars=2))
    return build_pair_context(bundled_algebra(name), bounds=Bounds(max_vars=2))


@pytest.mark.parametrize(
    "name", [*bundled_algebra_names(), "A3:collapse-1", "collapse-1:A3"]
)
def test_uniqueness_conclusions_are_those_of_rw(name):
    """conclusion_arrow and conclusion_full, read from the arrow-code memo and
    the quadruple table, are RW.code and RW.decider on a context of their own."""
    ctx, other = pair_context(name), pair_context(name)
    holds, rule = RW.decider(other, "d-only"), RewriteRule(Var(0), Var(0))
    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    for a, b, c, d in itertools.product(A, A, B, B):
        report = uniqueness_lemma_check(rule, a, b, c, d, ctx)
        code = RW.code((a, b), (c, d), other, "d-only")
        assert report.conclusion_arrow == (code[0] in HOLDING)
        assert report.conclusion_full == holds((a, b, c, d))


def checked_quadruples(rule, side, rng):
    """Every quadruple of ``side`` when there are at most 81; else 12 uniform
    ones and 12 whose arrows the rule justifies on both algebras."""
    A, B = side.alg_a.universe, side.alg_b.universe
    every = list(itertools.product(A, A, B, B))
    if len(every) <= 81:
        return every
    s, t = rule.lhs, rule.rhs
    pairs = [
        sorted(set(zip(term_table(s, alg, s.variables()), term_table(t, alg, s.variables()))))
        for alg in (side.alg_a, side.alg_b)
    ]
    members = [ab + cd for ab in pairs[0] for cd in pairs[1]]
    return rng.sample(every, 12) + rng.sample(members, min(12, len(members)))


@pytest.mark.parametrize("name", ["EAABB", "PTRANS", "A3:collapse-1", "collapse-1:A3"])
def test_uniqueness_reports_do_not_depend_on_earlier_checks(name):
    """Every report field on a context that builds the rule's facts for the
    check equals that on a context that already checked the rule on other
    quadruples: every depth-2 rule, on ``ctx`` at (a, b, c, d) and on
    ``ctx.swapped()`` at (c, d, a, b).  member and premise_full read both
    algebras alike, so the two sides agree on them."""
    ctx, other = pair_context(name), pair_context(name)
    sides = ((ctx, other), (ctx.swapped(), other.swapped()))
    rng, premises = random.Random(name), 0
    for rule in rules_to_depth(ctx.alg_a.language):
        quads = checked_quadruples(rule, ctx, rng)
        a, b, c, d = quads[-1]
        uniqueness_lemma_check(rule, a, b, c, d, ctx)
        uniqueness_lemma_check(rule, c, d, a, b, ctx.swapped())
        for a, b, c, d in quads:
            both = []
            for q, (warm, fresh) in zip(((a, b, c, d), (c, d, a, b)), sides):
                report = uniqueness_lemma_check(rule, *q, warm)
                fresh.rule_facts.clear()  # the check builds the rule's facts
                assert uniqueness_lemma_check(rule, *q, fresh) == report
                both.append((report.member, report.premise_full))
                premises += report.premise_full
            assert both[0] == both[1]
    assert premises  # the premise paths were reached


def test_equal_rules_share_one_entry():
    ctx = pair_context("A2")
    lang = ctx.alg_a.language
    one, other = [RewriteRule(parse_term("x0", lang), parse_term("f(x0)", lang)) for _ in range(2)]
    assert one == other and one is not other
    assert uniqueness_lemma_check(one, "a", "b", "c", "c", ctx) == uniqueness_lemma_check(
        other, "a", "b", "c", "c", ctx
    )
    assert list(ctx.rule_facts) == ["x0 ->> f(x0)"]


def test_a_check_that_raises_stores_nothing():
    ctx = pair_context("A2")
    lang = ctx.alg_a.language
    rule = RewriteRule(parse_term("x0", lang), parse_term("f(x0)", lang))
    with pytest.raises(KeyError):
        uniqueness_lemma_check(rule, "a", "b", "c", "z", ctx)  # z is no element
    foreign = RewriteRule(Var(0), App("g", (Var(0),)))  # A2 has no op g
    with pytest.raises(KeyError):
        uniqueness_lemma_check(foreign, "a", "b", "c", "c", ctx)
    assert ctx.rule_facts == {}


@pytest.mark.parametrize("name", ["A2", "A3:collapse-0", "collapse-0:A3"])
def test_a_dropped_context_that_checked_a_rule_is_freed_without_the_collector(name):
    """The rule facts hold elements, sets and strings only, so a context that
    has run a check, and its mirror, are freed as soon as they are dropped."""
    gc.disable()
    try:
        ctx = pair_context(name)
        sides = [ctx] if ctx.swapped() is ctx else [ctx, ctx.swapped()]
        rule = RewriteRule(Var(0), App("f", (Var(0),)))
        for side in sides:
            A, B = side.alg_a.universe, side.alg_b.universe
            uniqueness_lemma_check(rule, A[0], A[-1], B[0], B[-1], side)
            assert side.rule_facts
        refs = [weakref.ref(side) for side in sides]
        del ctx, sides, side
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestSolveRw:
    def test_determinism_instance(self, contexts):
        assert solve_rw("a", "a", "a", contexts("A2")) == ["a"]

    def test_eaabb_accepts_b(self, contexts):
        assert "b" in solve_rw("a", "a", "b", contexts("EAABB"))
