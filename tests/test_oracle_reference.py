"""The table-reading reference oracles against their per-assignment forms.

``solution_set``, ``unique_solution_elements``, ``rule_in_jus``,
``jus_membership_via_solutions``, ``generalizes``, ``pattern_relation``, the
three ``is_characteristic_*`` checks and the member and premise fields of
``uniqueness_lemma_check`` read value tables built bottom-up by
``algebras.term_table``.  The functions below are verbatim copies of their
earlier forms, which call ``evaluate`` once per assignment; the table forms
must agree with them everywhere they are compared here:

- every bundled algebra, on all rules built to depth 2 over x0, x1, with
  seeded quadruples;
- Z3 addition, the join of a 3-chain and ``CG3`` (constants, a unary and a
  binary op), on terms built to depth 2 over x0, x1;
- an algebra and one of its quotients, in both orders.

``term_table`` itself is checked against ``evaluate`` on the same terms, so
the clone tests, which check witnesses through it, stay independent of the
clone's own table technique.
"""

import importlib
import itertools
import random

import pytest

from aprop.algebras import evaluate, load_algebra, term_table
from aprop.clone import Bounds, build_pair_context
from aprop.terms import App, ArrowPattern, RewriteRule, Var, parse_term
from aprop.verify import bundled_algebra, bundled_algebra_names, quotient_homomorphisms
from test_clone import CONSTANTS, generated_algebra

# The table forms; aprop's own proportion_rw and proportion_sim are functions.
algebras, rw, sim, similarity = (
    importlib.import_module(f"aprop.{name}")
    for name in ("algebras", "proportion_rw", "proportion_sim", "similarity")
)

# --- verbatim copies of the per-assignment oracles ---------------------------


def solution_set(s, a, alg, variables=None):
    """All assignments o over ``variables`` with s(o) = a, as value tuples."""
    if variables is None:
        variables = s.variables()
    if not set(s.variables()) <= set(variables):
        raise ValueError("variables must cover the variables of the term")
    out = set()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        o = dict(zip(variables, values))
        if evaluate(s, alg, o) == a:
            out.add(values)
    return out


def unique_solution_elements(s, alg):
    """Elements with exactly one solution of a = s(x) over the term's variables."""
    return {a for a in alg.universe if len(solution_set(s, a, alg)) == 1}


def rule_in_jus(rule, ar, alg):
    """Direct membership of s ->> t in Jus(a -> b), by enumerating assignments."""
    variables = rule.lhs.variables()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        o = dict(zip(variables, values))
        if evaluate(rule.lhs, alg, o) == ar[0] and evaluate(rule.rhs, alg, o) == ar[1]:
            return True
    return False


def jus_membership_via_solutions(s, t, a, b, c, d, alg_a, alg_b):
    """Membership of s ->> t in Jus(a->b :. c->d) via solution-set intersection."""
    rule = RewriteRule(s, t)  # validates the variable-containment condition
    variables = rule.lhs.variables()
    in_a = bool(
        solution_set(s, a, alg_a, variables) & solution_set(t, b, alg_a, variables)
    )
    in_b = bool(
        solution_set(s, c, alg_b, variables) & solution_set(t, d, alg_b, variables)
    )
    return in_a and in_b


def is_characteristic_r_justification_set(rules, ar1, ar2, alg_a, alg_b):
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


def uniqueness_premises(rule, a, b, c, d, ctx):
    """The member, premise_arrow and premise_full fields of uniqueness_lemma_check."""
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
    return member, premise_arrow, premise_full


def generalizes(t, a, alg):
    """Whether a = t(o) for some assignment o, by direct enumeration."""
    variables = t.variables()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        if evaluate(t, alg, dict(zip(variables, values))) == a:
            return True
    return False


def is_characteristic_generalization_set(terms, a, b, ctx, policy="literal"):
    """Whether the term set pins b uniquely among competitor elements."""
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


def pattern_relation(p, alg):
    """The binary relation {(s(o), t(o))} with one shared assignment."""
    variables = list(dict.fromkeys(p.lhs.variables() + p.rhs.variables()))
    rel = set()
    for values in itertools.product(alg.universe, repeat=len(variables)):
        o = dict(zip(variables, values))
        rel.add((evaluate(p.lhs, alg, o), evaluate(p.rhs, alg, o)))
    return frozenset(rel)


def is_characteristic_justification_set(patterns, ar1, ar2, ctx):
    """Whether the pattern set pins ar2 uniquely among all arrows of B."""
    patterns = list(patterns)
    rels_a = [pattern_relation(p, ctx.alg_a) for p in patterns]
    rels_b = [pattern_relation(p, ctx.alg_b) for p in patterns]
    if not all(ar1 in r for r in rels_a):
        return False
    if not all(ar2 in r for r in rels_b):
        return False
    for e in itertools.product(ctx.alg_b.universe, repeat=2):
        if e == ar2:
            continue
        if all(e in r for r in rels_b):
            return False
    return True


# --- the algebras, terms and instances ---------------------------------------


def terms_to_depth(language, depth=2):
    """Every term over x0, x1 and the constants built to the depth, once each."""
    pool = [Var(0), Var(1)] + [App(sym) for sym, rank in language.symbols if rank == 0]
    for _ in range(depth):
        pool = list(dict.fromkeys(pool + [
            App(sym, children)
            for sym, rank in language.symbols if rank > 0
            for children in itertools.product(pool, repeat=rank)
        ]))
    return pool


def is_rule(s, t):
    return set(t.variables()) <= set(s.variables())


# The rules drawn per generated algebra; the bundled algebras check all rules.
SAMPLED_RULES = 150


def checked_rules(name, pool, rng):
    if name in bundled_algebra_names():
        return [RewriteRule(s, t) for s in pool for t in pool if is_rule(s, t)]
    pairs = ((rng.choice(pool), rng.choice(pool)) for _ in itertools.count())
    return [RewriteRule(s, t) for s, t in itertools.islice(
        ((s, t) for s, t in pairs if is_rule(s, t)), SAMPLED_RULES)]


def pair_contexts():
    """(id, context) for every algebra the oracles are compared on."""
    out = [(name, build_pair_context(bundled_algebra(name), bounds=Bounds(max_vars=2)))
           for name in bundled_algebra_names()]
    for name in ("Z3", "J3"):
        out.append((name, build_pair_context(generated_algebra(name), bounds=Bounds(max_vars=2))))
    # The context only supplies uniqueness_lemma_check's conclusions, which are
    # not compared here; at two variables CG3's clone is far larger.
    cg3 = load_algebra(CONSTANTS)[1]
    out.append(("CG3", build_pair_context(cg3, bounds=Bounds(max_vars=1))))
    h = quotient_homomorphisms(bundled_algebra("A3"))[0]
    out.append(("A3-quotient", build_pair_context(h.source, h.target, Bounds(max_vars=2))))
    out.append(("quotient-A3", build_pair_context(h.target, h.source, Bounds(max_vars=2))))
    return out


CONTEXTS = pair_contexts()
IDS = [name for name, _ in CONTEXTS]


def quadruples(rule, ctx, rng):
    """Three uniform quadruples, and two whose arrows s ->> t justifies, as
    found by evaluating it on a random assignment on each side."""
    alg_a, alg_b = ctx.alg_a, ctx.alg_b
    out = [
        tuple(rng.choice(alg.universe) for alg in (alg_a, alg_a, alg_b, alg_b))
        for _ in range(3)
    ]
    for _ in range(2):
        arrows = []
        for alg in (alg_a, alg_b):
            o = {v: rng.choice(alg.universe) for v in rule.lhs.variables()}
            arrows += [evaluate(rule.lhs, alg, o), evaluate(rule.rhs, alg, o)]
        out.append(tuple(arrows))
    return out


# --- the comparisons ---------------------------------------------------------


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=IDS)
def test_term_oracles_match(name, ctx):
    for alg in dict.fromkeys((ctx.alg_a, ctx.alg_b)):
        for t in terms_to_depth(alg.language):
            assert algebras.unique_solution_elements(t, alg) == unique_solution_elements(t, alg)
            for a in alg.universe:
                assert algebras.solution_set(t, a, alg) == solution_set(t, a, alg)
                assert algebras.solution_set(t, a, alg, (1, 0)) == solution_set(
                    t, a, alg, (1, 0)
                )
                assert similarity.generalizes(t, a, alg) == generalizes(t, a, alg)


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=IDS)
def test_rule_oracles_match(name, ctx):
    rng = random.Random(name)
    members = 0
    for rule in checked_rules(name, terms_to_depth(ctx.alg_a.language), rng):
        for a, b, c, d in quadruples(rule, ctx, rng):
            for ar, alg in (((a, b), ctx.alg_a), ((c, d), ctx.alg_b)):
                assert rw.rule_in_jus(rule, ar, alg) == rule_in_jus(rule, ar, alg)
            args = (rule.lhs, rule.rhs, a, b, c, d, ctx.alg_a, ctx.alg_b)
            assert rw.jus_membership_via_solutions(
                *args
            ) == jus_membership_via_solutions(*args)
            report = rw.uniqueness_lemma_check(rule, a, b, c, d, ctx)
            want = uniqueness_premises(rule, a, b, c, d, ctx)
            assert (report.member, report.premise_arrow, report.premise_full) == want
            members += want[0]
            pattern = ArrowPattern(rule.lhs, rule.rhs)
            for alg in (ctx.alg_a, ctx.alg_b):
                assert sim.pattern_relation(pattern, alg) == pattern_relation(
                    pattern, alg
                )
    assert members  # the member and premise paths were reached


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=IDS)
def test_characteristic_checks_match(name, ctx):
    rng = random.Random(name)
    alg_a, alg_b = ctx.alg_a, ctx.alg_b
    pool = terms_to_depth(alg_a.language)
    rules = checked_rules(name, pool, rng)
    for _ in range(60):
        n = rng.randint(0, 3)
        ar1 = (rng.choice(alg_a.universe), rng.choice(alg_a.universe))
        ar2 = (rng.choice(alg_b.universe), rng.choice(alg_b.universe))
        some = rng.choices(rules, k=n)
        assert rw.is_characteristic_r_justification_set(
            some, ar1, ar2, alg_a, alg_b
        ) == is_characteristic_r_justification_set(some, ar1, ar2, alg_a, alg_b)
        patterns = [ArrowPattern(rng.choice(pool), rng.choice(pool)) for _ in range(n)]
        assert sim.is_characteristic_justification_set(
            patterns, ar1, ar2, ctx
        ) == is_characteristic_justification_set(patterns, ar1, ar2, ctx)
        terms = rng.choices(pool, k=n)
        for policy in ("literal", "all"):
            assert similarity.is_characteristic_generalization_set(
                terms, ar1[0], ar2[0], ctx, policy
            ) == is_characteristic_generalization_set(terms, ar1[0], ar2[0], ctx, policy)


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=IDS)
def test_term_table_matches_evaluate(name, ctx):
    alg = ctx.alg_a
    for t in terms_to_depth(alg.language):
        own = t.variables()
        for variables in {own, own[::-1], (1, 0), (0, 1), (2, 0, 1)}:
            if not set(own) <= set(variables):
                continue
            want = tuple(
                evaluate(t, alg, dict(zip(variables, values)))
                for values in itertools.product(alg.universe, repeat=len(variables))
            )
            assert term_table(t, alg, variables) == want
        if not own:
            assert term_table(t, alg, ()) == (evaluate(t, alg, {}),)
        else:
            missing = f"unassigned variable x{own[-1]}"
            with pytest.raises(KeyError, match=missing):
                term_table(t, alg, own[:-1])


def test_solution_set_rejects_repeated_variables():
    a2 = bundled_algebra("A2")
    s = parse_term("f(x0)", a2.language)
    with pytest.raises(ValueError, match="repeat"):
        algebras.solution_set(s, "b", a2, (0, 0))
    assert algebras.solution_set(s, "b", a2, (0,)) == {("a",), ("b",)}
