"""End-to-end acceptance suite.

Each test freezes one release criterion: the bundled decision vectors, the
positive-axiom property sweep, oracle equivalence against a naive raw-term
enumerator, the isomorphism theorems, the solution-set membership
equivalence, the uniqueness lemma sweep, and output determinism.

The expected values here were either computed by the independent oracles in
this file or verified against the bundled vector suite; none were invented.
"""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from aprop import Bounds, FiniteAlgebra, Mapping, build_pair_context
from aprop.algebras import evaluate
from aprop.proportion_rw import (
    jus_membership_via_solutions,
    proportion_rw,
    rule_in_jus,
    uniqueness_lemma_check,
)
from aprop.proportion_sim import (
    is_characteristic_justification_set,
    proportion_sim,
)
from aprop.terms import App, ArrowPattern, Language, RewriteRule, Var, parse_term
from aprop.verify import (
    bundled_algebra,
    bundled_algebra_names,
    check_axiom,
    check_first_iso_theorem,
    check_isomorphism_lemma,
    check_second_iso_theorem,
    quotient_homomorphisms,
    random_algebra,
    random_relabeling,
    run_paper_vectors,
)

from test_clone import random_groupoid

SEED = 20260823
BOUNDS = Bounds(max_vars=2)


class TestVectorSuite:
    """Criterion 1: the bundled vectors reproduce with zero mismatches."""

    def test_all_vectors_pass_within_budget(self):
        start = time.monotonic()
        results = run_paper_vectors(bounds=BOUNDS)
        elapsed = time.monotonic() - start
        failing = [r.description for r in results if not r.passed]
        assert elapsed < 5.0
        assert failing == []


class TestPositiveAxioms:
    """Criterion 2: axioms that hold in every algebra hold on random ones.

    The sweep runs under the all-competitors policy; the literal reading
    already fails p-determinism on tiny hand examples, so it cannot be the
    intended quantifier for the positive axioms.
    """

    SIM_AXIOMS = ("p-reflexivity", "p-symmetry", "inner-p-symmetry",
                  "p-determinism")
    RW_AXIOMS = SIM_AXIOMS + ("inner-p-reflexivity",)

    def test_hundred_random_algebras(self):
        rng = random.Random(SEED)
        start = time.monotonic()
        violations = []
        for i in range(100):
            alg = random_algebra(rng)
            ctx = build_pair_context(alg, bounds=BOUNDS)
            for name in self.SIM_AXIOMS:
                report = check_axiom(name, ctx, policy="all")
                if not report.holds:
                    violations.append((i, "sim", name, report.counterexample))
            for name in self.RW_AXIOMS:
                report = check_axiom(name, ctx, framework="rw")
                if not report.holds:
                    violations.append((i, "rw", name, report.counterexample))
        assert violations == []
        assert time.monotonic() - start < 60.0


def naive_terms(alg, max_vars=2):
    """Raw terms over x0..x(v-1), one per (table, variable set), to saturation.

    Each round applies every operation to every tuple of the terms kept so
    far; a term is kept when its table over all assignments (computed with
    ``evaluate``) and its variable set are new.  The rounds stop when one
    keeps nothing.
    """
    assigns = [dict(enumerate(values))
               for values in itertools.product(alg.universe, repeat=max_vars)]
    seen = set()
    pool = []

    def keep(t):
        key = (tuple(evaluate(t, alg, o) for o in assigns), frozenset(t.variables()))
        if key in seen:
            return False
        seen.add(key)
        pool.append(t)
        return True

    for t in [Var(i) for i in range(max_vars)] + [
        App(sym) for sym, rank in alg.language.symbols if rank == 0
    ]:
        keep(t)
    while True:
        built = [
            App(sym, children)
            for sym, rank in alg.language.symbols if rank > 0
            for children in itertools.product(pool, repeat=rank)
        ]
        if not sum(map(keep, built)):
            return pool


def naive_relation(s, t, alg, max_vars=2):
    rel = set()
    for values in itertools.product(alg.universe, repeat=max_vars):
        o = dict(enumerate(values))
        rel.add((evaluate(s, alg, o), evaluate(t, alg, o)))
    return frozenset(rel)


def naive_cont(alg, framework, max_vars=2):
    """Arrow -> ids of non-trivial relations justifying it, from raw terms."""
    terms = naive_terms(alg, max_vars)
    full = frozenset(itertools.product(alg.universe, repeat=2))
    rels = {}
    for s in terms:
        for t in terms:
            if framework == "rw" and not set(t.variables()) <= set(s.variables()):
                continue
            rels[naive_relation(s, t, alg, max_vars)] = True
    nontrivial = [r for r in rels if r != full]
    arrows = list(itertools.product(alg.universe, repeat=2))
    return arrows, {
        ar: frozenset(i for i, r in enumerate(nontrivial) if ar in r)
        for ar in arrows
    }


def naive_verdict(arrows, cont, alg, a, b, c, d, framework, policy="literal"):
    def arrow_ok(ar1, ar2):
        s1, s2 = cont[ar1], cont[ar2]
        if not s1 and not s2:
            return True
        shared = s1 & s2
        if not shared:
            return False
        if framework == "rw":
            competitors = [(ar2[0], d2) for d2 in alg.universe]
        else:
            competitors = [e for e in arrows if policy == "all" or e != ar1]
        for e in competitors:
            other = s1 & cont[e]
            if shared <= other and not other <= shared:
                return False
        return True

    return (arrow_ok((a, b), (c, d)) and arrow_ok((b, a), (d, c))
            and arrow_ok((c, d), (a, b)) and arrow_ok((d, c), (b, a)))


def oracle_mismatches(alg, ctx, policies, max_vars=2):
    """Quadruples where the engine and the naive oracle disagree; ``ctx`` is
    built at ``max_vars`` variables."""
    mismatches = []
    conts = {fw: naive_cont(alg, fw, max_vars) for fw in ("sim", "rw")}
    for q in itertools.product(alg.universe, repeat=4):
        arrows, cont = conts["sim"]
        for policy in policies:
            if bool(proportion_sim(*q, ctx, policy)) != naive_verdict(
                arrows, cont, alg, *q, "sim", policy
            ):
                mismatches.append((q, "sim", policy))
        arrows, cont = conts["rw"]
        if bool(proportion_rw(*q, ctx)) != naive_verdict(arrows, cont, alg, *q, "rw"):
            mismatches.append((q, "rw"))
    return mismatches


class TestOracleEquivalence:
    """Criterion 3: the clone path matches a naive raw-pair enumerator."""

    def test_all_unary_algebras_up_to_three_elements(self):
        language = Language((("f", 1),))
        mismatches = []
        for size in (1, 2, 3):
            universe = tuple("abc"[:size])
            for table_vals in itertools.product(universe, repeat=size):
                tables = {"f": {(e,): v for e, v in zip(universe, table_vals)}}
                alg = FiniteAlgebra("N", language, universe, tables)
                ctx = build_pair_context(alg, bounds=BOUNDS)
                for found in oracle_mismatches(alg, ctx, ("literal",)):
                    mismatches.append((tables["f"], *found))
        assert mismatches == []

    @pytest.mark.parametrize("name", bundled_algebra_names())
    def test_bundled_algebras(self, name):
        alg = bundled_algebra(name)
        ctx = build_pair_context(alg, bounds=BOUNDS)
        assert oracle_mismatches(alg, ctx, ("literal", "all")) == []

    @pytest.mark.parametrize("name", bundled_algebra_names())
    def test_bundled_algebras_three_variables(self, name):
        alg = bundled_algebra(name)
        ctx = build_pair_context(alg, bounds=Bounds(max_vars=3))
        assert oracle_mismatches(alg, ctx, ("literal", "all"), max_vars=3) == []

    @pytest.mark.parametrize("n, op", [(2, "add"), (3, "add"), (3, "join")])
    def test_binary_operations(self, n, op):
        universe = tuple("abc"[:n])
        combine = (lambda i, j: (i + j) % n) if op == "add" else max
        table = {
            (universe[i], universe[j]): universe[combine(i, j)]
            for i in range(n) for j in range(n)
        }
        alg = FiniteAlgebra(f"{op}{n}", Language((("p", 2),)), universe, {"p": table})
        ctx = build_pair_context(alg, bounds=BOUNDS)
        assert oracle_mismatches(alg, ctx, ("literal", "all")) == []

    def test_random_groupoid(self):
        """A 3-element groupoid with a large clone: 594 classes at two
        variables, where the naive oracle would take minutes; 6 at one."""
        alg = random_groupoid(2)
        ctx = build_pair_context(alg, bounds=Bounds(max_vars=1))
        assert oracle_mismatches(alg, ctx, ("literal", "all"), max_vars=1) == []


class TestIsomorphismTheorems:
    """Criterion 4: both theorems on isomorphisms, the lemma on collapses."""

    def test_isomorphisms(self):
        rng = random.Random(SEED)
        mappings = []
        for name in bundled_algebra_names():
            alg = bundled_algebra(name)
            mappings.append(Mapping("id", alg, alg, {e: e for e in alg.universe}))
            mappings.append(random_relabeling(alg, rng))
        assert len(mappings) >= 20
        for h in mappings:
            assert check_first_iso_theorem(h).ok, h.name
            assert check_second_iso_theorem(h).ok, h.name

    def test_non_injective_homomorphisms(self):
        homs = []
        for name in bundled_algebra_names():
            homs.extend(quotient_homomorphisms(bundled_algebra(name)))
        assert len(homs) >= 10
        for h in homs:
            report = check_isomorphism_lemma(h)
            assert report.ok, (h.name, report.violations)


def rules_to_depth(language, depth=2):
    """All rewrite rules with both sides built to the given depth."""
    pool = [Var(0), Var(1)]
    for _ in range(depth):
        pool = pool + [
            App(sym, (t,))
            for sym, rank in language.symbols if rank == 1
            for t in pool
        ]
    seen = {}
    for s in pool:
        for t in pool:
            if set(t.variables()) <= set(s.variables()):
                seen[(str(s), str(t))] = RewriteRule(s, t)
    return list(seen.values())


@pytest.fixture(scope="module")
def rule_sweep():
    """One pass over all depth-2 rules and quadruples of every bundled algebra."""
    equivalence_failures = []
    uniqueness_failures = []
    total = 0
    for name in bundled_algebra_names():
        alg = bundled_algebra(name)
        ctx = build_pair_context(alg, bounds=BOUNDS)
        for rule in rules_to_depth(alg.language):
            for q in itertools.product(alg.universe, repeat=4):
                total += 1
                a, b, c, d = q
                direct = rule_in_jus(rule, (a, b), alg) and rule_in_jus(
                    rule, (c, d), alg
                )
                via = jus_membership_via_solutions(
                    rule.lhs, rule.rhs, a, b, c, d, alg, alg
                )
                if direct != via:
                    equivalence_failures.append((name, str(rule), q))
                if uniqueness_lemma_check(rule, a, b, c, d, ctx).violation:
                    uniqueness_failures.append((name, str(rule), q))
    return total, equivalence_failures, uniqueness_failures


class TestMembershipEquivalence:
    """Criterion 5: solution-set membership agrees with direct membership."""

    def test_sweep_has_no_divergence(self, rule_sweep):
        total, equivalence_failures, _ = rule_sweep
        assert total > 100000
        assert equivalence_failures == []


class TestUniquenessLemma:
    """Criterion 6: the uniqueness implications hold across the same sweep."""

    def test_sweep_has_no_violation(self, rule_sweep):
        _, _, uniqueness_failures = rule_sweep
        assert uniqueness_failures == []

    def test_divergence_instance(self, contexts):
        # on the e:aabb algebra the identity rule on (a,a,b,b) satisfies the
        # rewrite-framework conclusion while the similarity-side
        # characteristic check rejects the corresponding pattern set
        ctx = contexts("EAABB")
        x0 = parse_term("x0", ctx.alg_a.language)
        report = uniqueness_lemma_check(RewriteRule(x0, x0), "a", "a", "b", "b", ctx)
        assert report.premise_full
        assert report.conclusion_full
        assert not report.violation
        assert not is_characteristic_justification_set(
            [ArrowPattern(x0, x0)], ("a", "a"), ("b", "b"), ctx
        )


class TestDeterminism:
    """Criterion 7: identical flags give byte-identical machine output."""

    def test_vector_suite_output_stable(self):
        cmd = [sys.executable, "-m", "aprop.cli", "--format", "machine", "vectors"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        first = subprocess.run(cmd, env=env, capture_output=True)
        second = subprocess.run(cmd, env=env, capture_output=True)
        assert first.stdout
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
