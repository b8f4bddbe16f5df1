import itertools
import random

import pytest

from aprop import Bounds, Mapping, build_pair_context
import aprop.verify
from aprop.algebras import AlgebraSpecError, parse_spec_file
from aprop.proportion_rw import proportion_rw, solve_rw
from aprop.proportion_sim import proportion_sim, solve_sim
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    bundled_algebra,
    bundled_algebra_names,
    check_axiom,
    check_first_iso_theorem,
    check_isomorphism_lemma,
    check_second_iso_theorem,
    compare_frameworks,
    quotient_homomorphisms,
    random_algebra,
    random_relabeling,
    run_paper_vectors,
)


class TestSchemata:
    def test_twelve_axioms(self):
        assert len(AXIOM_SCHEMATA) == 12

    def test_context_arities(self):
        assert AXIOM_SCHEMATA["p-reflexivity"].context_arity == 1
        assert AXIOM_SCHEMATA["p-commutativity"].context_arity == 2
        assert AXIOM_SCHEMATA["p-transitivity"].context_arity == 3

    def test_unknown_axiom_rejected(self, contexts):
        with pytest.raises(ValueError):
            check_axiom("associativity", contexts("A1"))


class TestFrameworks:
    def test_records_match_the_functions(self, contexts):
        ctx = contexts("EAABB")
        assert list(FRAMEWORKS) == ["sim", "rw"]
        sim, rw = FRAMEWORKS["sim"], FRAMEWORKS["rw"]
        for q in itertools.product(ctx.alg_a.universe, repeat=4):
            for policy in ("literal", "all"):
                assert sim.decide(q, ctx, policy) == proportion_sim(*q, ctx, policy)
                assert rw.decide(q, ctx, policy) == proportion_rw(*q, ctx)
        for a, b, c in itertools.product(ctx.alg_a.universe, repeat=3):
            assert sim.solve(a, b, c, ctx, "all") == solve_sim(a, b, c, ctx, "all")
            assert rw.solve(a, b, c, ctx, "all") == solve_rw(a, b, c, ctx)
        assert sim.index(ctx) == (ctx.cont_a, ctx.cont_b)
        assert rw.index(ctx) == (ctx.jus_a, ctx.jus_b)

    def test_records_look_the_functions_up_when_called(self, contexts, monkeypatch):
        calls = []
        for name in ("proportion_sim", "proportion_rw", "solve_sim", "solve_rw"):
            monkeypatch.setattr(
                aprop.verify, name, lambda *args, name=name: calls.append(name) or []
            )
        ctx, q = contexts("A1"), ("a", "b", "a", "b")
        for fw in FRAMEWORKS.values():
            fw.decide(q, ctx, "literal")
            fw.solve(*q[:3], ctx, "literal")
        assert calls == ["proportion_sim", "solve_sim", "proportion_rw", "solve_rw"]

    def test_unknown_framework_rejected(self, contexts):
        with pytest.raises(ValueError):
            check_axiom("p-reflexivity", contexts("A1"), framework="both")
        with pytest.raises(ValueError):
            run_paper_vectors("quad A1 analogy literal a b a b holds")


class TestCheckAxiom:
    def test_inner_p_reflexivity_sim_counterexample(self, contexts):
        report = check_axiom("inner-p-reflexivity", contexts("EAABB"))
        assert not report.holds
        assert report.counterexample == ("a", "b")

    def test_inner_p_reflexivity_rw_holds(self, contexts):
        report = check_axiom("inner-p-reflexivity", contexts("EAABB"), framework="rw")
        assert report.holds

    def test_p_determinism_a1(self, contexts):
        assert check_axiom("p-determinism", contexts("A1")).holds

    def test_counterexample_reverifies(self, contexts):
        ctx = contexts("SIREFL")
        report = check_axiom("strong-inner-p-reflexivity", ctx)
        a, c, d = report.counterexample
        assert d != c
        assert proportion_sim(a, a, c, d, ctx, report.policy)

    def test_one_algebra_schemata_need_the_same_tables(self):
        spec = parse_spec_file(
            "algebra P { universe: a, b; op f/1: a -> b, b -> a; }"
            "algebra Q { universe: a, b; op f/1: a -> a, b -> b; }"
        )
        ctx = build_pair_context(spec.algebras["P"], spec.algebras["Q"])
        for name, schema in AXIOM_SCHEMATA.items():
            if schema.context_arity == 2:
                check_axiom(name, ctx)
            else:
                with pytest.raises(AlgebraSpecError):
                    check_axiom(name, ctx)

    def test_same_tables_under_two_names(self, contexts):
        copy = parse_spec_file(
            "algebra B2 { universe: a, b, c, d; op f/1: a -> b, b -> b, c -> c, d -> d; }"
        ).algebras["B2"]
        ctx = build_pair_context(bundled_algebra("A2"), copy)
        for name in AXIOM_SCHEMATA:
            got, want = check_axiom(name, ctx), check_axiom(name, contexts("A2"))
            assert (got.holds, got.counterexample) == (want.holds, want.counterexample)

    def test_exactness_recorded(self, contexts):
        report = check_axiom("p-reflexivity", contexts("A2"))
        assert report.exact
        assert report.max_vars == 2


class TestPaperVectors:
    def test_bundle_outcome(self):
        results = run_paper_vectors()
        failing = [r for r in results if not r.passed]
        # the p-transitivity expectation on the six-element algebra is a
        # known discrepancy with the source material; the acceptance suite
        # asserts the full bundle and carries that failure
        assert [r.description for r in failing] == ["PTRANS sim p-transitivity"]

    def test_quadruple_vector_lines_pass(self):
        for r in run_paper_vectors():
            if r.kind == "quad":
                assert r.passed, r.description

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_paper_vectors("frob A1 sim literal a b c d holds")


class TestCompareFrameworks:
    def test_eaabb_divergence_present(self, contexts):
        diffs = compare_frameworks(contexts("EAABB"))
        assert (("a", "a", "b", "b"), False, True) in diffs

    def test_a1_no_divergence(self, contexts):
        assert compare_frameworks(contexts("A1")) == []


class TestIsomorphismChecks:
    def test_identity_mapping(self):
        alg = bundled_algebra("A2")
        ident = Mapping("id", alg, alg, {e: e for e in alg.universe})
        assert check_isomorphism_lemma(ident).ok
        assert check_first_iso_theorem(ident).ok
        assert check_second_iso_theorem(ident).ok

    def test_sirefl_swap_automorphism(self):
        alg = bundled_algebra("SIREFL")
        swap = Mapping("swap", alg, alg, {"a": "a", "c": "d", "d": "c"})
        assert check_isomorphism_lemma(swap).ok
        assert check_first_iso_theorem(swap).ok
        assert check_second_iso_theorem(swap).ok

    def test_non_homomorphism_rejected(self):
        alg = bundled_algebra("A2")
        table = {e: e for e in alg.universe}
        table["a"] = "c"
        bad = Mapping("bad", alg, alg, table)
        with pytest.raises(AlgebraSpecError):
            check_isomorphism_lemma(bad)
        with pytest.raises(AlgebraSpecError, match="'bad' is not a homomorphism"):
            check_first_iso_theorem(bad)

    def test_collapse_keeps_inclusion(self):
        homs = quotient_homomorphisms(bundled_algebra("PCOMM"))
        assert homs
        for h in homs:
            assert check_isomorphism_lemma(h).ok
            assert check_first_iso_theorem(h).ok

    def test_second_theorem_needs_isomorphism(self):
        homs = quotient_homomorphisms(bundled_algebra("PCOMM"))
        with pytest.raises(AlgebraSpecError):
            check_second_iso_theorem(homs[0])


class TestGenerators:
    def test_random_algebra_reproducible(self):
        a = random_algebra(random.Random(5))
        b = random_algebra(random.Random(5))
        assert a.universe == b.universe
        assert a.tables == b.tables

    def test_random_relabeling_is_isomorphism(self):
        from aprop.algebras import is_isomorphism

        rng = random.Random(3)
        for name in ("A2", "A3", "EAABB"):
            h = random_relabeling(bundled_algebra(name), rng)
            assert is_isomorphism(h)

    def test_quotient_homomorphisms_are_homomorphisms(self):
        from aprop.algebras import is_homomorphism

        for name in ("PCOMM", "A2", "EAABB"):
            for h in quotient_homomorphisms(bundled_algebra(name)):
                assert is_homomorphism(h)
                assert len(set(h.table.values())) < len(h.source.universe)

    def test_bundled_names_cover_paper_algebras(self):
        names = bundled_algebra_names()
        for expected in ("A1", "A2", "A3", "EAABB", "CPERM", "SIREFL",
                         "SPREFL", "PCOMM", "PTRANS", "IPTRANS", "CPTRANS"):
            assert expected in names
