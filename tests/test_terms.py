import random
from dataclasses import fields

import pytest

from aprop.algebras import FiniteAlgebra, evaluate
from aprop.terms import (
    MAX_TERM_DEPTH,
    App,
    Language,
    RewriteRule,
    TermSyntaxError,
    Var,
    parse_term,
)

L1 = Language((("f", 1),))
L2 = Language((("f", 1), ("g", 2)))


class TestLanguage:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            Language((("f", 1), ("f", 2)))

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            Language((("f", -1),))

    def test_variable_name_clash_rejected(self):
        with pytest.raises(ValueError):
            Language((("x0", 1),))


class TestParse:
    def test_single_application(self):
        assert parse_term("f(x0)", L1) == App("f", (Var(0),))

    def test_bare_variable(self):
        assert parse_term("x3", L1) == Var(3)

    def test_nested_term(self):
        t = parse_term("g(f(x0),x1)", L2)
        assert t == App("g", (App("f", (Var(0),)), Var(1)))
        assert t.rank == 2

    def test_roundtrip(self):
        for text in ("x0", "f(x0)", "g(f(x1),x0)", "g(x0,x0)"):
            t = parse_term(text, L2)
            assert parse_term(str(t), L2) == t

    def test_unknown_symbol(self):
        with pytest.raises(TermSyntaxError):
            parse_term("h(x0)", L1)

    def test_arity_mismatch(self):
        with pytest.raises(TermSyntaxError):
            parse_term("g(x0)", L2)

    def test_syntax_error_has_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("f(x0", L1)
        assert err.value.position is not None

    def test_constant_symbol(self):
        L = Language((("c", 0),))
        assert parse_term("c", L) == App("c")

    def test_non_decimal_digit_is_not_a_variable(self):
        # "²" is a digit to str.isdigit but not to int()
        with pytest.raises(TermSyntaxError):
            parse_term("x²", L1)


class TestDepthBound:
    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(TermSyntaxError):
            parse_term("f(" * 1200 + "x0" + ")" * 1200, L1)

    def test_one_level_past_the_bound_is_refused(self):
        n = MAX_TERM_DEPTH + 1
        with pytest.raises(TermSyntaxError):
            parse_term("f(" * n + "x0" + ")" * n, L1)

    def test_a_term_at_the_bound_is_usable(self):
        n = MAX_TERM_DEPTH
        text = "g(" + "f(" * (n - 1) + "x0" + ")" * (n - 1) + ",x1)"
        t = parse_term(text, L2)
        assert str(t) == text
        assert t.key == (n, text)
        assert t.variables() == (0, 1)
        alg = FiniteAlgebra(
            "Z2", L2, ("a", "b"),
            {"f": {("a",): "b", ("b",): "a"},
             "g": {(x, y): x for x in "ab" for y in "ab"}},
        )
        # n - 1 swaps of x0 = a
        assert evaluate(t, alg, {0: "a", 1: "a"}) == "ab"[(n - 1) % 2]

    def test_a_deep_term_built_in_code_is_usable(self):
        """Only the parser is bounded: a term built node by node keeps its
        key and variables from construction, so reading them does not recurse."""
        n = 3000
        t = Var(1)
        for _ in range(n):
            t = App("f", (t,))
        t = App("g", (t, Var(0)))
        assert t.depth() == n + 1
        assert str(t) == "g(" + "f(" * n + "x1" + ")" * n + ",x0)"
        assert t.variables() == (1, 0)


class TestVariables:
    def test_single(self):
        assert Var(0).variables() == (0,)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Var(-1)

    def test_constant(self):
        L = Language((("c", 0),))
        assert parse_term("c", L).variables() == ()

    def test_first_occurrence_order(self):
        assert parse_term("g(x1,f(x0))", L2).variables() == (1, 0)

    def test_rank_is_variable_count(self):
        for text in ("x0", "f(x0)", "g(x1,f(x0))", "g(x0,x0)"):
            t = parse_term(text, L2)
            assert t.rank == len(t.variables())


class TestRewriteRules:
    def test_identity_is_rule(self):
        assert RewriteRule(Var(0), Var(0)).rhs == Var(0)

    def test_fresh_variable_is_not(self):
        with pytest.raises(ValueError):
            RewriteRule(Var(0), Var(1))

    def test_rewrite_rule_validates(self):
        with pytest.raises(ValueError):
            RewriteRule(parse_term("f(x1)", L2), parse_term("g(x0,x1)", L2))
        RewriteRule(parse_term("g(x0,x1)", L2), Var(1))

    def test_subset_check(self):
        rule = RewriteRule(parse_term("g(x0,x1)", L2), parse_term("f(x1)", L2))
        assert set(rule.rhs.variables()) <= set(rule.lhs.variables())


L3 = Language((("c", 0), ("f", 1), ("g", 2)))
TEXTS = ("x0", "c", "f(c)", "f(x3)", "g(f(x1),x0)", "g(c,g(x0,f(f(c))))", "f(g(x2,x2))")


class TestCachedKey:
    def test_key_is_depth_and_string(self):
        for text in TEXTS:
            t = parse_term(text, L3)
            assert t.key == (t.depth(), str(t))
            assert str(t) == text

    def test_equality_ignores_the_cache(self):
        """The key is kept beside the dataclass fields, not among them."""
        for text in TEXTS:
            parsed, built = parse_term(text, L3), rebuild(parse_term(text, L3))
            assert "key" not in {f.name for f in fields(parsed)}
            assert parsed.key == built.key
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            assert len({parsed, built}) == 1


def terms_to_depth_3(seed=0, sampled=300):
    """Every term over L3 and x0, x1, x2 to depth 2, and ``sampled`` seeded
    depth-3 terms built on them."""
    pool = [Var(0), Var(1), Var(2), App("c")]
    pool += [App("f", (t,)) for t in pool] + [App("g", (s, t)) for s in pool for t in pool]
    pool += [App("f", (t,)) for t in pool] + [App("g", (s, t)) for s in pool for t in pool]
    rng = random.Random(seed)
    deep = [
        App("f", (rng.choice(pool),)) if rng.random() < 0.3
        else App("g", (rng.choice(pool), rng.choice(pool)))
        for _ in range(sampled)
    ]
    return pool + [t for t in deep if t.depth() == 3]


def first_occurrences(t):
    """The variable indices of t in first-occurrence order, by a preorder walk."""
    seen, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.index not in seen:
                seen.append(u.index)
        else:
            stack.extend(reversed(u.children))
    return tuple(seen)


def rebuild(t):
    """A copy of t built node by node, bottom up."""
    if isinstance(t, Var):
        return Var(t.index)
    return App(t.symbol, tuple(rebuild(c) for c in t.children))


class TestCachedVariables:
    def test_variables_match_a_walk(self):
        terms = terms_to_depth_3()
        assert max(t.depth() for t in terms) == 3
        for t in terms:
            assert t.variables() == first_occurrences(t), str(t)
            assert t.rank == len(first_occurrences(t))

    def test_equality_ignores_the_stored_variables(self):
        for t in terms_to_depth_3(seed=1, sampled=100):
            parsed, built = parse_term(str(t), L3), rebuild(t)
            assert "_variables" not in {f.name for f in fields(parsed)}
            assert parsed.variables() == built.variables() == first_occurrences(t)
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            assert len({parsed, built}) == 1
