import pytest

from aprop.terms import (
    App,
    ArrowPattern,
    Language,
    RewriteRule,
    TermSyntaxError,
    Var,
    canonicalize,
    is_rewrite_rule,
    parse_term,
    variables_of,
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


class TestCanonicalize:
    def test_single_variable(self):
        assert canonicalize(parse_term("f(x7)", L1)) == parse_term("f(x0)", L1)

    def test_repeated_variable(self):
        assert canonicalize(parse_term("g(x2,x2)", L2)) == parse_term("g(x0,x0)", L2)

    def test_first_occurrence_order(self):
        assert canonicalize(parse_term("g(x5,x1)", L2)) == parse_term("g(x0,x1)", L2)

    def test_idempotent(self):
        for text in ("f(x7)", "g(x5,x1)", "g(x2,x2)", "g(f(x9),x9)"):
            t = canonicalize(parse_term(text, L2))
            assert canonicalize(t) == t


class TestVariables:
    def test_single(self):
        assert variables_of(Var(0)) == (0,)

    def test_constant(self):
        L = Language((("c", 0),))
        assert variables_of(parse_term("c", L)) == ()

    def test_first_occurrence_order(self):
        assert variables_of(parse_term("g(x1,f(x0))", L2)) == (1, 0)

    def test_rank_is_variable_count(self):
        for text in ("x0", "f(x0)", "g(x1,f(x0))", "g(x0,x0)"):
            t = parse_term(text, L2)
            assert t.rank == len(variables_of(t))


class TestRewriteRules:
    def test_identity_is_rule(self):
        assert is_rewrite_rule(ArrowPattern(Var(0), Var(0)))

    def test_fresh_variable_is_not(self):
        assert not is_rewrite_rule(ArrowPattern(Var(0), Var(1)))

    def test_subset_check(self):
        p = ArrowPattern(parse_term("g(x0,x1)", L2), parse_term("f(x1)", L2))
        assert is_rewrite_rule(p)

    def test_rewrite_rule_validates(self):
        with pytest.raises(ValueError):
            RewriteRule(Var(0), Var(1))
        RewriteRule(parse_term("g(x0,x1)", L2), Var(1))


L3 = Language((("c", 0), ("f", 1), ("g", 2)))
TEXTS = ("x0", "c", "f(c)", "f(x3)", "g(f(x1),x0)", "g(c,g(x0,f(f(c))))", "f(g(x2,x2))")


class TestCachedKey:
    def test_key_is_depth_and_string(self):
        for text in TEXTS:
            t = parse_term(text, L3)
            assert t.key == (t.depth(), str(t))
            assert str(t) == text

    def test_equality_ignores_the_cache(self):
        for text in TEXTS:
            cached, fresh = parse_term(text, L3), parse_term(text, L3)
            str(cached)
            assert "key" in vars(cached) and "key" not in vars(fresh)
            assert cached == fresh and hash(cached) == hash(fresh)
            assert repr(cached) == repr(fresh)
            assert len({cached, fresh}) == 1
