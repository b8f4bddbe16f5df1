import itertools

import pytest

from aprop.similarity import is_characteristic_generalization_set, lesssim, similar
from aprop.terms import parse_term
from aprop.verify import bundled_algebra


def witnesses(ctx, ids):
    return [str(ctx.clone.classes[i].witness) for i in sorted(ids)]


def images_containing(ctx, e):
    """Every class, trivial or not, whose A-image contains e."""
    return [c for c in ctx.clone.classes if e in c.image_a]


class TestUpSet:
    def test_empty_language_only_projections(self, contexts):
        ctx = contexts("A1")
        for e in ctx.alg_a.universe:
            assert images_containing(ctx, e)
            assert all(ctx.class_trivial(c) for c in images_containing(ctx, e))
            assert ctx.elem_up_a[e] == ctx.elem_up_b[e] == frozenset()

    def test_a2_a_has_no_f_generalization(self, contexts):
        ctx = contexts("A2", max_vars=1)
        assert [str(c.witness) for c in images_containing(ctx, "a")] == ["x0"]
        assert witnesses(ctx, ctx.elem_up_a["a"]) == []

    def test_a2_b_is_in_image_of_f(self, contexts):
        ctx = contexts("A2", max_vars=1)
        assert sorted(str(c.witness) for c in images_containing(ctx, "b")) == [
            "f(x0)",
            "x0",
        ]
        assert witnesses(ctx, ctx.elem_up_a["b"]) == ["f(x0)"]
        assert ctx.elem_up_b["b"] == ctx.elem_up_a["b"]


class TestTriviality:
    def test_projection_trivial(self, contexts):
        ctx = contexts("A2")
        i, projection = next(
            (i, c) for i, c in enumerate(ctx.clone.classes) if str(c.witness) == "x0"
        )
        assert ctx.class_trivial(projection)
        assert all(i not in ids for ids in ctx.elem_up_a.values())

    def test_f_not_trivial(self, contexts):
        ctx = contexts("A2")
        i, cls = next(
            (i, c) for i, c in enumerate(ctx.clone.classes) if str(c.witness) == "f(x0)"
        )
        assert not ctx.class_trivial(cls)
        assert all(i in ctx.elem_up_a[e] for e in cls.image_a)


class TestLesssim:
    def test_all_trivial_case(self, contexts):
        ctx = contexts("A1")
        verdict = lesssim("a", "b", ctx)
        assert verdict
        assert verdict.reason == "all-trivial"

    def test_a2_b_below_c(self, contexts):
        assert lesssim("b", "c", contexts("A2"))

    def test_a2_a_not_below_b(self, contexts):
        # the up-set of b holds the non-trivial f classes but the shared set
        # a-up-b holds only the trivial projections, so condition (b) fails
        verdict = lesssim("a", "b", contexts("A2"))
        assert not verdict
        assert verdict.reason == "empty-intersection"

    def test_unknown_element(self, contexts):
        ctx = contexts("A2")
        with pytest.raises(KeyError, match="unknown element 'z'"):
            lesssim("z", "b", ctx)
        with pytest.raises(KeyError, match="unknown element 'z'"):
            lesssim("b", "z", ctx)

    def test_verdict_records_bounds(self, contexts):
        verdict = lesssim("b", "c", contexts("A2"))
        assert verdict.exact
        assert verdict.max_vars == 2


class TestSimilar:
    def test_reflexive_on_all_bundled(self, contexts):
        for name in ("A1", "A2", "A3", "EAABB", "PCOMM", "SIREFL"):
            ctx = contexts(name)
            for e in ctx.alg_a.universe:
                assert similar(e, e, ctx)

    def test_symmetric(self, contexts):
        for name in ("A2", "EAABB", "PCOMM"):
            ctx = contexts(name)
            for a, b in itertools.product(ctx.alg_a.universe, repeat=2):
                assert bool(similar(a, b, ctx)) == bool(
                    similar(b, a, ctx.swapped())
                )

    def test_two_element_empty_language(self):
        from aprop import Bounds, build_pair_context
        from aprop.algebras import load_algebra

        _, alg = load_algebra("algebra E { universe: a, b; }")
        ctx = build_pair_context(alg, bounds=Bounds(max_vars=2))
        assert similar("a", "b", ctx)


class TestCharacteristicGeneralizations:
    def test_f_pins_b_in_pcomm(self, contexts):
        ctx = contexts("PCOMM")
        g = [parse_term("f(x0)", ctx.alg_a.language)]
        assert is_characteristic_generalization_set(g, "b", "b", ctx)

    def test_f_fails_in_a2(self, contexts):
        ctx = contexts("A2")
        g = [parse_term("f(x0)", ctx.alg_a.language)]
        assert not is_characteristic_generalization_set(g, "b", "b", ctx)

    def test_empty_set_needs_singleton_universe(self, contexts):
        assert not is_characteristic_generalization_set([], "a", "a", contexts("A2"))
