import itertools

import pytest

from aprop.algebras import (
    AlgebraSpecError,
    FiniteAlgebra,
    Mapping,
    evaluate,
    is_homomorphism,
    is_isomorphism,
    load_algebra,
    parse_spec_file,
    solution_set,
    term_table,
    unique_solution_elements,
)
from aprop.terms import Language, parse_term
from aprop.verify import bundled_algebra

A2 = bundled_algebra("A2")
PCOMM = bundled_algebra("PCOMM")
SIREFL = bundled_algebra("SIREFL")


S = "algebra S { universe: a, b; op f/1: a -> b, b -> a; }\n"
CHECK = ["check", "{path}", "a", "b", "a", "b"]
ISO = ["iso", "{path}", "m"]


class TestSpecFormat:
    def test_load_a2(self):
        language, alg = load_algebra(
            """
            algebra A2 {
              universe: a, b, c, d;
              op f/1: a -> b, b -> b, c -> c, d -> d;
            }
            """
        )
        assert alg.universe == ("a", "b", "c", "d")
        assert alg.tables == A2.tables

    def test_default_identity_shorthand(self):
        _, alg = load_algebra(
            """
            algebra A2 {
              universe: a, b, c, d;
              op f/1 default identity: a -> b;
            }
            """
        )
        assert alg.tables == A2.tables

    def test_trivial_algebra(self):
        _, alg = load_algebra("algebra T { universe: a; }")
        assert alg.universe == ("a",)
        assert alg.language.symbols == ()

    def test_two_op_algebra(self):
        alg = bundled_algebra("CPTRANS")
        assert alg.apply("g", ("a",)) == "b"
        assert alg.apply("h", ("c",)) == "d"
        assert alg.apply("h", ("a",)) == "a"

    def test_missing_row_rejected(self):
        with pytest.raises(AlgebraSpecError):
            load_algebra("algebra X { universe: a, b; op f/1: a -> b; }")

    def test_output_outside_universe_rejected(self):
        with pytest.raises(AlgebraSpecError):
            load_algebra("algebra X { universe: a; op f/1: a -> z; }")

    def test_duplicate_element_rejected(self):
        with pytest.raises(AlgebraSpecError):
            load_algebra("algebra X { universe: a, a; }")

    def test_argument_outside_universe_rejected(self):
        with pytest.raises(AlgebraSpecError, match="argument outside the universe"):
            load_algebra("algebra X { universe: a, b; op f/1: a -> b, b -> a, q -> b; }")

    def test_mapping_entry_outside_source_rejected(self):
        with pytest.raises(AlgebraSpecError, match="not an element of the source"):
            parse_spec_file(
                """
                algebra S { universe: a, b; op f/1: a -> b, b -> a; }
                mapping m : S -> S { a -> a, b -> b, z -> a }
                """
            )

    @pytest.mark.parametrize(
        "spec, argv, message",
        [
            ("algebra X { universe: a, b; op f/1: a -> b, b -> a, q -> b; }", CHECK,
             "algebra 'X': row f('q',) has an argument outside the universe"),
            (S + "mapping m : S -> S { a -> a, b -> b, z -> a }", ISO,
             "mapping 'm': 'z' is not an element of the source"),
            (S + S, CHECK, "duplicate algebra 'S'"),
            (S + "mapping m : S -> S { a -> a, b -> b }\nmapping m : S -> S { a -> b, b -> a }",
             ISO, "duplicate mapping 'm'"),
            ("algebra X { universe: a; op p/2 default identity: (a,a) -> a; }", CHECK,
             "default identity is only valid for unary ops at 40"),
            ("algebra X { universe: a; op f/1: a -> a; op f/1: a -> a; }", CHECK,
             "duplicate op 'f'"),
            (S + "mapping m : S -> T { a -> a, b -> b }", ISO,
             "mapping 'm' references unknown algebra 'T'"),
            (S + "mapping m : S -> S { a -> a, a -> b, b -> b }", ISO,
             "mapping 'm': duplicate entry for 'a'"),
            (S + "mapping m : S -> S { a -> a }", ISO, "mapping 'm': no image for 'b'"),
            (S + "mapping m : S -> S { a -> a, b -> z }", ISO,
             "mapping 'm': image 'z' outside target universe"),
        ],
        ids=["op-row", "mapping-entry", "duplicate-algebra", "duplicate-mapping",
             "default-identity-of-rank-2", "duplicate-op", "mapping-to-unknown-algebra",
             "duplicate-mapping-entry", "missing-image", "image-outside-target"],
    )
    def test_cli_rejects_with_exit_2(self, tmp_path, capsys, spec, argv, message):
        from aprop.cli import main

        path = tmp_path / "bad.spec"
        path.write_text(spec)
        assert main([arg.format(path=path) for arg in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_library_refusals(self):
        language = Language((("f", 1),))
        with pytest.raises(AlgebraSpecError, match="universe is empty"):
            FiniteAlgebra("X", language, (), {"f": {}})
        with pytest.raises(AlgebraSpecError, match="no table for f"):
            FiniteAlgebra("X", language, ("a",), {})
        with pytest.raises(AlgebraSpecError, match="exactly one algebra"):
            load_algebra(S + S.replace("S", "T"))

    def test_mapping_section(self):
        spec = parse_spec_file(
            """
            algebra S { universe: a, c, d; op f/1: a -> a, c -> d, d -> c; }
            mapping swap : S -> S { a -> a, c -> d, d -> c }
            """
        )
        h = spec.mappings["swap"]
        assert h("c") == "d"
        assert is_isomorphism(h)


class TestEvaluate:
    def test_projection(self):
        assert evaluate(parse_term("x0", A2.language), A2, {0: "a"}) == "a"

    def test_single_application(self):
        assert evaluate(parse_term("f(x0)", A2.language), A2, {0: "a"}) == "b"

    def test_fixpoint_iteration(self):
        assert evaluate(parse_term("f(f(x0))", A2.language), A2, {0: "a"}) == "b"

    def test_unassigned_variable(self):
        with pytest.raises(KeyError):
            evaluate(parse_term("f(x1)", A2.language), A2, {0: "a"})

    def test_agrees_with_full_table(self):
        t = parse_term("f(f(x0))", A2.language)
        table = term_table(t, A2, (0,))
        for value, e in zip(table, A2.universe):
            assert evaluate(t, A2, {0: e}) == value


class TestHomomorphisms:
    def test_identity(self):
        h = Mapping("id", A2, A2, {e: e for e in A2.universe})
        assert is_homomorphism(h)
        assert is_isomorphism(h)

    def test_empty_language_vacuous(self):
        a1 = bundled_algebra("A1")
        h = Mapping("const", a1, a1, {e: "a" for e in a1.universe})
        assert is_homomorphism(h)
        assert not is_isomorphism(h)

    def test_non_homomorphism(self):
        table = {e: e for e in A2.universe}
        table["a"] = "c"
        h = Mapping("bad", A2, A2, table)
        assert not is_homomorphism(h)

    def test_swap_automorphism(self):
        h = Mapping("swap", SIREFL, SIREFL, {"a": "a", "c": "d", "d": "c"})
        assert is_isomorphism(h)


class TestSolutionSets:
    def test_projection_solution(self):
        s = parse_term("x0", A2.language)
        assert solution_set(s, "a", A2) == {("a",)}

    def test_two_preimages(self):
        s = parse_term("f(x0)", A2.language)
        assert solution_set(s, "b", A2) == {("a",), ("b",)}

    def test_no_preimage(self):
        s = parse_term("f(x0)", A2.language)
        assert solution_set(s, "a", A2) == set()

    def test_partition_property(self):
        s = parse_term("f(f(x0))", A2.language)
        sets = [solution_set(s, a, A2) for a in A2.universe]
        union = set().union(*sets)
        assert len(union) == len(A2.universe)
        assert sum(len(x) for x in sets) == len(union)

    def test_variables_must_cover_the_term(self):
        s = parse_term("f(x1)", A2.language)
        with pytest.raises(ValueError, match="must cover"):
            solution_set(s, "b", A2, (0,))

    def test_unique_solution_elements(self):
        s = parse_term("x0", A2.language)
        assert unique_solution_elements(s, A2) == set(A2.universe)
        s = parse_term("f(x0)", A2.language)
        assert unique_solution_elements(s, A2) == {"c", "d"}
        s = parse_term("f(x0)", PCOMM.language)
        assert unique_solution_elements(s, PCOMM) == set()


def test_solution_sets_partition_assignments():
    for alg in (A2, PCOMM, SIREFL):
        for text in ("x0", "f(x0)", "f(f(x0))"):
            s = parse_term(text, alg.language)
            total = sum(len(solution_set(s, a, alg)) for a in alg.universe)
            assert total == len(alg.universe) ** len(s.variables())


def test_cross_algebra_identity_is_by_name():
    shared = [e for e in A2.universe if e in SIREFL.index]
    assert shared == ["a", "c", "d"]
