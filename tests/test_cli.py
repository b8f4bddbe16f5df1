import itertools
import os
import resource
import subprocess
import sys

import pytest

import aprop.cli
import aprop.verify
from aprop.cli import main
from aprop.clone import (
    MAX_GROUP_PAIRS, MAX_LEVEL_WORK, MAX_LEVEL_ZERO, MAX_TABLE_BYTES, Bounds,
    build_pair_context,
)
from aprop.verify import bundled_algebra, bundled_algebra_names


P_AND_Q = """
algebra P { universe: a, b; op f/1: a -> b, b -> a; }
algebra Q { universe: a, b; op f/1: a -> a, b -> b; }
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv, timeout: float = 5) -> subprocess.CompletedProcess:
    """``aprop *argv`` in a child process under a 1 GB address-space limit and
    a timeout (5 s by default), so a build that grows past its bounds fails
    the test, not the machine."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "aprop.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=cap_memory,
    )


class TestCheck:
    def test_a1_holds(self, capsys):
        code, out, _ = run(capsys, "check", "A1", "a", "b", "c", "d")
        assert code == 0
        assert "holds" in out

    def test_both_frameworks_diverge(self, capsys):
        code, out, _ = run(capsys, "check", "--framework", "both", "EAABB",
                           "a", "a", "b", "b")
        assert code == 1
        assert "sim a:a ~ b:b: fails" in out
        assert "rw a:a ~ b:b: holds" in out

    def test_p_reflexivity_everywhere(self, capsys):
        code, _, _ = run(capsys, "check", "A3", "a", "b", "a", "b")
        assert code == 0

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "--format", "machine", "check", "A2",
                           "a", "b", "c", "d")
        assert code == 1
        line = out.strip()
        assert line.startswith("sim a:b ~ c:d fails")
        assert "exact=1" in line

    def test_unsaturated_verdict_is_flagged(self, capsys):
        code, out, _ = run(capsys, "--max-depth", "0", "check", "A2", "a", "b", "a", "b")
        assert code == 0
        assert out == (
            "sim a:b ~ a:b: holds (all-trivial)\n"
            "  warning: clone not saturated, verdict is approximate\n"
        )


class TestSolve:
    def test_determinism(self, capsys):
        code, out, _ = run(capsys, "solve", "A1", "a", "a", "a")
        assert code == 0
        assert out.split() == ["a"]

    def test_reflexivity_solution(self, capsys):
        code, out, _ = run(capsys, "solve", "A2", "a", "b", "a")
        assert code == 0
        assert "b" in out.split()

    def test_example_solution(self, capsys):
        code, out, _ = run(capsys, "solve", "A1", "a", "b", "c")
        assert "d" in out.split()


class TestSimilar:
    def test_reflexive(self, capsys):
        code, _, _ = run(capsys, "similar", "A2", "a", "a")
        assert code == 0


class TestJustifications:
    def test_a2_single_variable_listing(self, capsys):
        code, out, _ = run(capsys, "--max-vars", "1", "justifications", "A2",
                           "a", "b", "c", "d")
        assert code == 0
        assert "x0 -> f(x0)" in out
        assert "the non-trivial intersection is empty" in out

    def test_listing_matches_the_justification_sets(self, capsys, monkeypatch):
        import aprop.cli

        contexts = {}

        def build_once(alg_a, alg_b, bounds):
            key = (alg_a.name, alg_b.name, bounds)
            if key not in contexts:
                contexts[key] = build_pair_context(alg_a, alg_b, bounds)
            return contexts[key]

        monkeypatch.setattr(aprop.cli, "build_pair_context", build_once)
        for name in bundled_algebra_names():
            ctx = build_once(bundled_algebra(name), bundled_algebra(name), Bounds())
            u = ctx.alg_a.universe
            for quad in itertools.product(u[:2], u[:2], u[-2:], u[-2:]):
                for fw in ("sim", "rw"):
                    for fmt in ("machine", "human"):
                        code, out, _ = run(
                            capsys, "--framework", fw, "--format", fmt,
                            "justifications", name, *quad,
                        )
                        assert code == 0
                        assert out == listing(ctx, quad, fw == "rw", fmt), (name, quad, fw, fmt)


def listing(ctx, quad, rw, fmt):
    """The justifications listing as the per-arrow justification-set wrappers
    printed it: every relation class justifying an arrow on one side (with a
    rewrite witness under rw), trivial ones dropped, in relation order."""
    a, b, c, d = quad

    def justifying(ar, side):
        return [
            rc for rc in ctx.relations
            if not rc.trivial
            and (rc.has_rewrite_witness or not rw)
            and ar in (rc.rel_a if side == "a" else rc.rel_b)
        ]

    left, right = justifying((a, b), "a"), justifying((c, d), "b")
    shared = [rc for rc in right if any(rc is x for x in left)]
    lines = []
    for title, classes in (("left", left), ("right", right), ("shared", shared)):
        if fmt == "machine":
            lines += [f"{title} {rc}" for rc in classes]
        else:
            lines.append(f"{title}: {len(classes)} non-trivial class(es)")
            lines += [f"  {rc}" for rc in classes]
    if fmt != "machine" and not shared:
        lines.append("the non-trivial intersection is empty")
    return "".join(f"{line}\n" for line in lines)


class TestAxioms:
    def test_pcomm_fails_some(self, capsys):
        code, out, _ = run(capsys, "axioms", "PCOMM")
        assert code == 1
        assert "p-commutativity: fails" in out

    def test_machine_lines(self, capsys):
        _, out, _ = run(capsys, "--format", "machine", "axioms", "A1")
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all(line.startswith("axiom sim ") for line in lines)


class TestIso:
    SWAP = (
        "algebra S { universe: a, c, d; op f/1: a -> a, c -> d, d -> c; }\n"
        "mapping swap : S -> S { a -> a, c -> d, d -> c }\n"
    )

    def test_mapping_from_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "swap.spec"
        spec.write_text(self.SWAP)
        code, out, _ = run(capsys, "iso", str(spec), "swap")
        assert code == 0
        assert "second-iso-theorem: pass" in out
        code, machine, _ = run(capsys, "--format", "machine", "iso", str(spec), "swap")
        assert code == 0
        assert machine == (
            "iso isomorphism-lemma pass instances=15\n"
            "iso first-iso-theorem pass instances=18\n"
            "iso second-iso-theorem pass instances=81\n"
        )

    QUOTIENT = (
        "algebra S { universe: a, b, c, d; op f/1: a -> b, b -> a, c -> d, d -> c; }\n"
        "algebra T { universe: p, q; op f/1: p -> q, q -> p; }\n"
        "mapping h : S -> T { a -> p, b -> q, c -> p, d -> q }\n"
        "mapping bad : S -> T { a -> p, b -> p, c -> p, d -> q }\n"
    )

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (A, B) algebra names of every context the CLI and its checks build."""
        built = []

        def counted(alg_a, alg_b=None, *args, **kwargs):
            built.append((alg_a.name, (alg_b or alg_a).name))
            return build_pair_context(alg_a, alg_b, *args, **kwargs)

        monkeypatch.setattr(aprop.cli, "build_pair_context", counted)
        monkeypatch.setattr(aprop.verify, "build_pair_context", counted)
        return built

    def test_one_context_per_run_on_a_quotient(self, capsys, tmp_path, builds):
        spec = tmp_path / "quotient.spec"
        spec.write_text(self.QUOTIENT)
        code, out, _ = run(capsys, "--format", "machine", "iso", str(spec), "h")
        assert code == 0
        assert out.startswith("iso isomorphism-lemma pass")
        assert "iso first-iso-theorem pass" in out
        assert builds == [("S", "T")]

    def test_one_context_per_run_on_an_automorphism(self, capsys, tmp_path, builds):
        spec = tmp_path / "swap.spec"
        spec.write_text(self.SWAP)
        code, out, _ = run(capsys, "--format", "machine", "iso", str(spec), "swap")
        assert code == 0
        assert "iso second-iso-theorem pass instances=81" in out
        assert builds == [("S", "S")]

    def test_a_non_homomorphism_exits_2_before_any_build(self, capsys, tmp_path, builds):
        spec = tmp_path / "quotient.spec"
        spec.write_text(self.QUOTIENT)
        code, out, err = run(capsys, "iso", str(spec), "bad")
        assert (code, out) == (2, "")
        assert err == "error: 'bad' is not a homomorphism\n"
        assert builds == []

    def test_unknown_mapping(self, capsys, tmp_path):
        spec = tmp_path / "empty.spec"
        spec.write_text("algebra S { universe: a; }\n")
        code, _, err = run(capsys, "iso", str(spec), "nope")
        assert code == 2
        assert "nope" in err


class TestCompare:
    def test_eaabb_differences(self, capsys):
        code, out, _ = run(capsys, "compare", "EAABB")
        assert code == 0
        assert "a:a ~ b:b sim=fails rw=holds" in out
        assert "14 differing quadruple(s)" in out


class TestVectors:
    def test_known_bundle_outcome(self, capsys):
        code, out, _ = run(capsys, "--format", "machine", "vectors")
        fails = [l for l in out.splitlines() if " fail " in l]
        assert code == 1
        assert len(fails) == 1
        assert "PTRANS sim p-transitivity" in fails[0]

    def test_human_lines_match_the_machine_lines(self, capsys):
        _, machine, _ = run(capsys, "--format", "machine", "vectors")
        code, human, _ = run(capsys, "vectors")
        assert code == 1
        expected = []
        for line in machine.splitlines():
            head, actual = line.rsplit(" actual=", 1)
            head, wanted = head.rsplit(" expected=", 1)
            _, number, word, description = head.split(" ", 3)
            expected.append(
                f"line {number} [{word}] {description}: expected {wanted}, got {actual}\n"
            )
        failed = sum(" fail " in line for line in machine.splitlines())
        expected.append(f"{len(expected) - failed}/{len(expected)} vectors passed\n")
        assert human == "".join(expected)

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "--format", "machine", "vectors")
        _, second, _ = run(capsys, "--format", "machine", "vectors")
        assert first == second


class TestErrors:
    def test_unknown_element(self, capsys):
        code, _, err = run(capsys, "check", "A1", "a", "b", "x", "d")
        assert code == 2
        assert "unknown element" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-algebra", "a", "b", "c", "d")
        assert code == 2

    def test_bad_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--max-vars", "0", "check", "A1", "a", "b", "a", "b"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option", [["--max-vars", "0"], ["--class-cap", "0"], ["--max-depth", "-1"]],
        ids=["max-vars", "class-cap", "max-depth"],
    )
    def test_every_bound_refused_by_bounds_is_a_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main([*option, "check", "A1", "a", "b", "a", "b"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "aprop: bounds must be positive\n"

    def test_library_refuses_a_zero_class_cap(self):
        with pytest.raises(ValueError):
            Bounds(class_cap=0)

    def test_option_defaults_are_the_library_defaults(self):
        import aprop.cli

        args = aprop.cli._parser().parse_args(["vectors"])
        bounds = Bounds()
        assert (args.max_depth, args.max_vars, args.class_cap) == (
            bounds.max_depth, bounds.max_vars, bounds.class_cap
        )

    def test_too_many_variables_is_refused_before_any_table(self, capsys):
        code, out, err = run(capsys, "--max-vars", "64", "check", "PCOMM", "a", "a", "a", "a")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "over the limit" in err

    def test_class_cap_exceeded_is_its_own_outcome(self, capsys):
        code, out, err = run(capsys, "check", "--class-cap", "2", "A2", "a", "b", "a", "b")
        assert code == 3
        assert out == ""
        assert err.startswith("error: class cap 2 exceeded")
        assert "on algebra 'A2'" in err

    def test_a_level_beyond_the_work_limit_is_refused_before_its_loop(self, tmp_path):
        """One element and one binary op: one class and one row at any
        --max-vars, but 2^v - 1 supports, so neither the class cap nor
        MAX_ROWS fires.  At 20 variables level 3 would visit 6195^2 - 210^2
        support combinations."""
        path = tmp_path / "O.alg"
        path.write_text("algebra O { universe: o; op p/2: (o,o) -> o; }\n")
        done = run_capped("--max-vars", "20", "axioms", str(path))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra 'O': level 3 would visit {6195**2 - 210**2} support"
            f" combinations, over the limit of {MAX_LEVEL_WORK}\n"
        )

    def test_a_large_binary_clone_is_refused_before_its_level(self, tmp_path):
        """G4, a random 4-element groupoid (row-major ``bacaddddbadaddad``),
        has 8,335 classes and 8,359 supports after level 4 at two variables,
        7,974 of them new, so level 5 would visit 8359^2 - 385^2 support
        combinations."""
        u = "abcd"
        cells = iter("bacaddddbadaddad")
        rows = ", ".join(f"({x},{y}) -> {next(cells)}" for x in u for y in u)
        path = tmp_path / "G4.alg"
        path.write_text(f"algebra G4 {{ universe: a, b, c, d; op p/2: {rows}; }}\n")
        done = run_capped("--max-vars", "2", "check", str(path), "a", "b", "a", "b")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra 'G4': level 5 would visit {8359**2 - 385**2} support"
            f" combinations, over the limit of {MAX_LEVEL_WORK}\n"
        )

    def test_a_grouping_beyond_the_pair_limit_is_refused_before_its_loop(self, tmp_path):
        """CS7, a 7-cycle f and the saturating shift g, has 11,970 classes at
        one variable, so the grouping would visit 11970^2 class pairs.  The
        clone is built and the grouping refused."""
        u = "abcdefg"
        f = ", ".join(f"{x} -> {u[(i + 1) % 7]}" for i, x in enumerate(u))
        g = ", ".join(f"{x} -> {u[min(i + 1, 6)]}" for i, x in enumerate(u))
        path = tmp_path / "CS7.alg"
        path.write_text(f"algebra CS7 {{ universe: {', '.join(u)}; op f/1: {f}; op g/1: {g}; }}\n")
        done = run_capped("--max-vars", "1", "check", str(path), "a", "b", "a", "b")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra 'CS7': grouping would visit {11970**2} class pairs,"
            f" over the limit of {MAX_GROUP_PAIRS}\n"
        )

    def test_level_one_is_refused_before_level_zero_is_built(self, tmp_path):
        """One element and one binary op at a million variables: one row, so
        MAX_ROWS admits it, and level 1 would visit 10^6 squared support
        combinations, known before the million variables are built."""
        path = tmp_path / "O.alg"
        path.write_text("algebra O { universe: o; op p/2: (o,o) -> o; }\n")
        done = run_capped("--max-vars", "1000000", "check", str(path), "o", "o", "o", "o")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra 'O': level 1 would visit {10**12} support"
            f" combinations, over the limit of {MAX_LEVEL_WORK}\n"
        )

    @pytest.mark.parametrize("spec", [
        "algebra U { universe: o; op f/1: o -> o; }",
        "algebra E { universe: o; }",
    ], ids=["U", "E"])
    def test_level_zero_is_refused_before_it_is_built(self, tmp_path, spec):
        """One element, and no op of rank 2 or more: level 1 would visit
        2,000,000 or no support combinations, under MAX_LEVEL_WORK, but level
        0 alone would fill two million supports."""
        name = spec.split()[1]
        path = tmp_path / f"{name}.alg"
        path.write_text(spec + "\n")
        done = run_capped("--max-vars", "2000000", "check", str(path), "o", "o", "o", "o")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra {name!r}: level 0 would fill 2000000 supports,"
            f" over the limit of {MAX_LEVEL_ZERO}\n"
        )

    @pytest.mark.parametrize("max_vars, classes", [(12, MAX_TABLE_BYTES // 2**12 + 1), (20, 20)])
    def test_table_bytes_beyond_the_limit_are_refused(self, tmp_path, max_vars, classes):
        """Two-element NAND: each class holds 2^v table bytes.  At 12
        variables the classes found while a level is enumerated pass the
        limit long before the class cap; at 20, level 0's twenty variables
        alone do, and they are refused before they are built."""
        path = tmp_path / "N.alg"
        path.write_text(
            "algebra N { universe: a, b;"
            " op n/2: (a,a) -> b, (a,b) -> b, (b,a) -> b, (b,b) -> a; }\n"
        )
        done = run_capped("--max-vars", str(max_vars), "check", str(path), "a", "b", "a", "b")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            f"error: algebra 'N': {classes} classes would hold {classes * 2**max_vars}"
            f" table bytes, over the limit of {MAX_TABLE_BYTES}\n"
        )

    def test_rewrite_sides_grow_linearly_in_the_supports(self, tmp_path):
        """One element and one unary op at 100,000 variables: one class with
        one support per variable.  Its rewrite sides are one map entry per
        support, not one scan of the supports per occurrence set."""
        path = tmp_path / "U.alg"
        path.write_text("algebra U { universe: o; op f/1: o -> o; }\n")
        done = run_capped(
            "--max-vars", "100000", "check", str(path), "o", "o", "o", "o", timeout=10
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert "holds" in done.stdout

    def test_out_of_memory_is_its_own_outcome(self, capsys, monkeypatch):
        import aprop.cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(aprop.cli, "build_pair_context", exhausted)
        code, out, err = run(capsys, "check", "A1", "a", "b", "a", "b")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [["check", "{path}", "a", "a", "a", "a"], ["iso", "{path}", "swap"]],
        ids=["check", "iso"],
    )
    def test_spec_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.alg"
        path.write_bytes(b"algebra X { universe: a\xff; }")
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["check", "{path}", "a", "c", "a", "c"], ["iso", "{path}", "swap"]],
        ids=["check", "iso"],
    )
    def test_spec_with_a_byte_order_mark_reads_as_without(self, capsys, tmp_path, argv):
        spec = (
            "algebra S { universe: a, c, d; op f/1: a -> a, c -> d, d -> c; }\n"
            "mapping swap : S -> S { a -> a, c -> d, d -> c }\n"
        ).encode()
        outcomes = []
        for name, data in (("plain.alg", spec), ("bom.alg", b"\xef\xbb\xbf" + spec)):
            path = tmp_path / name
            path.write_bytes(data)
            code, out, _ = run(capsys, *(arg.format(path=path) for arg in argv))
            outcomes.append((code, out))
        assert outcomes[0][0] == 0
        assert outcomes[1] == outcomes[0]

    def test_internal_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        import aprop.verify

        def broken(*args, **kwargs):
            raise KeyError("internal")

        # the CLI decides through aprop.verify.FRAMEWORKS, which reads this name
        monkeypatch.setattr(aprop.verify, "proportion_sim", broken)
        with pytest.raises(KeyError):
            main(["check", "A1", "a", "b", "a", "b"])

    def test_seed_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "check", "A1", "a", "b", "a", "b"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec, argv",
        [
            (None, ["axioms", "A1", "SPREFL"]),
            (None, ["check", "A1", "A2", "a", "b", "a", "b"]),
            ("algebra X { universe: a; op f/", ["check", "{path}", "a", "a", "a", "a"]),
            ("algebra X { universe: a; op x1/1: a -> a; }", ["axioms", "{path}"]),
            (P_AND_Q, ["--format", "machine", "axioms", "{path}"]),
        ],
        ids=["axiom-over-two-algebras", "no-common-language", "spec-ends-after-slash",
             "op-named-like-a-variable", "axiom-over-two-tables"],
    )
    def test_input_error_is_one_error_line(self, capsys, tmp_path, spec, argv):
        path = tmp_path / "input.spec"
        if spec is not None:
            path.write_text(spec)
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_axioms_on_one_algebra_named_twice(self, capsys):
        once = run(capsys, "--format", "machine", "--framework", "both", "axioms", "A2")
        twice = run(capsys, "--format", "machine", "--framework", "both", "axioms", "A2", "A2")
        assert twice == once
        assert once[1].count("\n") == 2 * 12

    def test_flags_accepted_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "check", "A1", "--format", "machine",
                           "a", "b", "a", "b")
        assert code == 0
        assert out.strip().startswith("sim")


class TestParser:
    def test_consecutive_calls_share_no_parsed_values(self, capsys):
        default = run(capsys, "check", "A1", "a", "b", "a", "b")
        assert default[1].startswith("sim a:b ~ a:b: holds")
        both = run(capsys, "--framework", "both", "--format", "machine",
                   "check", "A1", "a", "b", "a", "b")
        assert both != default
        assert run(capsys, "check", "A1", "a", "b", "a", "b") == default

    def test_built_once_and_not_at_import(self):
        import aprop.cli

        assert aprop.cli._parser() is aprop.cli._parser()
        probe = "import aprop.cli; print(aprop.cli._parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0\n"
