"""Command line interface.

Subcommands operate on algebra spec files (or bundled algebra names) and
print either human-readable text (``--format human``) or stable
machine-readable lines (``--format machine``).  Exit codes: 0 when the
queried relation holds or all checks pass, 1 when it fails or a
counterexample exists, 2 on usage or input errors, 3 when the clone
exceeds ``--class-cap`` before it saturates, its tables would exceed
``clone.MAX_ROWS`` rows or hold more than ``clone.MAX_TABLE_BYTES`` bytes
in all, its level 0 would fill more than
``clone.MAX_LEVEL_ZERO`` supports, one of its levels would visit more than
``clone.MAX_LEVEL_WORK`` combinations, the relation grouping would visit
more than ``clone.MAX_GROUP_PAIRS`` class pairs, or memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebras import AlgebraSpecError, FiniteAlgebra, is_isomorphism, parse_spec_file
from .clone import Bounds, PairContext, ResourceLimitError, build_pair_context
from .similarity import similar
from .terms import TermSyntaxError
from .verdicts import POLICIES, ProportionVerdict
from .verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    bundled_algebra,
    check_axiom,
    check_first_iso_theorem,
    check_isomorphism_lemma,
    check_second_iso_theorem,
    compare_frameworks,
    run_paper_vectors,
)

__all__ = ["main"]


def _load_spec(path: str):
    # a missing file raises OSError, which main reports as an input error;
    # "utf-8-sig" drops a leading byte-order mark, as some editors save one
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse_spec_file(fh.read())
        except UnicodeDecodeError as exc:
            raise AlgebraSpecError(f"{path} is not UTF-8: {exc}") from None


def _load_algebras(paths: list[str]) -> tuple[FiniteAlgebra, FiniteAlgebra]:
    algebras: list[FiniteAlgebra] = []
    for path in paths:
        if os.path.exists(path):
            spec = _load_spec(path)
            algebras.extend(spec.algebras.values())
        else:
            algebras.append(bundled_algebra(path))
    if len(algebras) not in (1, 2):
        raise AlgebraSpecError(f"expected one or two algebras, found {len(algebras)}")
    return algebras[0], algebras[-1]


def _context(args) -> PairContext:
    alg_a, alg_b = _load_algebras(args.algebra)
    return build_pair_context(alg_a, alg_b, args.bounds)


def _frameworks(args) -> list[str]:
    return list(FRAMEWORKS) if args.framework == "both" else [args.framework]


def _verdict_word(v) -> str:
    return "holds" if v else "fails"


def _print_verdict(args, label: str, verdict: ProportionVerdict) -> None:
    if args.format == "machine":
        print(
            f"{label} {_verdict_word(verdict)} reason={verdict.reason}"
            f" exact={int(verdict.exact)} vars={verdict.max_vars}"
            f" depth={verdict.depth}"
        )
        return
    print(f"{label}: {_verdict_word(verdict)} ({verdict.reason})")
    if verdict.witness:
        print(f"  witness: {verdict.witness}")
    if verdict.competitor:
        print(f"  dominating competitor: {verdict.competitor}")
    if verdict.failed_conjunct:
        print(f"  failed conjunct: {verdict.failed_conjunct}")
    if not verdict.exact:
        print("  warning: clone not saturated, verdict is approximate")


def _require_elements(ctx: PairContext, left: tuple, right: tuple) -> None:
    for alg, elements in ((ctx.alg_a, left), (ctx.alg_b, right)):
        for e in elements:
            if e not in alg.index:
                raise AlgebraSpecError(f"unknown element {e!r} in {alg.name}")


def cmd_check(args) -> int:
    ctx = _context(args)
    _require_elements(ctx, (args.a, args.b), (args.c, args.d))
    status = 0
    for fw in _frameworks(args):
        verdict = FRAMEWORKS[fw].decide((args.a, args.b, args.c, args.d), ctx, args.competitors)
        _print_verdict(args, f"{fw} {args.a}:{args.b} ~ {args.c}:{args.d}", verdict)
        if not verdict:
            status = 1
    return status


def cmd_solve(args) -> int:
    ctx = _context(args)
    _require_elements(ctx, (args.a, args.b), (args.c,))
    status = 1
    for fw in _frameworks(args):
        found = FRAMEWORKS[fw].solve(args.a, args.b, args.c, ctx, args.competitors)
        for d in found:
            print(f"{fw} {d}" if args.framework == "both" else d)
        if found:
            status = 0
    return status


def cmd_similar(args) -> int:
    ctx = _context(args)
    _require_elements(ctx, (args.a,), (args.b,))
    verdict = similar(args.a, args.b, ctx, args.competitors)
    _print_verdict(args, f"{args.a} ~ {args.b}", verdict)
    return 0 if verdict else 1


def cmd_justifications(args) -> int:
    ctx = _context(args)
    _require_elements(ctx, (args.a, args.b), (args.c, args.d))
    # "both" lists the indexes of the first framework, sim
    index_a, index_b = FRAMEWORKS[_frameworks(args)[0]].index(ctx)
    left, right = index_a[(args.a, args.b)], index_b[(args.c, args.d)]
    shared = left & right
    for title, ids in (("left", left), ("right", right), ("shared", shared)):
        # ids are positions in ctx.relations, so id order is relation order
        classes = [ctx.relations[i] for i in sorted(ids)]
        if args.format == "machine":
            for rc in classes:
                print(f"{title} {rc}")
        else:
            print(f"{title}: {len(classes)} non-trivial class(es)")
            for rc in classes:
                print(f"  {rc}")
    if args.format != "machine" and not shared:
        print("the non-trivial intersection is empty")
    return 0


def cmd_axioms(args) -> int:
    ctx = _context(args)
    status = 0
    for fw in _frameworks(args):
        for name in AXIOM_SCHEMATA:
            report = check_axiom(name, ctx, framework=fw, policy=args.competitors)
            if args.format == "machine":
                ce = ",".join(report.counterexample) if report.counterexample else "-"
                print(f"axiom {fw} {name} {_verdict_word(report)} {ce} exact={int(report.exact)}")
            elif report.holds:
                print(f"{fw} {name}: holds ({report.instances} instances)")
            else:
                print(f"{fw} {name}: fails at {report.counterexample}")
            if not report.holds:
                status = 1
    return status


def cmd_iso(args) -> int:
    spec = _load_spec(args.spec)
    if args.mapping not in spec.mappings:
        raise AlgebraSpecError(f"no mapping named {args.mapping!r} in {args.spec}")
    h = spec.mappings[args.mapping]
    reports = [
        check_isomorphism_lemma(h, args.bounds),
        check_first_iso_theorem(h, args.bounds, args.competitors),
    ]
    if is_isomorphism(h):
        reports.append(check_second_iso_theorem(h, args.bounds, args.competitors))
    status = 0
    for report in reports:
        word = "pass" if report.ok else "fail"
        if args.format == "machine":
            print(f"iso {report.check} {word} instances={report.instances}")
        else:
            print(f"{report.check}: {word} ({report.instances} instances)")
            for v in report.violations:
                print(f"  {v}")
        if not report.ok:
            status = 1
    return status


def cmd_compare(args) -> int:
    ctx = _context(args)
    diffs = compare_frameworks(ctx, args.competitors)
    for q, s, r in diffs:
        quad = ":".join(q[:2]) + " ~ " + ":".join(q[2:])
        print(f"{quad} sim={_verdict_word(s)} rw={_verdict_word(r)}")
    if args.format != "machine":
        print(f"{len(diffs)} differing quadruple(s)")
    return 0


def cmd_vectors(args) -> int:
    results = run_paper_vectors(bounds=args.bounds)
    failed = 0
    for r in results:
        word = "pass" if r.passed else "fail"
        if args.format == "machine":
            print(f"vector {r.line} {word} {r.description} expected={r.expected} actual={r.actual}")
        else:
            print(f"line {r.line} [{word}] {r.description}: expected {r.expected}, got {r.actual}")
        failed += not r.passed
    if args.format != "machine":
        print(f"{len(results) - failed}/{len(results)} vectors passed")
    return 1 if failed else 0


def _add_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The options are attached to the main parser with real defaults and to
    # every subparser with suppressed defaults, so they are accepted on
    # either side of the subcommand without clobbering each other.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--framework", choices=[*FRAMEWORKS, "both"], default=default("sim")
    )
    bounds = Bounds()
    parser.add_argument("--max-depth", type=int, default=default(bounds.max_depth))
    parser.add_argument("--max-vars", type=int, default=default(bounds.max_vars))
    parser.add_argument("--class-cap", type=int, default=default(bounds.class_cap))
    parser.add_argument("--competitors", choices=POLICIES, default=default("literal"))
    parser.add_argument("--format", choices=["human", "machine"], default=default("human"))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built by the first ``main`` call, not at import, so importing stays cheap.
    parser = argparse.ArgumentParser(
        prog="aprop", description="Analogical proportions over finite algebras."
    )
    _add_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *positional):
        p = sub.add_parser(name)
        _add_options(p, suppress=True)
        for arg in positional:
            p.add_argument(arg, nargs="+" if arg == "algebra" else None)
        p.set_defaults(func=func)

    add("check", cmd_check, "algebra", "a", "b", "c", "d")
    add("solve", cmd_solve, "algebra", "a", "b", "c")
    add("similar", cmd_similar, "algebra", "a", "b")
    add("justifications", cmd_justifications, "algebra", "a", "b", "c", "d")
    add("axioms", cmd_axioms, "algebra")
    add("compare", cmd_compare, "algebra")
    add("iso", cmd_iso, "spec", "mapping")
    add("vectors", cmd_vectors)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.bounds = Bounds(
            max_depth=args.max_depth, max_vars=args.max_vars, class_cap=args.class_cap
        )
    except ValueError:
        parser.exit(2, "aprop: bounds must be positive\n")
    try:
        return args.func(args)
    except (AlgebraSpecError, TermSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
