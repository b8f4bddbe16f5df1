"""Axiom-schema checking, regression vectors, and isomorphism transfer checks.

The twelve axiom schemata are checked by exhaustive enumeration of the
element tuples in their statements.  Cross-universe membership conditions
(a in A intersect B and the like) match elements by name.  Vector files
pin expected verdicts for the bundled algebras; a mismatch is reported,
never silently adjusted.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import compress, product, starmap, tee
from typing import NamedTuple

from .algebras import (
    AlgebraSpecError,
    Element,
    FiniteAlgebra,
    Mapping,
    is_homomorphism,
    is_isomorphism,
    parse_spec_file,
)
from .clone import Bounds, PairContext, build_pair_context
from .proportion_rw import RW, proportion_rw, solve_rw
from .proportion_sim import SIM, arrow_lesssim, proportion_sim, solve_sim
from .terms import Language
from .verdicts import ArrowRelation, CompetitorPolicy, ProportionVerdict, check_policy

__all__ = [
    "Framework",
    "FRAMEWORKS",
    "AxiomSchema",
    "AXIOM_SCHEMATA",
    "CheckReport",
    "check_axiom",
    "VectorResult",
    "run_paper_vectors",
    "bundled_algebra",
    "bundled_algebra_names",
    "IsoReport",
    "check_isomorphism_lemma",
    "check_first_iso_theorem",
    "check_second_iso_theorem",
    "compare_frameworks",
    "random_algebra",
    "random_relabeling",
    "quotient_homomorphisms",
]

Quadruple = tuple[Element, Element, Element, Element]


class Framework(NamedTuple):
    """How one relation decides a quadruple, solves for d and indexes its arrows.

    ``arrows`` is its directed arrow relation: the sign, the competitor label
    and the kernel's operands.  It keys the relation's memo of arrow codes on
    every context, so ``decide``, ``solve``, ``check_axiom`` and
    ``compare_frameworks`` read one memo; all but ``decide`` read booleans.
    """

    decide: Callable[[Quadruple, PairContext, CompetitorPolicy], ProportionVerdict]
    solve: Callable[..., list[Element]]
    index: Callable[[PairContext], tuple[dict, dict]]
    arrows: ArrowRelation


# The lambdas look each function up when called, so a module attribute replaced
# at run time (a tracing wrapper) is called too.  rw ignores the competitor policy.
FRAMEWORKS: dict[str, Framework] = {
    "sim": Framework(
        lambda q, ctx, policy: proportion_sim(*q, ctx, policy),
        lambda a, b, c, ctx, policy: solve_sim(a, b, c, ctx, policy),
        lambda ctx: (ctx.cont_a, ctx.cont_b),
        SIM,
    ),
    "rw": Framework(
        lambda q, ctx, policy: proportion_rw(*q, ctx),
        lambda a, b, c, ctx, policy: solve_rw(a, b, c, ctx),
        lambda ctx: (ctx.jus_a, ctx.jus_b),
        RW,
    ),
}


@dataclass(frozen=True)
class AxiomSchema:
    """One of the twelve proportional axioms, stated in full.

    ``instances(A, B, S)`` enumerates the element tuples of the statement
    from the universes of A and B and their shared elements S.
    ``violated(p, ab, ba, *xs)`` tells whether the tuple ``xs`` is a
    counterexample, where ``p`` decides proportions in the (A, B) context
    ``ab`` and in ``ba = ab.swapped()`` on (B, A), which is ``ab`` itself on
    one algebra.  Schemata over one or three algebras are read with A = B
    (and C = B).
    """

    name: str
    context_arity: int
    instances: Callable[..., Iterable[tuple[Element, ...]]]
    violated: Callable[..., bool]


AXIOM_SCHEMATA: dict[str, AxiomSchema] = {
    s.name: s
    for s in (
        AxiomSchema(
            "p-reflexivity", 1, lambda A, B, S: product(A, repeat=2),
            lambda p, ab, ba, a, b: not p(ab, (a, b, a, b)),
        ),
        AxiomSchema(
            "p-symmetry", 2, lambda A, B, S: product(A, A, B, B),
            lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ba, (c, d, a, b)),
        ),
        AxiomSchema(
            "inner-p-symmetry", 2, lambda A, B, S: product(A, A, B, B),
            lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ab, (b, a, d, c)),
        ),
        AxiomSchema(
            "p-determinism", 1, lambda A, B, S: product(A, repeat=2),
            lambda p, ab, ba, a, d: p(ab, (a, a, a, d)) != (d == a),
        ),
        AxiomSchema(
            "inner-p-reflexivity", 2, lambda A, B, S: product(A, B),
            lambda p, ab, ba, a, c: not p(ab, (a, a, c, c)),
        ),
        AxiomSchema(
            "central-permutation", 1, lambda A, B, S: product(A, repeat=4),
            lambda p, ab, ba, a, b, c, d: p(ab, (a, b, c, d)) != p(ab, (a, c, b, d)),
        ),
        AxiomSchema(
            "strong-inner-p-reflexivity", 1, lambda A, B, S: product(A, repeat=3),
            lambda p, ab, ba, a, c, d: d != c and p(ab, (a, a, c, d)),
        ),
        AxiomSchema(
            "strong-p-reflexivity", 1, lambda A, B, S: product(A, repeat=3),
            lambda p, ab, ba, a, b, d: d != b and p(ab, (a, b, a, d)),
        ),
        AxiomSchema(
            "p-commutativity", 2, lambda A, B, S: product(S, repeat=2),
            lambda p, ab, ba, a, b: not p(ab, (a, b, b, a)),
        ),
        AxiomSchema(
            "p-transitivity", 3, lambda A, B, S: product(A, A, B, B, B, B),
            lambda p, ab, ba, a, b, c, d, e, f: p(ab, (a, b, c, d))
            and p(ab, (c, d, e, f)) and not p(ab, (a, b, e, f)),
        ),
        # enumerated in the order (a, b, e, c, d, f), reported as (a, ..., f)
        AxiomSchema(
            "inner-p-transitivity", 2,
            lambda A, B, S: (
                (a, b, c, d, e, f) for a, b, e, c, d, f in product(A, A, A, B, B, B)
            ),
            lambda p, ab, ba, a, b, c, d, e, f: p(ab, (a, b, c, d))
            and p(ab, (b, e, d, f)) and not p(ab, (a, e, c, f)),
        ),
        AxiomSchema(
            "central-p-transitivity", 3, lambda A, B, S: product(A, S, S, B),
            lambda p, ab, ba, a, b, c, d: p(ab, (a, b, b, c))
            and p(ab, (b, c, c, d)) and not p(ab, (a, b, c, d)),
        ),
    )
}


@dataclass(frozen=True)
class CheckReport:
    schema: str
    framework: str
    policy: CompetitorPolicy
    algebras: tuple[str, ...]
    holds: bool
    counterexample: tuple[Element, ...] | None
    instances: int
    max_vars: int | None
    exact: bool

    def __bool__(self) -> bool:
        return self.holds


def _proportion(framework: str, ctx: PairContext, policy: CompetitorPolicy) -> Callable[..., bool]:
    """``p(side, q)`` for ``side`` either ``ctx`` or ``ctx.swapped()``: whether ``q``
    holds there in ``framework``, read from the memo without building a verdict."""
    if framework not in FRAMEWORKS:
        raise ValueError(f"unknown framework {framework!r}")
    check_policy(policy)
    return FRAMEWORKS[framework].arrows.decider(ctx, policy)


def check_axiom(
    name: str,
    ctx: PairContext,
    framework: str = "sim",
    policy: CompetitorPolicy = "literal",
) -> CheckReport:
    """Exhaustively check one axiom schema on the (A, B) context ``ctx``,
    returning the first counterexample in enumeration order.

    Schemata over one or three algebras need A = B: one universe, one set of tables.
    Each quadruple is decided once per call and context (``ctx`` and
    ``ctx.swapped()``, one context on one algebra) and read from the memo of
    arrow codes as a boolean; no verdict is built.  ``instances`` counts the
    proportion evaluations the short-circuit enumeration makes, repeats
    included, so the memo leaves it unchanged.
    """
    if name not in AXIOM_SCHEMATA:
        raise ValueError(f"unknown axiom {name!r}")
    schema = AXIOM_SCHEMATA[name]
    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    if schema.context_arity != 2 and (A, ctx.alg_a.tables) != (B, ctx.alg_b.tables):
        raise AlgebraSpecError(
            f"{name} is checked with A = B, but {ctx.alg_a.name} and"
            f" {ctx.alg_b.name} differ in their universes or tables"
        )
    proportion, instances = _proportion(framework, ctx, policy), 0
    ba, violated = ctx.swapped(), schema.violated
    here: dict[Quadruple, bool] = {}
    there: dict[Quadruple, bool] = {}

    def p(side: PairContext, q: Quadruple) -> bool:
        nonlocal instances
        instances += 1
        seen = here if side is ctx else there
        found = seen.get(q)
        if found is None:
            found = seen[q] = proportion(side, q)
        return found

    shared = tuple(e for e in A if e in ctx.alg_b.index)
    # The first counterexample, found in C without a generator frame per instance.
    xs, again = tee(schema.instances(A, B, shared))
    ce = next(compress(xs, starmap(partial(violated, p, ctx, ba), again)), None)
    return CheckReport(
        schema=name,
        framework=framework,
        policy=policy,
        algebras=tuple(sorted({ctx.alg_a.name, ctx.alg_b.name})),
        holds=ce is None,
        counterexample=ce,
        instances=instances,
        max_vars=ctx.bounds.max_vars,
        exact=ctx.saturated,
    )


# --- bundled algebras and golden vectors --------------------------------------


def bundled_algebra_names() -> list[str]:
    root = resources.files("aprop") / "data"
    return sorted(
        entry.name[: -len(".alg")]
        for entry in root.iterdir()
        if entry.name.endswith(".alg")
    )


def bundled_algebra(name: str) -> FiniteAlgebra:
    path = resources.files("aprop") / "data" / f"{name}.alg"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise AlgebraSpecError(f"no bundled algebra named {name!r}") from None
    spec = parse_spec_file(text)
    return spec.algebras[name]


@dataclass(frozen=True)
class VectorResult:
    line: int
    kind: str
    description: str
    expected: str
    actual: str
    passed: bool


def run_paper_vectors(
    text: str | None = None, bounds: Bounds | None = None
) -> list[VectorResult]:
    """Run the golden vector bundle and report every line's outcome.

    Vector lines (whitespace separated, ``#`` starts a comment)::

        quad  <algebra> <framework> <policy> <a> <b> <c> <d> <holds|fails>
        axiom <algebra> <framework> <policy> <axiom-name> <holds|fails>
        differcount <algebra> <policy> <count>
    """
    if text is None:
        text = (resources.files("aprop") / "data" / "vectors.txt").read_text()
    bounds = bounds if bounds is not None else Bounds()
    contexts: dict[str, PairContext] = {}

    def ctx_for(name: str) -> PairContext:
        if name not in contexts:
            contexts[name] = build_pair_context(bundled_algebra(name), bounds=bounds)
        return contexts[name]

    results = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        # the policy field is written "-" on rw lines, where it is unused
        fields = ["literal" if f == "-" else f for f in fields]
        if kind == "quad":
            name, framework, policy, a, b, c, d, expected = fields[1:]
            ctx = ctx_for(name)
            got = _proportion(framework, ctx, policy)(ctx, (a, b, c, d))
            actual = "holds" if got else "fails"
            description = f"{name} {framework} {a}:{b} to {c}:{d}"
        elif kind == "axiom":
            name, framework, policy, axiom, expected = fields[1:]
            report = check_axiom(
                axiom, ctx_for(name), framework=framework, policy=policy
            )
            actual = "holds" if report.holds else "fails"
            description = f"{name} {framework} {axiom}"
        elif kind == "differcount":
            name, policy, expected = fields[1:]
            diffs = compare_frameworks(ctx_for(name), policy)
            actual = str(len(diffs))
            description = f"{name} sim/rw difference count"
        else:
            raise ValueError(f"vector line {lineno}: unknown kind {kind!r}")
        results.append(
            VectorResult(lineno, kind, description, expected, actual, expected == actual)
        )
    return results


def compare_frameworks(
    ctx: PairContext, policy: CompetitorPolicy = "literal"
) -> list[tuple[Quadruple, bool, bool]]:
    """All quadruples where the two frameworks disagree, in universe order."""
    deciders = [_proportion(name, ctx, policy) for name in FRAMEWORKS]
    out = []
    for q in product(ctx.alg_a.universe, ctx.alg_a.universe,
                     ctx.alg_b.universe, ctx.alg_b.universe):
        s, r = (holds(ctx, q) for holds in deciders)
        if s != r:
            out.append((q, s, r))
    return out


# --- isomorphism transfer -----------------------------------------------------


@dataclass(frozen=True)
class IsoReport:
    mapping: str
    check: str
    ok: bool
    violations: tuple[str, ...]
    instances: int
    exact: bool


def check_isomorphism_lemma(h: Mapping, bounds: Bounds | None = None) -> IsoReport:
    """Justification transfer along a homomorphism, at the class level.

    Every joint relation class over (source, target) must satisfy: an arrow
    (a, b) in its source relation maps to (Ha, Hb) in its target relation.
    For isomorphisms the two relations must agree up to relabeling.
    """
    if not is_homomorphism(h):
        raise AlgebraSpecError(f"{h.name!r} is not a homomorphism")
    iso = is_isomorphism(h)
    ctx = build_pair_context(h.source, h.target, bounds or Bounds())
    violations = []
    instances = 0
    for rc in ctx.relations:
        mapped = frozenset((h(a), h(b)) for a, b in rc.rel_a)
        instances += len(rc.rel_a)
        if not mapped <= rc.rel_b:
            violations.append(f"class {rc} maps outside its target relation")
        elif iso and mapped != rc.rel_b:
            violations.append(f"class {rc} not preserved up to relabeling")
    return IsoReport(
        h.name, "isomorphism-lemma", not violations, tuple(violations),
        instances, ctx.saturated,
    )


def check_first_iso_theorem(
    h: Mapping,
    bounds: Bounds | None = None,
    policy: CompetitorPolicy = "literal",
) -> IsoReport:
    """a -> b is related to Ha -> Hb whenever the emptiness premise holds;
    for isomorphisms, a:b is proportional to Ha:Hb for all pairs."""
    if not is_homomorphism(h):
        raise AlgebraSpecError(f"{h.name!r} is not a homomorphism")
    iso = is_isomorphism(h)
    ctx = build_pair_context(h.source, h.target, bounds or Bounds())
    violations = []
    instances = 0
    for a, b in product(h.source.universe, repeat=2):
        image = (h(a), h(b))
        premise = bool(ctx.cont_a[(a, b)]) or not ctx.cont_b[image]
        if premise:
            instances += 1
            if not arrow_lesssim((a, b), image, ctx, policy):
                violations.append(f"{a}->{b} not below {image[0]}->{image[1]}")
        if iso:
            instances += 1
            if not proportion_sim(a, b, *image, ctx, policy):
                violations.append(f"{a}:{b} not proportional to {image[0]}:{image[1]}")
    return IsoReport(
        h.name, "first-iso-theorem", not violations, tuple(violations),
        instances, ctx.saturated,
    )


def check_second_iso_theorem(
    h: Mapping,
    bounds: Bounds | None = None,
    policy: CompetitorPolicy = "literal",
) -> IsoReport:
    """Proportion verdicts are invariant under isomorphic relabeling."""
    if not is_isomorphism(h):
        raise AlgebraSpecError(f"{h.name!r} is not an isomorphism")
    b = bounds or Bounds()
    ctx_a = build_pair_context(h.source, bounds=b)
    ctx_b = build_pair_context(h.target, bounds=b)
    violations = []
    instances = 0
    for q in product(h.source.universe, repeat=4):
        instances += 1
        image = tuple(h(e) for e in q)
        if bool(proportion_sim(*q, ctx_a, policy)) != bool(
            proportion_sim(*image, ctx_b, policy)
        ):
            violations.append(f"verdict differs on {q} vs {image}")
    return IsoReport(
        h.name, "second-iso-theorem", not violations, tuple(violations),
        instances, ctx_a.saturated and ctx_b.saturated,
    )


# --- generators for the property suites ---------------------------------------


def random_algebra(
    rng: random.Random,
    max_universe: int = 4,
    max_symbols: int = 2,
) -> FiniteAlgebra:
    """A random algebra with unary operations over 2 to ``max_universe`` letters."""
    size = rng.randint(2, max_universe)
    universe = tuple("abcd"[:size])
    count = rng.randint(0, max_symbols)
    symbols = tuple((chr(ord("f") + i), 1) for i in range(count))
    tables = {
        sym: {(e,): rng.choice(universe) for e in universe} for sym, _ in symbols
    }
    return FiniteAlgebra("random", Language(symbols), universe, tables)


def random_relabeling(
    alg: FiniteAlgebra, rng: random.Random, name: str = "relabel"
) -> Mapping:
    """An isomorphism from ``alg`` onto a permuted copy of itself."""
    permuted = list(alg.universe)
    rng.shuffle(permuted)
    table = dict(zip(alg.universe, permuted))
    tables = {
        sym: {
            tuple(table[x] for x in args): table[v]
            for args, v in alg.tables[sym].items()
        }
        for sym, _ in alg.language.symbols
    }
    target = FiniteAlgebra(f"{alg.name}-{name}", alg.language, alg.universe, tables)
    return Mapping(name, alg, target, table)


def quotient_homomorphisms(alg: FiniteAlgebra) -> list[Mapping]:
    """All non-injective surjective homomorphisms onto quotient algebras.

    Enumerates the partitions of the universe, keeps those compatible with
    every operation, and names each block by its least element.
    """

    def partitions(items: list[Element]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in partitions(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
            yield [[first]] + smaller

    out = []
    for blocks in partitions(list(alg.universe)):
        if len(blocks) == len(alg.universe) or len(blocks) == 0:
            continue
        rep = {}
        for block in blocks:
            least = min(block)
            for e in block:
                rep[e] = least
        compatible = True
        tables: dict[str, dict[tuple[Element, ...], Element]] = {}
        for sym, rank in alg.language.symbols:
            table: dict[tuple[Element, ...], Element] = {}
            for args, value in alg.tables[sym].items():
                key = tuple(rep[x] for x in args)
                if table.setdefault(key, rep[value]) != rep[value]:
                    compatible = False
                    break
            if not compatible:
                break
            tables[sym] = table
        if not compatible:
            continue
        universe = tuple(e for e in alg.universe if rep[e] == e)
        quotient = FiniteAlgebra(
            f"{alg.name}/{len(universe)}", alg.language, universe, tables
        )
        out.append(Mapping(f"collapse-{len(out)}", alg, quotient, dict(rep)))
    return out
