"""Axiom-schema checking, regression vectors, and isomorphism transfer checks.

The twelve axiom schemata are checked by exhaustive enumeration of the
element tuples in their statements.  Cross-universe membership conditions
(a in A intersect B and the like) match elements by name.  Vector files
pin expected verdicts for the bundled algebras; a mismatch is reported,
never silently adjusted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from importlib import resources

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
from .proportion_rw import proportion_rw
from .proportion_sim import arrow_lesssim, proportion_sim
from .terms import Language
from .verdicts import CompetitorPolicy, check_policy

__all__ = [
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


@dataclass(frozen=True)
class AxiomSchema:
    """One of the twelve proportional axioms, with its context arity."""

    name: str
    context_arity: int


AXIOM_SCHEMATA: dict[str, AxiomSchema] = {
    s.name: s
    for s in (
        AxiomSchema("p-reflexivity", 1),
        AxiomSchema("p-symmetry", 2),
        AxiomSchema("inner-p-symmetry", 2),
        AxiomSchema("p-determinism", 1),
        AxiomSchema("inner-p-reflexivity", 2),
        AxiomSchema("central-permutation", 1),
        AxiomSchema("strong-inner-p-reflexivity", 1),
        AxiomSchema("strong-p-reflexivity", 1),
        AxiomSchema("p-commutativity", 2),
        AxiomSchema("p-transitivity", 3),
        AxiomSchema("inner-p-transitivity", 2),
        AxiomSchema("central-p-transitivity", 3),
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


class _Prop:
    """Cached proportion decisions of one framework over fixed contexts."""

    def __init__(self, framework: str, policy: CompetitorPolicy):
        if framework not in ("sim", "rw"):
            raise ValueError(f"unknown framework {framework!r}")
        check_policy(policy)
        self.framework = framework
        self.policy = policy
        self.cache: dict[tuple[int, Quadruple], bool] = {}
        self.instances = 0

    def __call__(self, ctx: PairContext, q: Quadruple) -> bool:
        key = (id(ctx), q)
        if key not in self.cache:
            if self.framework == "sim":
                self.cache[key] = bool(proportion_sim(*q, ctx, self.policy))
            else:
                self.cache[key] = bool(proportion_rw(*q, ctx))
        self.instances += 1
        return self.cache[key]


def _shared(alg_a: FiniteAlgebra, alg_b: FiniteAlgebra) -> tuple[Element, ...]:
    return tuple(e for e in alg_a.universe if e in alg_b.index)


def check_axiom(
    name: str,
    ctx: PairContext,
    ctx_bc: PairContext | None = None,
    ctx_ac: PairContext | None = None,
    framework: str = "sim",
    policy: CompetitorPolicy = "literal",
) -> CheckReport:
    """Exhaustively check one axiom schema, returning the first counterexample.

    ``ctx`` is the (A, B) context.  Three-context schemata additionally take
    (B, C) and (A, C) contexts; both default to ``ctx``, which covers the
    single-algebra case.  Single-algebra schemata require A and B to agree.
    """
    if name not in AXIOM_SCHEMATA:
        raise ValueError(f"unknown axiom {name!r}")
    schema = AXIOM_SCHEMATA[name]
    ctx_bc = ctx_bc if ctx_bc is not None else ctx
    ctx_ac = ctx_ac if ctx_ac is not None else ctx
    if schema.context_arity == 1 and ctx.alg_a.universe != ctx.alg_b.universe:
        raise ValueError(f"{name} is stated over a single algebra")
    p = _Prop(framework, policy)
    A = ctx.alg_a.universe
    B = ctx.alg_b.universe
    C = ctx_bc.alg_b.universe
    ce: tuple[Element, ...] | None = None

    if name == "p-reflexivity":
        for a, b in itertools.product(A, repeat=2):
            if not p(ctx, (a, b, a, b)):
                ce = (a, b)
                break
    elif name == "p-symmetry":
        swapped = ctx.swapped()
        for a, b, c, d in itertools.product(A, A, B, B):
            if p(ctx, (a, b, c, d)) != p(swapped, (c, d, a, b)):
                ce = (a, b, c, d)
                break
    elif name == "inner-p-symmetry":
        for a, b, c, d in itertools.product(A, A, B, B):
            if p(ctx, (a, b, c, d)) != p(ctx, (b, a, d, c)):
                ce = (a, b, c, d)
                break
    elif name == "p-determinism":
        for a, d in itertools.product(A, repeat=2):
            if p(ctx, (a, a, a, d)) != (d == a):
                ce = (a, d)
                break
    elif name == "inner-p-reflexivity":
        for a, c in itertools.product(A, B):
            if not p(ctx, (a, a, c, c)):
                ce = (a, c)
                break
    elif name == "central-permutation":
        for a, b, c, d in itertools.product(A, repeat=4):
            if p(ctx, (a, b, c, d)) != p(ctx, (a, c, b, d)):
                ce = (a, b, c, d)
                break
    elif name == "strong-inner-p-reflexivity":
        for a, c, d in itertools.product(A, repeat=3):
            if d != c and p(ctx, (a, a, c, d)):
                ce = (a, c, d)
                break
    elif name == "strong-p-reflexivity":
        for a, b, d in itertools.product(A, repeat=3):
            if d != b and p(ctx, (a, b, a, d)):
                ce = (a, b, d)
                break
    elif name == "p-commutativity":
        for a, b in itertools.product(_shared(ctx.alg_a, ctx.alg_b), repeat=2):
            if not p(ctx, (a, b, b, a)):
                ce = (a, b)
                break
    elif name == "p-transitivity":
        for a, b, c, d, e, f in itertools.product(A, A, B, B, C, C):
            if (
                p(ctx, (a, b, c, d))
                and p(ctx_bc, (c, d, e, f))
                and not p(ctx_ac, (a, b, e, f))
            ):
                ce = (a, b, c, d, e, f)
                break
    elif name == "inner-p-transitivity":
        for a, b, e, c, d, f in itertools.product(A, A, A, B, B, B):
            if (
                p(ctx, (a, b, c, d))
                and p(ctx, (b, e, d, f))
                and not p(ctx, (a, e, c, f))
            ):
                ce = (a, b, c, d, e, f)
                break
    elif name == "central-p-transitivity":
        shared_ab = _shared(ctx.alg_a, ctx.alg_b)
        shared_bc = _shared(ctx_bc.alg_a, ctx_bc.alg_b)
        for a, b, c, d in itertools.product(A, shared_ab, shared_bc, C):
            if (
                p(ctx, (a, b, b, c))
                and p(ctx_bc, (b, c, c, d))
                and not p(ctx_ac, (a, b, c, d))
            ):
                ce = (a, b, c, d)
                break

    names = {ctx.alg_a.name, ctx.alg_b.name, ctx_bc.alg_b.name}
    return CheckReport(
        schema=name,
        framework=framework,
        policy=policy,
        algebras=tuple(sorted(names)),
        holds=ce is None,
        counterexample=ce,
        instances=p.instances,
        max_vars=ctx.bounds.max_vars,
        exact=ctx.saturated and ctx_bc.saturated and ctx_ac.saturated,
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
            got = _Prop(framework, policy)(ctx_for(name), (a, b, c, d))
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
    out = []
    for q in itertools.product(ctx.alg_a.universe, ctx.alg_a.universe,
                               ctx.alg_b.universe, ctx.alg_b.universe):
        s = bool(proportion_sim(*q, ctx, policy))
        r = bool(proportion_rw(*q, ctx))
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
    for a, b in itertools.product(h.source.universe, repeat=2):
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
    for q in itertools.product(h.source.universe, repeat=4):
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
    min_universe: int = 2,
    max_universe: int = 4,
    max_symbols: int = 2,
    name: str = "random",
) -> FiniteAlgebra:
    """A random algebra with unary operations over a small letter universe."""
    size = rng.randint(min_universe, max_universe)
    universe = tuple("abcd"[:size])
    count = rng.randint(0, max_symbols)
    symbols = tuple((chr(ord("f") + i), 1) for i in range(count))
    tables = {
        sym: {(e,): rng.choice(universe) for e in universe} for sym, _ in symbols
    }
    return FiniteAlgebra(name, Language(symbols), universe, tables)


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
