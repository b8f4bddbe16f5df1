"""Axiom-schema checking, regression vectors, and isomorphism transfer checks.

The twelve axiom schemata are checked as joins of the rows of the proportion
relation of each context side, decided once as a table: a statement of at
most three variables reads its rows bit by bit.  The isomorphism checks read
the same tables and arrow codes.  Cross-universe
membership conditions (a in A intersect B and the like) match elements by
name.  Vector files pin expected verdicts for the bundled algebras; a
mismatch is reported, never silently adjusted.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from importlib import resources
from itertools import product
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
from .proportion_sim import SIM, proportion_sim, solve_sim
from .terms import Language
from .verdicts import HOLDING, ArrowRelation, CompetitorPolicy, ProportionVerdict, check_policy

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
    and the kernel's operands.  It keys the relation's memo of arrow codes and
    its quadruple tables on every context: ``decide`` and ``solve`` read the
    memo, ``check_axiom`` and ``compare_frameworks`` the tables, and all but
    ``decide`` read booleans.
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
    """One of the twelve proportional axioms, stated in full as a join.

    ``join(rows, A, B, mirror=None)`` gives the first counterexample of the
    statement, or None, and the instances the short-circuit enumeration of
    the statement evaluates up to it, from the table ``rows`` of the (A, B)
    side (see ``ArrowRelation.table``).  A statement of at most three
    variables becomes a join through ``_statement``; the schemata of four or
    six variables join rows.  Only p-symmetry's join reads ``mirror``, the
    table of the (B, A) side, which is ``rows`` when None (one algebra);
    ``mirrored`` marks it, and ``check_axiom`` builds that table for it only.
    Schemata over one or three algebras are read with A = B (and C = B).
    """

    name: str
    context_arity: int
    join: Callable[..., tuple[tuple[Element, ...] | None, int]]
    mirrored: bool = False


def _statement(
    instances: Callable[..., Iterable[tuple[Element, ...]]],
    violated: Callable[..., bool],
) -> Callable[..., tuple[tuple[Element, ...] | None, int]]:
    """A statement as a join.  ``instances(A, B, S)`` enumerates its element
    tuples from the universes of A and B and their shared elements S, and
    ``violated(p, *xs)`` tells whether ``xs`` is a counterexample, where
    ``p(q)`` reads the bit of the quadruple q from ``rows``; each read counts."""

    def join(rows, A, B, mirror=None):
        nA, nB, reads = len(A), len(B), 0
        index_a = dict(zip(A, range(nA)))
        index_b = index_a if B is A else dict(zip(B, range(nB)))

        def p(q: Quadruple) -> bool:
            nonlocal reads
            reads += 1
            a, b, c, d = q
            return rows[index_a[a] * nA + index_a[b]] >> index_b[c] * nB + index_b[d] & 1 == 1

        shared = tuple(e for e in A if e in index_b)
        ce = next((xs for xs in instances(A, B, shared) if violated(p, *xs)), None)
        return ce, reads

    return join


def _ones(mask: int):
    """The positions of the set bits of ``mask``, least first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _first_difference(rows, partners, A, B):
    """The first (a, b, c, d) of ``product(A, A, B, B)`` whose bit differs
    between ``rows[a, b]`` and ``partners[a, b]``, or None: the counterexample
    of a statement p(q) != p(q'), which reads 2 proportions per instance up
    to it.  ``partners`` may be lazy; it is read up to the counterexample."""
    width = len(B) ** 2
    for ab, (row, partner) in enumerate(zip(rows, partners)):
        differ = row ^ partner
        if differ:
            cd = (differ & -differ).bit_length() - 1
            (a, b), (c, d) = divmod(ab, len(A)), divmod(cd, len(B))
            return (A[a], A[b], B[c], B[d]), 2 * (ab * width + cd + 1)
    return None, 2 * len(rows) * width


def _symmetry_join(rows, A, B, mirror=None):
    """p-symmetry, a:b ~ c:d on (A, B) unlike c:d ~ a:b on (B, A), in the
    order of ``product(A, A, B, B)``: ``rows`` against the transpose of the
    mirror side's table ``mirror``, which is ``rows`` on one algebra."""
    columns = [0] * len(rows)
    for cd, row in enumerate(rows if mirror is None else mirror):
        for ab in _ones(row):
            columns[ab] |= 1 << cd
    return _first_difference(rows, columns, A, B)


def _inner_symmetry_join(rows, A, B, mirror=None):
    """inner-p-symmetry, a:b ~ c:d unlike b:a ~ d:c, in the order of
    ``product(A, A, B, B)``: each row against that of (b, a) with the bits
    of (c, d) and (d, c) exchanged."""
    nA, nB = len(A), len(B)
    flip = [1 << d * nB + c for c, d in product(range(nB), repeat=2)]
    partners = (
        sum(flip[dc] for dc in _ones(rows[b * nA + a]))
        for a, b in product(range(nA), repeat=2)
    )
    return _first_difference(rows, partners, A, B)


def _central_permutation_join(rows, A, B, mirror=None):
    """central-permutation, a:b ~ c:d unlike a:c ~ b:d, in the order of
    ``product(A, A, A, A)``: row (a, b) holds the d of (a, b, c, d) in its
    slice c of n bits, set against slice b of row (a, c)."""
    n = len(A)
    mask = (1 << n) - 1
    partners = (
        sum((rows[a * n + c] >> b * n & mask) << c * n for c in range(n))
        for a, b in product(range(n), repeat=2)
    )
    return _first_difference(rows, partners, A, B)


def _reads_to(cd: int, width: int, second: int, f: int) -> int:
    """The proportions a join's block evaluates up to its counterexample
    (cd, f), past the extra reads of the lower cd with p1 true: one read for
    each of the ``width`` instances of a lower cd, and for each f' <= f two
    reads, plus the third when ``second``, the p2 bits, holds f'."""
    return cd * width + 2 * (f + 1) + (second & ((2 << f) - 1)).bit_count()


def _transitivity_join(rows, A, B, mirror=None):
    """p-transitivity, (a:b, c:d) and (c:d, e:f) in the relation but not
    (a:b, e:f), in the order of ``product(A, A, B, B, B, B)``.

    With ab, cd and ef ranked in A x A = B x B, the pair (ab, cd) of the
    relation is violated by each ef in ``rows[cd] & ~rows[ab]``, the least
    first.  An instance evaluates 1 + [p1] + [p1 and p2] proportions.
    """
    pairs, instances = len(rows), 0
    for ab, row in enumerate(rows):
        for cd in _ones(row):
            second = rows[cd]
            bad = second & ~row
            if bad:
                ef = (bad & -bad).bit_length() - 1
                (a, b), (c, d), (e, f) = (divmod(r, len(A)) for r in (ab, cd, ef))
                return (A[a], A[b], B[c], B[d], B[e], B[f]), instances + _reads_to(
                    cd, pairs, second, ef
                )
            instances += pairs + second.bit_count()
        instances += pairs * pairs
    return None, instances


def _inner_transitivity_join(rows, A, B, mirror=None):
    """inner-p-transitivity, a:b ~ c:d and b:e ~ d:f but not a:e ~ c:f, in the
    order of ``product(A, A, A, B, B, B)`` over (a, b, e, c, d, f).

    Row slices of nB bits hold, for ``rows[b, e]`` at d, the f with b:e ~ d:f,
    and for ``rows[a, e]`` at c, the f with a:e ~ c:f.  Each (c, d) with
    a:b ~ c:d is violated by the f of the first slice that are not in the
    second, the least first.
    """
    nA, nB, instances = len(A), len(B), 0
    mask = (1 << nB) - 1
    slices = [[row >> x * nB & mask for x in range(nB)] for row in rows]
    for a, b, e in product(range(nA), repeat=3):
        seconds, thirds = slices[b * nA + e], slices[a * nA + e]
        for cd in _ones(rows[a * nA + b]):
            c, d = divmod(cd, nB)
            second = seconds[d]
            bad = second & ~thirds[c]
            if bad:
                f = (bad & -bad).bit_length() - 1
                return (A[a], A[b], B[c], B[d], A[e], B[f]), instances + _reads_to(
                    cd, nB, second, f
                )
            instances += nB + second.bit_count()
        instances += nB ** 3
    return None, instances


def _central_transitivity_join(rows, A, B, mirror=None):
    """central-p-transitivity, a:b ~ b:c and b:c ~ c:d but not a:b ~ c:d, in
    the order of ``product(A, A, A, A)``.

    A block (a, b, c) over d reads its n instances' p1 alone when a:b ~ b:c
    fails; else each d with slice c of ``rows[b, c]`` and not slice c of
    ``rows[a, b]`` violates it, the least first.
    """
    n, instances = len(A), 0
    mask = (1 << n) - 1
    for a, b in product(range(n), repeat=2):
        row = rows[a * n + b]
        firsts = row >> b * n & mask
        for c in range(n):
            if not firsts >> c & 1:
                instances += n
                continue
            second = rows[b * n + c] >> c * n & mask
            bad = second & ~(row >> c * n)
            if bad:
                d = (bad & -bad).bit_length() - 1
                return (A[a], A[b], A[c], B[d]), instances + _reads_to(0, n, second, d)
            instances += 2 * n + second.bit_count()
    return None, instances


AXIOM_SCHEMATA: dict[str, AxiomSchema] = {
    s.name: s
    for s in (
        AxiomSchema("p-reflexivity", 1, _statement(
            lambda A, B, S: product(A, repeat=2), lambda p, a, b: not p((a, b, a, b)),
        )),
        AxiomSchema("p-symmetry", 2, join=_symmetry_join, mirrored=True),
        AxiomSchema("inner-p-symmetry", 2, join=_inner_symmetry_join),
        AxiomSchema("p-determinism", 1, _statement(
            lambda A, B, S: product(A, repeat=2), lambda p, a, d: p((a, a, a, d)) != (d == a),
        )),
        AxiomSchema("inner-p-reflexivity", 2, _statement(
            lambda A, B, S: product(A, B), lambda p, a, c: not p((a, a, c, c)),
        )),
        AxiomSchema("central-permutation", 1, join=_central_permutation_join),
        AxiomSchema("strong-inner-p-reflexivity", 1, _statement(
            lambda A, B, S: product(A, repeat=3), lambda p, a, c, d: d != c and p((a, a, c, d)),
        )),
        AxiomSchema("strong-p-reflexivity", 1, _statement(
            lambda A, B, S: product(A, repeat=3), lambda p, a, b, d: d != b and p((a, b, a, d)),
        )),
        AxiomSchema("p-commutativity", 2, _statement(
            lambda A, B, S: product(S, repeat=2), lambda p, a, b: not p((a, b, b, a)),
        )),
        AxiomSchema("p-transitivity", 3, join=_transitivity_join),
        # enumerated in the order (a, b, e, c, d, f), reported as (a, ..., f)
        AxiomSchema("inner-p-transitivity", 2, join=_inner_transitivity_join),
        AxiomSchema("central-p-transitivity", 3, join=_central_transitivity_join),
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


def _arrows(framework: str, policy: CompetitorPolicy) -> ArrowRelation:
    """The arrow relation of ``framework``, once ``framework`` and ``policy`` are known."""
    if framework not in FRAMEWORKS:
        raise ValueError(f"unknown framework {framework!r}")
    check_policy(policy)
    return FRAMEWORKS[framework].arrows


def check_axiom(
    name: str,
    ctx: PairContext,
    framework: str = "sim",
    policy: CompetitorPolicy = "literal",
) -> CheckReport:
    """Check one axiom schema on the (A, B) context ``ctx``, returning the
    first counterexample in enumeration order.

    Schemata over one or three algebras need A = B: one universe, one set of tables.
    The schema is a join of the table of ``ctx`` and, for p-symmetry only,
    that of ``ctx.swapped()`` (``ctx`` itself on one algebra): each quadruple
    is decided once per context, relation and policy; no verdict is built.
    ``instances`` counts the proportion evaluations the short-circuit
    enumeration of the statement makes up to its first counterexample,
    repeats included: a statement counts its reads, a join of rows derives
    the count.
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
    relation = _arrows(framework, policy)
    rows = relation.table(ctx, policy)
    mirror = relation.table(ctx.swapped(), policy) if schema.mirrored else None
    ce, instances = schema.join(rows, A, B, mirror)
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
        text = path.read_text(encoding="utf-8")
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
        text = (resources.files("aprop") / "data" / "vectors.txt").read_text(encoding="utf-8")
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
            got = _arrows(framework, policy).decider(ctx, policy)((a, b, c, d))
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
    """All quadruples where the two frameworks disagree, in universe order:
    the bits where the rows of their two tables on ``ctx`` differ."""
    sim, rw = (_arrows(name, policy).table(ctx, policy) for name in FRAMEWORKS)
    pairs = list(product(ctx.alg_b.universe, repeat=2))
    out = []
    for (a, b), s, r in zip(product(ctx.alg_a.universe, repeat=2), sim, rw):
        for k in _ones(s ^ r):
            out.append(((a, b, *pairs[k]), s >> k & 1 == 1, r >> k & 1 == 1))
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
    cont_a, cont_b = ctx.cont_masks, ctx.swapped().cont_masks
    holds = SIM.decider(ctx, policy)
    violations = []
    instances = 0
    for a, b in product(h.source.universe, repeat=2):
        image = (h(a), h(b))
        premise = bool(cont_a[(a, b)]) or not cont_b[image]
        if premise:
            instances += 1
            if SIM.code((a, b), image, ctx, policy)[0] not in HOLDING:
                violations.append(f"{a}->{b} not below {image[0]}->{image[1]}")
        if iso:
            instances += 1
            if not holds((a, b, *image)):
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
    here, there = SIM.bit(ctx_a, policy), SIM.bit(ctx_b, policy)
    violations = []
    instances = 0
    for q in product(h.source.universe, repeat=4):
        instances += 1
        image = tuple(h(e) for e in q)
        if here(*q) != there(*image):
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
