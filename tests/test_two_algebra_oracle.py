"""An independent oracle for pairs of two different algebras (A, B).

It generalizes the raw-term oracle of ``test_acceptance.py`` from A = B to
two algebras over one language, and uses nothing of the engine's build: no
joint clone, no relation classes, no mirror, no B-side index.

- Raw terms are kept by (table on A, table on B, variable set).
- A term pair induces a relation pair (R_A, R_B), one half per algebra, and
  the pair is trivial only when both halves are full.
- An arrow of A and an arrow of B share the relations that hold each in its
  own half; an element of A and one of B share the term images that hold
  each in its own half.

The engine must agree with it on every quadruple (``proportion_sim`` under
both policies and ``proportion_rw``), on ``lesssim`` and ``similar`` for
every element pair, and on ``solve_sim`` and ``solve_rw`` for every
(a, b, c).
"""

import itertools

import pytest

from aprop import Bounds, FiniteAlgebra, build_pair_context
from aprop.proportion_rw import proportion_rw, solve_rw
from aprop.proportion_sim import proportion_sim, solve_sim
from aprop.similarity import lesssim, similar
from aprop.terms import App, Language, Var
from aprop.verify import bundled_algebra, quotient_homomorphisms

MAX_VARS = 2
POLICIES = ("literal", "all")


def naive_terms(A, B, max_vars=MAX_VARS) -> dict:
    """Raw terms over x0..x(v-1), one per (table on A, table on B, variable
    set), to saturation, each mapped to its two tables.

    A table lists a term's values over all assignments, in product order.
    A variable's table is its column of that order, and an application's is
    read row by row through the op's table from its children's tables.
    Each round applies every operation to every tuple of the terms kept so
    far with at least one term kept in the round before (the other tuples
    were tried already); the rounds stop when one keeps nothing.
    """
    halves = (A, B)
    columns = [list(zip(*itertools.product(alg.universe, repeat=max_vars))) for alg in halves]
    seen, pool = set(), {}

    def keep(t, tables) -> bool:
        key = (*tables, frozenset(t.variables()))
        if key in seen:
            return False
        seen.add(key)
        pool[t] = tables
        return True

    def apply(sym, children) -> tuple:
        """sym over (term, tables) children: the term and its two tables,
        one op-table lookup per row."""
        return App(sym, tuple(t for t, _ in children)), tuple(
            tuple(map(alg.tables[sym].__getitem__, zip(*(tables[h] for _, tables in children))))
            for h, alg in enumerate(halves)
        )

    leaves = [(Var(i), (columns[0][i], columns[1][i])) for i in range(max_vars)]
    leaves += [
        (App(sym), tuple((alg.tables[sym][()],) * len(alg.universe) ** max_vars for alg in halves))
        for sym, rank in A.language.symbols if rank == 0
    ]
    fresh = [leaf for leaf in leaves if keep(*leaf)]
    while fresh:
        every = list(pool.items())
        old = every[: len(every) - len(fresh)]
        built = [
            apply(sym, children)
            for sym, rank in A.language.symbols
            # p is the position of the first child kept in the last round
            for p in range(rank)
            for children in itertools.product(*[old] * p, fresh, *[every] * (rank - p - 1))
        ]
        fresh = [pair for pair in built if keep(*pair)]
    return pool


def naive_cont(A, B, terms: dict, framework: str) -> tuple[dict, dict]:
    """Per algebra, arrow -> ids of the non-trivial relation pairs holding it
    in that algebra's half; under ``rw`` only pairs s ->> t count."""
    halves = (A, B)
    full = tuple(frozenset(itertools.product(alg.universe, repeat=2)) for alg in halves)
    rels = {}
    for s, (s_a, s_b) in terms.items():
        for t, (t_a, t_b) in terms.items():
            if framework == "rw" and not set(t.variables()) <= set(s.variables()):
                continue
            rels[frozenset(zip(s_a, t_a)), frozenset(zip(s_b, t_b))] = True
    nontrivial = [r for r in rels if r != full]
    return tuple(
        {
            ar: frozenset(i for i, r in enumerate(nontrivial) if ar in r[half])
            for ar in itertools.product(alg.universe, repeat=2)
        }
        for half, alg in enumerate(halves)
    )


def naive_up(A, B, terms: dict) -> tuple[dict, dict]:
    """Per algebra, element -> ids of the non-trivial image pairs holding it
    in that algebra's half."""
    halves = (A, B)
    full = tuple(frozenset(alg.universe) for alg in halves)
    images = {(frozenset(t_a), frozenset(t_b)) for t_a, t_b in terms.values()}
    nontrivial = [im for im in images if im != full]
    return tuple(
        {e: frozenset(i for i, im in enumerate(nontrivial) if e in im[half]) for e in alg.universe}
        for half, alg in enumerate(halves)
    )


def maximal(left, right: dict, target, competitors, skip) -> bool:
    """Whether ``left & right[target]`` is all-trivial or not strictly below
    the share of any competitor other than ``skip``."""
    if not left and not right[target]:
        return True
    shared = left & right[target]
    return bool(shared) and not any(shared < left & right[e] for e in competitors if e != skip)


def naive_verdict(conts, A, B, q, framework: str, policy: str = "literal") -> bool:
    """a:b ~ c:d (``sim``) or a:b :: c:d (``rw``), a, b in A and c, d in B:
    the two conjuncts from A to B and the two from B to A."""
    a, b, c, d = q
    universes = (A.universe, B.universe)

    def arrow_ok(ar1, ar2, source, target) -> bool:
        right = conts[target]
        if framework == "rw":
            competitors, skip = [(ar2[0], e) for e in universes[target]], None
        else:
            competitors, skip = right, ar1 if policy == "literal" else None
        return maximal(conts[source][ar1], right, ar2, competitors, skip)

    return (
        arrow_ok((a, b), (c, d), 0, 1) and arrow_ok((b, a), (d, c), 0, 1)
        and arrow_ok((c, d), (a, b), 1, 0) and arrow_ok((d, c), (b, a), 1, 0)
    )


def naive_lesssim(ups, x, y, source, target, policy: str) -> bool:
    """x <~ y from half ``source`` to half ``target`` (0 for A, 1 for B)."""
    skip = x if policy == "literal" else None
    return maximal(ups[source][x], ups[target], y, ups[target], skip)


def oracle_mismatches(A, B, max_vars=MAX_VARS) -> list:
    """Every query where the engine on (A, B) and the oracle disagree.  The
    quadruples, the element pairs and the solves each run on a fresh
    context, so no path reads a memo another one filled."""
    terms = naive_terms(A, B, max_vars)
    conts = {fw: naive_cont(A, B, terms, fw) for fw in ("sim", "rw")}
    ups = naive_up(A, B, terms)
    mismatches, expected = [], {}
    ctx = build_pair_context(A, B, Bounds(max_vars=max_vars))
    assert ctx.saturated
    for q in itertools.product(A.universe, A.universe, B.universe, B.universe):
        for policy in POLICIES:
            expected["sim", policy, q] = naive_verdict(conts["sim"], A, B, q, "sim", policy)
            if bool(proportion_sim(*q, ctx, policy)) != expected["sim", policy, q]:
                mismatches.append(("proportion_sim", policy, q))
        expected["rw", q] = naive_verdict(conts["rw"], A, B, q, "rw")
        if bool(proportion_rw(*q, ctx)) != expected["rw", q]:
            mismatches.append(("proportion_rw", q))
    ctx = build_pair_context(A, B, Bounds(max_vars=max_vars))
    for a, b in itertools.product(A.universe, B.universe):
        for policy in POLICIES:
            forth = naive_lesssim(ups, a, b, 0, 1, policy)
            back = naive_lesssim(ups, b, a, 1, 0, policy)
            if bool(lesssim(a, b, ctx, policy)) != forth:
                mismatches.append(("lesssim", policy, a, b))
            if bool(similar(a, b, ctx, policy)) != (forth and back):
                mismatches.append(("similar", policy, a, b))
    ctx = build_pair_context(A, B, Bounds(max_vars=max_vars))
    for a, b, c in itertools.product(A.universe, A.universe, B.universe):
        for policy in POLICIES:
            if solve_sim(a, b, c, ctx, policy) != [
                d for d in B.universe if expected["sim", policy, (a, b, c, d)]
            ]:
                mismatches.append(("solve_sim", policy, a, b, c))
        if solve_rw(a, b, c, ctx) != [d for d in B.universe if expected["rw", (a, b, c, d)]]:
            mismatches.append(("solve_rw", a, b, c))
    return mismatches


def unary_algebras(size: int) -> list[FiniteAlgebra]:
    """Every algebra on the first ``size`` of a, b, c with one unary op f."""
    universe = tuple("abc"[:size])
    return [
        FiniteAlgebra(
            f"U{size}:{''.join(values)}", Language((("f", 1),)), universe,
            {"f": {(e,): v for e, v in zip(universe, values)}},
        )
        for values in itertools.product(universe, repeat=size)
    ]


@pytest.mark.parametrize("first", [2, 3])
def test_every_pair_of_a_two_and_a_three_element_unary_algebra(first):
    """The 216 ordered pairs, 108 with the 2-element algebra first."""
    second = 5 - first
    mismatches = []
    for A, B in itertools.product(unary_algebras(first), unary_algebras(second)):
        mismatches.extend((A.name, B.name, *found) for found in oracle_mismatches(A, B))
    assert mismatches == []


def quotient_pairs() -> dict:
    """The (algebra, quotient) pairs of A2, A3 and EAABB, in both orders."""
    pairs = {}
    for name in ("A2", "A3", "EAABB"):
        for h in quotient_homomorphisms(bundled_algebra(name)):
            pairs[f"{name}:{h.name}"] = (h.source, h.target)
            pairs[f"{h.name}:{name}"] = (h.target, h.source)
    return pairs


QUOTIENT_PAIRS = quotient_pairs()


@pytest.mark.parametrize("name", QUOTIENT_PAIRS)
def test_bundled_quotient_pairs(name):
    assert oracle_mismatches(*QUOTIENT_PAIRS[name]) == []


def binary_algebra(name: str, combine) -> FiniteAlgebra:
    universe = ("a", "b", "c")
    table = {
        (universe[i], universe[j]): universe[combine(i, j)]
        for i in range(3) for j in range(3)
    }
    return FiniteAlgebra(name, Language((("p", 2),)), universe, {"p": table})


@pytest.mark.parametrize("order", ["add-join", "join-add"])
def test_z3_addition_against_the_three_chain_join(order):
    """Two algebras under one binary symbol, neither an image of the other."""
    add3 = binary_algebra("Z3", lambda i, j: (i + j) % 3)
    join3 = binary_algebra("C3", max)
    A, B = (add3, join3) if order == "add-join" else (join3, add3)
    assert oracle_mismatches(A, B) == []


def algebra(name: str, size: int, ops) -> FiniteAlgebra:
    """The algebra on the first ``size`` of a..e with ops (symbol, rank,
    function on element positions)."""
    universe = tuple("abcde"[:size])
    return FiniteAlgebra(
        name, Language(tuple((sym, rank) for sym, rank, _ in ops)), universe,
        {
            sym: {
                tuple(universe[i] for i in args): universe[fn(*args)]
                for args in itertools.product(range(size), repeat=rank)
            }
            for sym, rank, fn in ops
        },
    )


# Two ops each, of different sizes: 2- against 3-element algebras at two
# variables (one of them Boolean against Kleene negation and meet, a unary
# and a binary op), and a 5- against a 4-element chain (shift f, reflection
# g) at one.
TWO_OP_PAIRS = {
    "swap-cycle": (
        algebra("P2", 2, [("f", 1, lambda i: 1 - i), ("g", 1, lambda i: 0)]),
        algebra("Q3", 3, [("f", 1, lambda i: (i + 1) % 3), ("g", 1, lambda i: max(i - 1, 0))]),
        2,
    ),
    "boolean-kleene": (
        algebra("B2", 2, [("n", 1, lambda i: 1 - i), ("m", 2, min)]),
        algebra("K3", 3, [("n", 1, lambda i: 2 - i), ("m", 2, min)]),
        2,
    ),
    "chain5-chain4": (
        algebra("R5", 5, [("f", 1, lambda i: min(i + 1, 4)), ("g", 1, lambda i: 4 - i)]),
        algebra("R4", 4, [("f", 1, lambda i: min(i + 1, 3)), ("g", 1, lambda i: 3 - i)]),
        1,
    ),
}


@pytest.mark.parametrize("first", ["larger", "smaller"])
@pytest.mark.parametrize("name", TWO_OP_PAIRS)
def test_two_op_algebras_of_different_sizes(name, first):
    """A's and B's rows and arrows differ in number within one relation key."""
    smaller, larger, max_vars = TWO_OP_PAIRS[name]
    A, B = (larger, smaller) if first == "larger" else (smaller, larger)
    assert oracle_mismatches(A, B, max_vars) == []
