"""The memo of arrow codes: each arrow verdict is decided once per context
side, framework and policy, and what the memo holds does not depend on the
order in which verdicts were asked for.  The sweeps read booleans from it:
they build no verdict, and ``compare_frameworks`` and ``check_axiom`` read
tables that decide each quadruple once per side, relation and policy."""

import functools
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest
from test_clone import generated_algebra

import aprop.verdicts
from aprop.algebras import parse_spec_file
from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import arrow_proportion_rw, proportion_rw, solve_rw
from aprop.proportion_sim import arrow_lesssim, proportion_sim, solve_sim
from aprop.similarity import similar
from aprop.verdicts import ArrowRelation, ProportionVerdict
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    AxiomSchema,
    _statement,
    bundled_algebra,
    bundled_algebra_names,
    check_axiom,
    compare_frameworks,
    quotient_homomorphisms,
)

POLICIES = ("literal", "all")


def context(name: str):
    if name in QUOTIENT_PAIRS:
        return build_pair_context(*QUOTIENT_PAIRS[name], Bounds())
    if name == "CS3@1":
        return build_pair_context(generated_algebra("CS3"), bounds=Bounds(max_vars=1))
    return build_pair_context(bundled_algebra(name), bounds=Bounds())


def sweep(ctx) -> None:
    for policy in POLICIES:
        compare_frameworks(ctx, policy)
        for framework in FRAMEWORKS:
            for name in AXIOM_SCHEMATA:
                check_axiom(name, ctx, framework=framework, policy=policy)


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (side, relation sign, policy, ar1, ar2) of every kernel run."""
    runs, asked = [], []
    decide, code = aprop.verdicts._decide, ArrowRelation.code

    def counted_decide(*args):
        runs.append(asked[-1])
        return decide(*args)

    def traced_code(self, ar1, ar2, side, policy):
        asked.append((id(side), self.sign, policy, ar1, ar2))
        try:
            return code(self, ar1, ar2, side, policy)
        finally:
            asked.pop()

    monkeypatch.setattr(aprop.verdicts, "_decide", counted_decide)
    monkeypatch.setattr(ArrowRelation, "code", traced_code)
    return runs


@pytest.mark.parametrize("name", ["EAABB", "CS3@1"])
def test_each_arrow_verdict_is_decided_once(name, kernel_runs):
    ctx = context(name)
    sweep(ctx)
    assert kernel_runs
    assert len(kernel_runs) == len(set(kernel_runs))
    assert {run[1] for run in kernel_runs} == {"<~", ":."}
    assert {run[0] for run in kernel_runs} == {id(ctx), id(ctx.swapped())}
    kernel_runs.clear()
    sweep(ctx)
    assert kernel_runs == []


@pytest.mark.parametrize("name", ["EAABB", "CS3@1"])
def test_each_competitor_row_is_decided_once(name, kernel_runs):
    """One kernel run decides a whole row: every arrow of B for a given ar1
    under <~, every c -> d' with c fixed under :., so a sweep runs the kernel
    at most once per ar1, or per (ar1, c)."""
    ctx = context(name)
    sweep(ctx)
    A, B = len(ctx.alg_a.universe), len(ctx.alg_b.universe)
    per_table = Counter(run[:3] for run in kernel_runs)
    assert {sign for _, sign, _ in per_table} == {"<~", ":."}
    for (_, sign, _), runs in per_table.items():
        assert runs <= (A * A if sign == "<~" else A * A * B)


def test_an_arrow_verdict_builds_its_operands_once(monkeypatch):
    """A verdict builds the kernel's operands once, whether its code is
    decided on the way (cold memo) or read from the memo (warm)."""
    calls, rw = [], arrow_proportion_rw.__globals__["RW"]

    def counted(*args):
        calls.append(args)
        return rw.operands(*args)

    monkeypatch.setitem(arrow_proportion_rw.__globals__, "RW", rw._replace(operands=counted))
    ctx = context("PTRANS")
    a, b, c = ctx.alg_a.universe[:3]
    for memo in ("cold", "warm"):
        calls.clear()
        assert arrow_proportion_rw((a, b), (c, a), ctx) == rw.verdict(
            (a, b), (c, a), context("PTRANS"), "d-only"
        )
        assert len(calls) == 1, memo


@pytest.mark.parametrize("name", ["EAABB", "CS3@1", "A3:collapse-1"])
def test_warm_memo_gives_the_verdicts_of_a_fresh_one(name):
    warm, fresh = context(name), context(name)
    A, B = warm.alg_a.universe, warm.alg_b.universe
    quadruples = list(itertools.product(A, A, B, B))
    random.Random(7).shuffle(quadruples)
    for q in quadruples:
        for policy in POLICIES:
            proportion_sim(*q, warm, policy)
        proportion_rw(*q, warm)

    def from_fresh(decide, *args):
        for side in (fresh, fresh.swapped()):
            side.arrow_codes.clear()
            side.holding_verdicts.clear()
        return decide(*args)

    for side, fresh_side in ((warm, fresh), (warm.swapped(), fresh.swapped())):
        left = list(itertools.product(side.alg_a.universe, repeat=2))
        right = list(itertools.product(side.alg_b.universe, repeat=2))
        for ar1, ar2 in itertools.product(left, right):
            for policy in POLICIES:
                assert arrow_lesssim(ar1, ar2, side, policy) == from_fresh(
                    arrow_lesssim, ar1, ar2, fresh_side, policy
                )
            assert arrow_proportion_rw(ar1, ar2, side) == from_fresh(
                arrow_proportion_rw, ar1, ar2, fresh_side
            )
    for q in quadruples:
        for policy in POLICIES:
            assert proportion_sim(*q, warm, policy) == from_fresh(
                proportion_sim, *q, fresh, policy
            )
        assert proportion_rw(*q, warm) == from_fresh(proportion_rw, *q, fresh)


@pytest.mark.parametrize("name", ["EAABB", "CS3@1", "A3:collapse-1"])
def test_holding_verdicts_with_one_first_witness_are_one_object(name):
    """A side keeps one holding verdict per policy and first witness: two
    holding quadruples with the same first witness get the same object, equal
    to the verdicts of a fresh context.  The mirror keeps its own."""
    ctx = context(name)
    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    for decide in (
        *(functools.partial(proportion_sim, policy=policy) for policy in POLICIES),
        proportion_rw,
    ):
        by_witness = {}
        for q in itertools.product(A, A, B, B):
            verdict = decide(*q, ctx=ctx)
            if verdict:
                by_witness.setdefault(verdict.witness, []).append((q, verdict))
        shared = [found for found in by_witness.values() if len(found) > 1]
        assert shared
        for (q1, first), (q2, second) in (found[:2] for found in shared):
            assert first is second
            assert first == decide(*q1, ctx=context(name)) == decide(*q2, ctx=context(name))
    assert ctx.holding_verdicts
    if ctx.swapped() is not ctx:
        assert ctx.swapped().holding_verdicts == {}


@pytest.mark.parametrize("name", ["EAABB", "CS3@1"])
def test_sweeps_build_no_verdict(name, monkeypatch):
    built = []
    new = ProportionVerdict.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ProportionVerdict, "__new__", counted_new)
    ctx = context(name)
    sweep(ctx)
    u = ctx.alg_a.universe
    for a, b, c in itertools.product(u, repeat=3):
        for policy in POLICIES:
            solve_sim(a, b, c, ctx, policy)
        solve_rw(a, b, c, ctx)
    assert built == []
    proportion_sim(*u[:2], *u[:2], ctx)
    assert len(built) == 1  # the counter sees the verdict path


@pytest.fixture
def decider_calls(monkeypatch):
    """The (context, relation sign, policy, quadruple) of every call of a
    decider's ``holds``, with the policy the relation decides under."""
    calls = []
    decider = ArrowRelation.decider

    def traced_decider(self, ctx, policy):
        holds, policy = decider(self, ctx, policy), self.policy or policy

        def traced(q):
            calls.append((id(ctx), self.sign, policy, q))
            return holds(q)

        return traced

    monkeypatch.setattr(ArrowRelation, "decider", traced_decider)
    return calls


@pytest.mark.parametrize("name", ["EAABB", "CS3@1"])
def test_a_sweep_decides_each_quadruple_once(name, decider_calls):
    """compare and every axiom check, under both policies, read one table per
    side, relation and policy: at most |A|^2 |B|^2 quadruples each, each
    decided once, and none again on a second sweep."""
    ctx = context(name)
    sweep(ctx)
    assert decider_calls
    assert len(decider_calls) == len(set(decider_calls))
    assert {side for side, *_ in decider_calls} <= {id(ctx), id(ctx.swapped())}
    per_table = Counter(call[:3] for call in decider_calls)
    assert max(per_table.values()) <= len(ctx.alg_a.universe) ** 2 * len(ctx.alg_b.universe) ** 2
    decider_calls.clear()
    sweep(ctx)
    assert decider_calls == []


def test_a_statement_reads_one_bit_of_its_side_per_read(monkeypatch):
    """A probe statement built by ``_statement`` reads each quadruple of
    A x A x B x B four times, on (P, Q) and on its mirror (Q, P): 64 reads,
    each the verdict of its quadruple on the side checked.  On these two
    constant maps no relation is invariant under a:b to b:a or c:d to d:c,
    so a read of a misplaced bit shows."""
    spec = parse_spec_file(
        "algebra P { universe: a, b; op f/1: a -> a, b -> a; }"
        "algebra Q { universe: a, b; op f/1: a -> b, b -> b; }"
    )
    ctx = build_pair_context(spec.algebras["P"], spec.algebras["Q"])
    answers = []

    def probe(p, *q):
        answers.append((q, p(q)))
        return False

    def instances(A, B, S):
        return [*itertools.product(A, A, B, B)] * 4

    schema = AxiomSchema("probe", 2, _statement(instances, probe))
    monkeypatch.setitem(AXIOM_SCHEMATA, "probe", schema)
    for side, (framework, fw), policy in itertools.product(
        (ctx, ctx.swapped()), FRAMEWORKS.items(), POLICIES
    ):
        answers.clear()
        assert check_axiom("probe", side, framework, policy).instances == 64
        assert len(answers) == 64
        for q, got in answers:
            assert got == bool(fw.decide(q, side, policy))


def quotient_pairs() -> dict:
    """The (algebra, quotient) pairs of A2, A3 and EAABB, in both orders."""
    pairs = {}
    for name in ("A2", "A3", "EAABB"):
        for h in quotient_homomorphisms(bundled_algebra(name)):
            pairs[f"{name}:{h.name}"] = (h.source, h.target)
            pairs[f"{h.name}:{name}"] = (h.target, h.source)
    return pairs


QUOTIENT_PAIRS = quotient_pairs()


@pytest.mark.parametrize("name", [*bundled_algebra_names(), "CS3@1", *QUOTIENT_PAIRS])
def test_solve_reads_the_verdicts(name):
    """solve_sim and solve_rw list the d in B whose quadruple verdict holds,
    for a, b in A and c in B; the two paths read two contexts, so neither
    sees the other's memo."""
    fast, slow = context(name), context(name)
    A, B = fast.alg_a.universe, fast.alg_b.universe
    for a, b, c in itertools.product(A, A, B):
        for policy in POLICIES:
            assert solve_sim(a, b, c, fast, policy) == [
                d for d in B if proportion_sim(a, b, c, d, slow, policy)
            ]
        assert solve_rw(a, b, c, fast) == [d for d in B if proportion_rw(a, b, c, d, slow)]


def test_solve_rejects_an_unknown_policy():
    with pytest.raises(ValueError):
        solve_sim("a", "a", "a", context("EAABB"), policy="bogus")


@pytest.mark.parametrize("name", ["A2", "PTRANS"])
def test_one_algebra_context_is_its_own_mirror(name, kernel_runs):
    """On one algebra the swapped pair is the same pair: the context is its
    own mirror, and each arrow code is decided once, whichever side asks."""
    ctx = context(name)
    assert ctx.swapped() is ctx
    sweep(ctx)
    codes = [run[1:] for run in kernel_runs]
    assert codes
    assert len(codes) == len(set(codes))


def test_a_dropped_one_algebra_context_is_freed_without_the_collector():
    """No reference cycle keeps a one-algebra context alive once its sweeps
    and verdicts are done."""
    gc.disable()
    try:
        ctx = context("A2")
        u = ctx.alg_a.universe
        verdict = proportion_sim(*u[:2], *u[:2], ctx)
        assert verdict in ctx.holding_verdicts.values()  # kept by ctx
        similar(u[0], u[1], ctx)
        solve_sim(*u[:3], ctx)
        check_axiom("p-symmetry", ctx)
        compare_frameworks(ctx, "literal")
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def two_algebra_sweep(ctx) -> None:
    """Verdicts, solves, similarity, comparisons and the two-algebra axioms."""
    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    for policy in POLICIES:
        proportion_sim(A[0], A[-1], B[0], B[-1], ctx, policy)
        solve_sim(A[0], A[-1], B[0], ctx, policy)
        similar(A[-1], B[0], ctx, policy)
        compare_frameworks(ctx, policy)
        for framework in FRAMEWORKS:
            for schema in AXIOM_SCHEMATA.values():
                if schema.context_arity == 2:
                    check_axiom(schema.name, ctx, framework, policy)
    proportion_rw(A[0], A[-1], B[0], B[-1], ctx)
    solve_rw(A[0], A[-1], B[0], ctx)


@pytest.mark.parametrize("name", ["A3:collapse-0", "collapse-0:A3"])
def test_a_dropped_two_algebra_context_and_its_mirror_are_freed_without_the_collector(name):
    """The mirror holds the context that built it weakly, so no reference
    cycle keeps either side alive once the context is dropped."""
    gc.disable()
    try:
        ctx = context(name)
        two_algebra_sweep(ctx)
        assert ctx.swapped() is not ctx and ctx.swapped().swapped() is ctx
        refs = [weakref.ref(ctx), weakref.ref(ctx.swapped())]
        del ctx
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["A3:collapse-0", "collapse-0:A3"])
def test_a_mirror_kept_without_its_builder_decides_as_a_fresh_context(name):
    """A mirror whose builder is dropped builds a new partner and keeps it:
    the round trip, every verdict and the indexes hold as on a fresh (B, A)
    context, and dropping the mirror frees both."""
    ctx = context(name)
    two_algebra_sweep(ctx)
    m = ctx.swapped()
    b_views = {view: getattr(m, f"{view}_b") for view in ("cont", "jus", "elem_up")}
    builder = weakref.ref(ctx)
    del ctx
    assert builder() is None
    partner = m.swapped()
    assert partner.swapped() is m and m.swapped() is partner
    for view, b_view in b_views.items():
        # the cached views were the old builder's: equal, no longer the same
        assert getattr(m, f"{view}_b") is b_view
        assert b_view == getattr(partner, f"{view}_a")
        assert b_view is not getattr(partner, f"{view}_a")
    del partner
    fresh = build_pair_context(m.alg_a, m.alg_b, Bounds())
    A, B = m.alg_a.universe, m.alg_b.universe
    for q in itertools.product(A, A, B, B):
        for policy in POLICIES:
            assert proportion_sim(*q, m, policy) == proportion_sim(*q, fresh, policy)
        assert proportion_rw(*q, m) == proportion_rw(*q, fresh)
    gc.disable()
    try:
        refs = [weakref.ref(m), weakref.ref(m.swapped())]
        del m
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


INDEX_VIEWS = ("cont_a", "cont_b", "jus_a", "jus_b", "elem_up_a", "elem_up_b")


@pytest.mark.parametrize("name", ["A2", "A3:collapse-0"])
def test_verdicts_and_sweeps_read_masks_not_views(name):
    """Every verdict, solve, comparison and axiom reads the int masks: on a
    fresh context, neither side ever builds a decoded index view."""
    ctx = context(name)
    A, B = ctx.alg_a.universe, ctx.alg_b.universe
    for policy in POLICIES:
        for q in itertools.product(A, A, B, B):
            proportion_sim(*q, ctx, policy)
            proportion_rw(*q, ctx)
        for a, b, c in itertools.product(A, A, B):
            solve_sim(a, b, c, ctx, policy)
            solve_rw(a, b, c, ctx)
        for a, b in itertools.product(A, B):
            similar(a, b, ctx, policy)
        compare_frameworks(ctx, policy)
        for framework in FRAMEWORKS:
            for schema in AXIOM_SCHEMATA.values():
                if schema.context_arity == 2 or ctx.swapped() is ctx:
                    check_axiom(schema.name, ctx, framework, policy)
    for side in (ctx, ctx.swapped()):
        assert [view for view in INDEX_VIEWS if view in vars(side)] == []
        assert {"cont_masks", "jus_masks", "elem_up_masks"} <= set(vars(side))
