"""The memo of arrow codes: each arrow verdict is decided once per context
side, framework and policy, and what the memo holds does not depend on the
order in which verdicts were asked for."""

import itertools
import random

import pytest
from test_clone import generated_algebra

import aprop.verdicts
from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import arrow_proportion_rw, proportion_rw
from aprop.proportion_sim import arrow_lesssim, proportion_sim
from aprop.verdicts import ArrowRelation
from aprop.verify import (
    AXIOM_SCHEMATA,
    FRAMEWORKS,
    bundled_algebra,
    check_axiom,
    compare_frameworks,
)

POLICIES = ("literal", "all")


def context(name: str):
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
def test_warm_memo_gives_the_verdicts_of_a_fresh_one(name):
    warm, fresh = context(name), context(name)
    u = warm.alg_a.universe
    quadruples = list(itertools.product(u, repeat=4))
    random.Random(7).shuffle(quadruples)
    for q in quadruples:
        for policy in POLICIES:
            proportion_sim(*q, warm, policy)
        proportion_rw(*q, warm)

    def from_fresh(decide, *args):
        for side in (fresh, fresh.swapped()):
            side.arrow_codes.clear()
        return decide(*args)

    arrows = list(itertools.product(u, repeat=2))
    for side, fresh_side in ((warm, fresh), (warm.swapped(), fresh.swapped())):
        for ar1, ar2 in itertools.product(arrows, repeat=2):
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
