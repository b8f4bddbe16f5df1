"""The row kernel against the single-target kernel it replaced.

``single_target_decide`` is a verbatim copy of the kernel as it was when it
decided one target per run (only its name differs): it recomputes every
competitor's share for each target.  The row kernel must give, for every
target of every competitor row, the code the copy gives: for ``sim`` under
both competitor policies, for ``rw`` and for the element rows of ``lesssim``.
"""

import itertools

import pytest
from test_clone import generated_algebra

from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import RW
from aprop.proportion_sim import SIM
from aprop.verdicts import ALL_TRIVIAL, EMPTY_INTERSECTION, POLICIES, _decide
from aprop.verify import bundled_algebra, bundled_algebra_names, quotient_homomorphisms


def single_target_decide(left: int, right: dict, target, competitors, skip) -> tuple[str, int, int]:
    """The code of ``target``'s share ``left & right[target]``: the maximality kernel.

    ``target`` is dominated by the first competitor ``e`` (``skip`` excluded)
    whose share ``left & right[e]`` is a strict superset.  Id sets are int
    masks, so the lowest set bit is the least shared id.
    """
    right_ids = right[target]
    if not left and not right_ids:
        return ALL_TRIVIAL
    shared = left & right_ids
    if not shared:
        return EMPTY_INTERSECTION
    low = (shared & -shared).bit_length() - 1
    for pos, e in enumerate(competitors):
        if e != skip:
            ids = right[e]
            if ids & shared == shared and left & ids != shared:
                return ("dominated", low, pos)
    return ("maximal", low, -1)


def contexts() -> dict:
    """The bundled algebras, CS4 at one variable (relation ids above 1,800)
    and one A3 quotient pair in both orders."""
    pairs = {name: (bundled_algebra(name), None, Bounds()) for name in bundled_algebra_names()}
    pairs["CS4@1"] = (generated_algebra("CS4"), None, Bounds(max_vars=1))
    h = quotient_homomorphisms(bundled_algebra("A3"))[0]
    pairs[f"A3:{h.name}"] = (h.source, h.target, Bounds())
    pairs[f"{h.name}:A3"] = (h.target, h.source, Bounds())
    return pairs


CONTEXTS = contexts()


def rows(ctx):
    """(label, left, right, competitors, skip) of every competitor row on
    both sides of ``ctx``."""
    for side in (ctx, ctx.swapped()):
        A, B = side.alg_a.universe, side.alg_b.universe
        for ar1 in itertools.product(A, A):
            for policy in POLICIES:
                yield ("sim", policy, ar1), *SIM.operands(ar1, (B[0], B[0]), side, policy)
            for c in B:
                yield ("rw", ar1, c), *RW.operands(ar1, (c, c), side, "d-only")
        for a, policy in itertools.product(A, POLICIES):
            skip = a if policy == "literal" else None
            yield ("lesssim", policy, a), side.elem_up_masks[a], side.swapped().elem_up_masks, B, skip


@pytest.mark.parametrize("name", CONTEXTS)
def test_row_kernel_gives_each_target_the_single_target_code(name):
    ctx = build_pair_context(*CONTEXTS[name])
    highest = 0
    for label, left, right, competitors, skip in rows(ctx):
        row = _decide(left, right, competitors, skip)
        assert len(row) == len(competitors), label
        for target, code in zip(competitors, row):
            assert code == single_target_decide(left, right, target, competitors, skip), (
                label, target,
            )
        highest = max(highest, left.bit_length())
    if name == "CS4@1":
        assert highest > 1_800
