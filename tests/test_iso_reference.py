"""The isomorphism checks against the loops they replaced.

``ref_check_isomorphism_lemma``, ``ref_check_first_iso_theorem`` and
``ref_check_second_iso_theorem`` are verbatim copies of the three checks as
they were when they built a verdict per arrow and per quadruple (only their
names differ).  Every ``IsoReport`` field must agree under both competitor
policies, on relabelings of every bundled algebra, the quotient
homomorphisms of A2, A3 and EAABB, the identity and the SIREFL swap; where
one side raises, the other raises the same error.  The theorems hold on
every one of these, so rotations of the universe, passed off as
isomorphisms, pin the violations.
"""

import random
from itertools import product

import pytest

import aprop.verify
from aprop.algebras import (
    AlgebraSpecError,
    Mapping,
    is_homomorphism,
    is_isomorphism,
)
from aprop.clone import Bounds, build_pair_context
from aprop.proportion_sim import arrow_lesssim, proportion_sim
from aprop.verdicts import CompetitorPolicy
from aprop.verify import (
    IsoReport,
    bundled_algebra,
    bundled_algebra_names,
    check_first_iso_theorem,
    check_isomorphism_lemma,
    check_second_iso_theorem,
    quotient_homomorphisms,
    random_relabeling,
)

POLICIES = ("literal", "all")


def ref_check_isomorphism_lemma(h: Mapping, bounds: Bounds | None = None) -> IsoReport:
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


def ref_check_first_iso_theorem(
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
    violations = []
    instances = 0
    for a, b in product(h.source.universe, repeat=2):
        image = (h(a), h(b))
        premise = bool(cont_a[(a, b)]) or not cont_b[image]
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


def ref_check_second_iso_theorem(
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


def mappings() -> dict[str, Mapping]:
    """The cases by name: two relabelings of every bundled algebra, the
    quotient homomorphisms of A2, A3 and EAABB, the identity and the swap."""
    cases = {}
    for seed in (1, 2):
        rng = random.Random(seed)
        for name in bundled_algebra_names():
            cases[f"{name}:relabel-{seed}"] = random_relabeling(bundled_algebra(name), rng)
    for name in ("A2", "A3", "EAABB"):
        for h in quotient_homomorphisms(bundled_algebra(name)):
            cases[f"{name}:{h.name}"] = h
    alg = bundled_algebra("A2")
    cases["A2:id"] = Mapping("id", alg, alg, {e: e for e in alg.universe})
    alg = bundled_algebra("SIREFL")
    cases["SIREFL:swap"] = Mapping("swap", alg, alg, {"a": "a", "c": "d", "d": "c"})
    return cases


MAPPINGS = mappings()
THEOREMS = {
    "first-iso-theorem": (check_first_iso_theorem, ref_check_first_iso_theorem),
    "second-iso-theorem": (check_second_iso_theorem, ref_check_second_iso_theorem),
}


def outcome(check, *args):
    """The report of ``check``, or the type and message of what it raised."""
    try:
        return check(*args)
    except (AlgebraSpecError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", MAPPINGS)
def test_every_check_matches_the_reference(case):
    """Each case holds, or is refused as no isomorphism, on both sides."""
    h = MAPPINGS[case]
    assert outcome(check_isomorphism_lemma, h) == outcome(ref_check_isomorphism_lemma, h)
    for (fast, ref), policy in product(THEOREMS.values(), POLICIES):
        want = outcome(ref, h, Bounds(), policy)
        assert want[0] is AlgebraSpecError if isinstance(want, tuple) else want.ok
        assert outcome(fast, h, Bounds(), policy) == want


@pytest.mark.parametrize("check", THEOREMS)
def test_an_unknown_policy_is_refused_on_both_sides(check):
    for case, side in product(("A2:id", "SIREFL:swap", "EAABB:relabel-1"), THEOREMS[check]):
        with pytest.raises(ValueError, match="unknown competitor policy"):
            side(MAPPINGS[case], Bounds(), "analogy")


@pytest.mark.parametrize("name", ["A2", "EAABB", "SIREFL", "PTRANS"])
def test_violations_match_the_reference(name, monkeypatch):
    """Rotating the universe breaks both theorems once the homomorphism tests
    are made to pass it: every violation, in order, is the reference's."""
    for namespace in (vars(aprop.verify), globals()):
        monkeypatch.setitem(namespace, "is_homomorphism", lambda h: True)
        monkeypatch.setitem(namespace, "is_isomorphism", lambda h: True)
    alg = bundled_algebra(name)
    U = alg.universe
    h = Mapping("rotate", alg, alg, dict(zip(U, U[1:] + U[:1])))
    for (fast, ref), policy in product(THEOREMS.values(), POLICIES):
        report = ref(h, Bounds(), policy)
        assert report.violations
        assert fast(h, Bounds(), policy) == report
