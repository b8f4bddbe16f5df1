"""Decision certificates returned by similarity and proportion queries."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProportionVerdict", "CompetitorPolicy", "check_policy"]

# How the maximality quantifier ranges over competitors.
#   "literal": competitors exclude the left-hand element/arrow, reading the
#              side condition "b' != a" at face value.
#   "all":     competitors range over the whole universe.
CompetitorPolicy = str
POLICIES = ("literal", "all")


def check_policy(policy: CompetitorPolicy) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown competitor policy {policy!r}")


def _base(ctx, policy: str) -> dict:
    """The fields every verdict decided on ``ctx`` shares."""
    return dict(
        exact=ctx.saturated,
        max_vars=ctx.bounds.max_vars,
        depth=ctx.clone.depth_reached,
        policy=policy,
    )


@dataclass(frozen=True)
class ProportionVerdict:
    """A boolean decision plus the evidence it was reached with.

    ``reason`` is one of: all-trivial, maximal, empty-intersection,
    dominated, conjunct-failed.  ``exact`` is False when the underlying
    clone did not saturate, in which case the verdict only covers terms up
    to the generation depth.
    """

    holds: bool
    reason: str
    exact: bool
    max_vars: int
    depth: int
    policy: CompetitorPolicy = "literal"
    witness: str | None = None
    competitor: str | None = None
    comparisons: tuple[str, ...] = field(default=())
    failed_conjunct: str | None = None

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def of_maximality(
        cls, left, right, target, competitors, label, witness, ctx, policy, skip=None
    ) -> ProportionVerdict:
        """Whether ``target`` keeps a maximal share ``left & right[target]``.

        It is dominated by the first competitor ``e`` (``skip`` excluded)
        whose share ``left & right[e]`` is a strict superset; each scanned
        competitor is recorded as ``label(e):sub`` or ``label(e):nosub``.
        ``str(witness(min(shared)))`` is the witness.
        """
        right_ids = right[target]
        if not left and not right_ids:
            return cls(True, "all-trivial", **_base(ctx, policy))
        shared = left & right_ids
        if not shared:
            return cls(False, "empty-intersection", **_base(ctx, policy))
        found = str(witness(min(shared)))
        comparisons = []
        for e in competitors:
            if e == skip:
                continue
            other = left & right[e]
            if shared <= other:
                comparisons.append(f"{label(e)}:sub")
                if not other <= shared:
                    return cls(
                        False, "dominated", witness=found, competitor=label(e),
                        comparisons=tuple(comparisons), **_base(ctx, policy),
                    )
            else:
                comparisons.append(f"{label(e)}:nosub")
        return cls(
            True, "maximal", witness=found, comparisons=tuple(comparisons),
            **_base(ctx, policy),
        )

    @classmethod
    def of_conjuncts(
        cls, a, b, c, d, ctx, arrow, sign, policy, args=()
    ) -> ProportionVerdict:
        """a:b ? c:d as four directed verdicts ``arrow(ar1, ar2, side, *args)``.

        The last two run on ``ctx.swapped()``.  The first failing conjunct,
        named ``ar1 <sign> ar2``, decides; else the first witness is kept.
        """
        swapped = ctx.swapped()
        witness = None
        for ar1, ar2, side in (
            ((a, b), (c, d), ctx),
            ((b, a), (d, c), ctx),
            ((c, d), (a, b), swapped),
            ((d, c), (b, a), swapped),
        ):
            verdict = arrow(ar1, ar2, side, *args)
            if not verdict:
                return cls(
                    False, "conjunct-failed",
                    failed_conjunct=f"{ar1[0]}->{ar1[1]} {sign} {ar2[0]}->{ar2[1]}",
                    competitor=verdict.competitor, witness=verdict.witness,
                    **_base(ctx, policy),
                )
            witness = witness or verdict.witness
        return cls(
            True, "maximal" if witness else "all-trivial", witness=witness,
            **_base(ctx, policy),
        )
