"""Decision certificates returned by similarity and proportion queries.

Every directed comparison goes through one maximality kernel over int
bitmask id sets.  It decides a whole competitor row at once: for a left id
set, the small code of every competitor as a target, each being (reason,
lowest shared id or -1, position of the dominating competitor or -1).
Arrow codes are memoized per context (a one-algebra context is its own
mirror) a row at a time, in one dict per arrow relation and policy keyed by
the four elements of the compared arrows; a ``ProportionVerdict`` is built
from codes only when one is asked for.  A quadruple verdict reads the two
memos of its sides once.  A holding one depends only on its policy and the
id of its first witness (-1 when there is none), so each context side keeps
one per such key in ``holding_verdicts``, not shared with its mirror; a
verdict holds strings, ints and bools only, so it references no context.
The sweeps read a relation's quadruples from its table on a context side:
one int bitmask per row (a, b), decided once from the codes.

``ProportionVerdict``, like the check records of ``proportion_rw`` and
``verify``, is a ``NamedTuple``: immutable and hashable.  A copy with other
fields is ``v._replace(...)``, not ``dataclasses.replace``, and a record
compares equal to a plain tuple of the same values.  ``verify.IsoReport``
stays a frozen dataclass, which equals no tuple, so a caller can tell a
report from an ``(exception, message)`` tuple.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import islice, product
from typing import NamedTuple

__all__ = ["ProportionVerdict", "ArrowRelation", "CompetitorPolicy", "check_policy"]

# How the maximality quantifier ranges over competitors.
#   "literal": competitors exclude the left-hand element/arrow, reading the
#              side condition "b' != a" at face value.
#   "all":     competitors range over the whole universe.
CompetitorPolicy = str
POLICIES = ("literal", "all")

ALL_TRIVIAL = ("all-trivial", -1, -1)
EMPTY_INTERSECTION = ("empty-intersection", -1, -1)
HOLDING = ("all-trivial", "maximal")  # the reasons of codes that hold


def check_policy(policy: CompetitorPolicy) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown competitor policy {policy!r}")


def _base(ctx) -> tuple[bool, int, int]:
    """The exact, max_vars and depth fields of every verdict decided on ``ctx``."""
    clone = ctx.clone
    return clone.saturated, clone.bounds.max_vars, clone.depth_reached


def _decide(left: int, right: dict, competitors, skip) -> list[tuple[str, int, int]]:
    """The code of every competitor's share ``left & right[e]``, in order: the
    maximality kernel, run once per competitor row.

    Each share is computed once and each distinct share coded once.  A share
    is dominated by the first competitor (``skip`` excluded) whose share is a
    strict superset of it.  Id sets are int masks, so the lowest set bit is
    the least shared id.  An empty share is all-trivial when ``left`` and
    ``right[e]`` are both empty.
    """
    shares = [left & right[e] for e in competitors]
    # Only the first competitor with a given share can be a first dominator.
    rivals: dict[int, int] = {}
    for pos, (e, shared) in enumerate(zip(competitors, shares)):
        if shared and e != skip:
            rivals.setdefault(shared, pos)
    coded: dict[int, tuple[str, int, int]] = {}
    row = []
    for e, shared in zip(competitors, shares):
        if not shared:
            row.append(EMPTY_INTERSECTION if left or right[e] else ALL_TRIVIAL)
            continue
        code = coded.get(shared)
        if code is None:
            low = (shared & -shared).bit_length() - 1
            code = ("maximal", low, -1)
            for ids, pos in rivals.items():
                if ids & shared == shared and ids != shared:
                    code = ("dominated", low, pos)
                    break
            coded[shared] = code
        row.append(code)
    return row


class ProportionVerdict(NamedTuple):
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
    comparisons: tuple[str, ...] = ()
    failed_conjunct: str | None = None

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def of_maximality(
        cls, left, right, target, competitors, label, witness, ctx, policy, skip, code,
    ) -> ProportionVerdict:
        """Whether ``target`` keeps a maximal share ``left & right[target]``.

        ``left`` and the values of ``right`` are bitmask id sets; ``code`` is
        ``target``'s entry of the kernel's row over ``competitors``.  Each
        competitor scanned up to the dominating one (``skip`` excluded) is
        recorded as ``label(e):sub`` or ``label(e):nosub``;
        ``str(witness(id))`` of the least shared id is the witness.
        """
        reason, low, pos = code
        if low < 0:
            return cls(reason == "all-trivial", reason, *_base(ctx), policy)
        shared = left & right[target]
        comparisons = []
        for e in islice(competitors, None if pos < 0 else pos + 1):
            if e != skip:
                sub = right[e] & shared == shared
                comparisons.append(f"{label(e)}:{'sub' if sub else 'nosub'}")
        return cls(
            pos < 0, reason, *_base(ctx), policy, str(witness(low)),
            None if pos < 0 else label(e), tuple(comparisons),
        )

    @classmethod
    def of_conjuncts(cls, relation: ArrowRelation, q, ctx, policy) -> ProportionVerdict:
        """a:b <sign> c:d from the four memoized codes of ``relation``.

        The first two are read from the memo of ``ctx``, the last two from
        that of ``ctx.swapped()``, which is ``ctx`` itself on one algebra; a
        code missing from its memo is decided by ``relation.code``.  The first
        failing conjunct, named ``ar1 <sign> ar2``, decides, and only its
        witness and competitor are formatted.  Else the verdict holds with the
        first witness, and is the one ``ctx.holding_verdicts`` keeps for the
        policy and that witness's id.
        """
        a, b, c, d = q
        policy, mirror = relation.policy or policy, ctx.swapped()
        here, there = relation.memo(ctx, policy), relation.memo(mirror, policy)
        first = -1
        for memo, side, x, y, z, w in (
            (here, ctx, a, b, c, d),
            (here, ctx, b, a, d, c),
            (there, mirror, c, d, a, b),
            (there, mirror, d, c, b, a),
        ):
            reason, low, pos = memo.get((x, y, z, w)) or relation.code(
                (x, y), (z, w), side, policy
            )
            if reason not in HOLDING:
                competitor = None if pos < 0 else relation.label(
                    relation.operands((x, y), (z, w), side, policy)[2][pos]
                )
                return cls(
                    False, "conjunct-failed", *_base(ctx), policy,
                    None if low < 0 else str(ctx.relations[low]), competitor, (),
                    f"{x}->{y} {relation.sign} {z}->{w}",
                )
            if first < 0:
                first = low
        verdict = ctx.holding_verdicts.get((policy, first))
        if verdict is None:
            verdict = ctx.holding_verdicts[policy, first] = cls(
                True, "maximal" if first >= 0 else "all-trivial", *_base(ctx), policy,
                None if first < 0 else str(ctx.relations[first]),
            )
        return verdict


class ArrowRelation(NamedTuple):
    """A directed arrow relation ``ar1 <sign> ar2``, decided by the kernel.

    ``operands(ar1, ar2, side, policy)`` gives the kernel's left id set, the
    right-hand index (both as int masks), the competitors of ``ar2`` (``ar2``
    among them) as a list the context side holds, so reading one by its
    position builds nothing, and the competitor to skip, or None.  ``label``
    names a competitor arrow.  ``policy`` is the competitor policy every
    verdict of the relation reports, or None when the caller's applies.
    """

    sign: str
    label: Callable[[tuple], str]
    operands: Callable[..., tuple]
    policy: CompetitorPolicy | None = None

    def memo(self, side, policy) -> dict:
        """The memo of ``side``: one dict of codes per (relation, policy), keyed
        by the four elements ``ar1 + ar2`` = (x, y, z, w) of the compared arrows.
        ``policy`` is the relation's own when it has one.
        """
        memo = side.arrow_codes.get((self, policy))
        if memo is None:
            if self.policy is None:
                check_policy(policy)
            memo = side.arrow_codes[self, policy] = {}
        return memo

    def code(self, ar1, ar2, side, policy, operands=None) -> tuple[str, int, int]:
        """The code of ar1 <sign> ar2 on ``side``, decided once per context and policy.

        On a miss the kernel decides the whole row of ``ar1`` against every
        competitor of ``ar2`` (each competitor is a target of the same row),
        and the memo keeps every code of it.  ``operands``, when given, are
        those of ``self.operands(ar1, ar2, side, policy)``.
        """
        codes = self.memo(side, policy)
        code = codes.get(ar1 + ar2)
        if code is None:
            left, right, competitors, skip = operands or self.operands(ar1, ar2, side, policy)
            for e, found in zip(competitors, _decide(left, right, competitors, skip)):
                codes[ar1 + e] = found
            code = codes[ar1 + ar2]
        return code

    def verdict(self, ar1, ar2, ctx, policy) -> ProportionVerdict:
        """The verdict of ar1 <sign> ar2 on ``ctx``, its comparisons rebuilt from the code."""
        policy = self.policy or policy
        left, right, competitors, skip = operands = self.operands(ar1, ar2, ctx, policy)
        return ProportionVerdict.of_maximality(
            left, right, ar2, competitors, self.label, ctx.relations.__getitem__,
            ctx, policy, skip, self.code(ar1, ar2, ctx, policy, operands),
        )

    def decider(self, ctx, policy) -> Callable[[tuple], bool]:
        """``holds(q)``: whether a:b <sign> c:d holds on ``ctx``, read from the
        memo without building a verdict.  The four codes are those of
        ``of_conjuncts``: the first two from ``ctx``'s memo, the last two from
        that of ``ctx.swapped()``, which is ``ctx`` itself on one algebra.
        """
        policy = self.policy or policy
        code, mirror = self.code, ctx.swapped()
        here, there = self.memo(ctx, policy), self.memo(mirror, policy)

        def holds(q) -> bool:
            a, b, c, d = q
            found = here.get((a, b, c, d)) or code((a, b), (c, d), ctx, policy)
            if found[0] not in HOLDING:
                return False
            found = here.get((b, a, d, c)) or code((b, a), (d, c), ctx, policy)
            if found[0] not in HOLDING:
                return False
            found = there.get((c, d, a, b)) or code((c, d), (a, b), mirror, policy)
            if found[0] not in HOLDING:
                return False
            found = there.get((d, c, b, a)) or code((d, c), (b, a), mirror, policy)
            return found[0] in HOLDING

        return holds

    def bit(self, side, policy) -> Callable[..., bool]:
        """``bit(a, b, c, d)``: whether a:b <sign> c:d holds on ``side``, one
        read of its table."""
        rows, A, B = self.table(side, policy), side.alg_a.index, side.alg_b.index
        nA, nB = len(A), len(B)
        return lambda a, b, c, d: rows[A[a] * nA + A[b]] >> B[c] * nB + B[d] & 1 == 1

    def table(self, side, policy) -> tuple[int, ...]:
        """The quadruple relation a:b <sign> c:d on ``side``, as one int per row
        (a, b) in A x A product order, whose bit k is set when it holds for the
        k-th pair (c, d) of B x B.

        Built on first use by one call of ``side``'s decider per quadruple and
        kept in ``side.quad_tables``, one per relation and policy.  It holds
        ints only, so it references no context.
        """
        policy = self.policy or policy
        rows = side.quad_tables.get((self, policy))
        if rows is None:
            holds = self.decider(side, policy)
            A, B = side.alg_a.universe, side.alg_b.universe
            bits = [(c, d, 1 << k) for k, (c, d) in enumerate(product(B, B))]
            rows = side.quad_tables[self, policy] = tuple(
                sum(bit for c, d, bit in bits if holds((a, b, c, d)))
                for a, b in product(A, A)
            )
        return rows
