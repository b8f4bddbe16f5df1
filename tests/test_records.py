"""The result records: verdicts and reports are immutable named tuples whose
truth is their ``holds`` field, and whose ``repr`` the CLI and the pinned
outputs rely on."""

import pytest

from aprop.clone import Bounds, build_pair_context
from aprop.proportion_rw import UniquenessReport, uniqueness_lemma_check
from aprop.proportion_sim import proportion_sim
from aprop.terms import RewriteRule, Var
from aprop.verdicts import ProportionVerdict
from aprop.verify import (
    AXIOM_SCHEMATA,
    AxiomSchema,
    CheckReport,
    VectorResult,
    bundled_algebra,
    check_axiom,
)

PTRANS = build_pair_context(bundled_algebra("PTRANS"), bounds=Bounds())


def records():
    x0 = Var(0)
    return [
        proportion_sim("a", "a", "a", "a", PTRANS),
        uniqueness_lemma_check(RewriteRule(x0, x0), "a", "a", "b", "b", PTRANS),
        check_axiom("p-symmetry", PTRANS),
        VectorResult(1, "sim", "a:a ~ a:a", "holds", "holds", True),
        AXIOM_SCHEMATA["p-symmetry"],
    ]


def test_records_are_the_named_tuples():
    kinds = [ProportionVerdict, UniquenessReport, CheckReport, VectorResult, AxiomSchema]
    for record, kind in zip(records(), kinds):
        assert type(record) is kind
        assert tuple(record) == record
        assert record._replace() == record
        hash(record)


def test_setting_a_field_raises():
    for record in records():
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_truth_is_holds():
    verdicts = [proportion_sim("a", "a", "a", q, PTRANS) for q in ("a", "b")]
    reports = [check_axiom(name, PTRANS) for name in ("p-symmetry", "p-commutativity")]
    for holding, failing in (verdicts, reports):
        assert (holding.holds, failing.holds) == (True, False)
        for record in (holding, failing):
            assert bool(record) == record.holds


def test_ptrans_verdict_reprs_are_pinned():
    assert repr(proportion_sim("a", "a", "a", "b", PTRANS)) == (
        "ProportionVerdict(holds=False, reason='conjunct-failed', exact=True, max_vars=2,"
        " depth=2, policy='literal', witness='h(x0) -> x1', competitor='b->b',"
        " comparisons=(), failed_conjunct='a->a <~ a->b')"
    )
    assert repr(proportion_sim("a", "a", "a", "a", PTRANS)) == (
        "ProportionVerdict(holds=True, reason='maximal', exact=True, max_vars=2,"
        " depth=2, policy='literal', witness='x0 -> x0', competitor=None,"
        " comparisons=(), failed_conjunct=None)"
    )

