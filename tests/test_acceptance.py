"""Acceptance criteria, one test per criterion, printing pass/fail lines.

All six run in the default suite; criteria 1 and 5 share one run of the
paper-720 suite, which reaches 92 and 72 for PGL(2,9) by formula and by
the orbit-reduced holomorph route.  Criterion 6 runs the remaining
order-720 holomorph counts, the stretch-720 suite (about 6 s on one core).
"""

import pytest

from hgs.verify import run_verify_suite


def _run(suite: str, **kw):
    lines = []
    report = run_verify_suite(suite, log=lines.append, **kw)
    for line in lines:
        print(line)
    return report


@pytest.fixture(scope="module")
def paper_720():
    return _run("paper-720")


def test_criterion_1_formula_paths_order_720(paper_720):
    """Self-type and product-type formula values at order 720: 92, 92, 72, 0,
    and 92, 72 for PGL(2,9) again by holomorph enumeration."""
    for item in paper_720.items:
        assert item.ok, item.line()
    named = {i.name: i for i in paper_720.items}
    assert named["e(PGL(2,9),PGL(2,9)) by holomorph enumeration"].observed == 92
    assert named["e(PGL(2,9),A6xC2) by holomorph enumeration"].observed == 72


def test_criterion_2_triple_agreement_order_120():
    """e(S5,S5) = 32 and e(S5,A5xC2) = 20 along every route, exactly."""
    report = _run("paper-120")
    values = {i.name: i.observed for i in report.items}
    assert all(i.ok for i in report.items), [i.line() for i in report.items]
    assert len([v for v in values.values() if v == 32]) == 3
    assert len([v for v in values.values() if v == 20]) == 4


def test_criterion_3_oracle_equivalence_small_orders():
    """Per-type brute-force counts equal the holomorph route at orders 4, 6, 8."""
    report = _run("small")
    assert len(report.items) == 35  # 2 fixtures + 33 ordered pairs
    for item in report.items:
        assert item.ok, item.line()


def test_criterion_4_lemma_property_suite():
    """Crossed-homomorphism laws, normalizer identity, duality, exactly-one
    normalization, socle facts, and simple-group automorphism facts."""
    report = _run("lemmas")
    for item in report.items:
        assert item.ok, item.line()


def test_criterion_5_screening_verdicts(paper_720):
    """SL(2,9) condition-3 failure with re-verified witnesses, cyclic
    exclusions, and the tower labeling (inside the paper-720 suite)."""
    named = {i.name: i for i in paper_720.items}
    key = "SL(2,9) fails the exact-commutation lifting condition"
    assert named[key].ok
    assert named["cyclic C720 is excluded for PGL(2,9)"].ok
    assert named["cyclic C720 is excluded for M10"].ok
    assert named["M10 outer coset is involution-free"].ok


def test_criterion_6_stretch_order_720():
    """Holomorph enumeration at order 720: 60, 60, 92, 0, 72, 0 (plus S6 rows)."""
    report = _run("stretch-720")
    for item in report.items:
        assert item.ok, item.line()
